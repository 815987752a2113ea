"""Occlusion-aware multi-object pedestrian tracking toolkit.

The package loads no submodule itself: each name of ``__all__`` is read
from its home module on first use (PEP 562), so a program loads only the
modules it uses.
"""

import importlib

_HOMES = {  # name -> the submodule that defines it
    name: module
    for module, names in {
        "association": ("CostMatrix",),
        "config": ("RunConfig",),
        "geometry": ("BBox",),
        "head": ("GridIndex", "HeadKeypoint"),
        "kalman": ("IteratedUpdateConfig", "KalmanModel", "KalmanState"),
        "lifting": ("Pose3", "TrajectoryGap"),
        "metrics": ("EvalReport", "EvalTables", "evaluate"),
        "rows": ("AppearanceDescriptor", "Detection"),
        "tracker": ("Track", "Tracker"),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

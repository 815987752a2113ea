"""Every function in ``src/headtrack`` runs in some verb, or is listed in
``UNREACHED`` with the reason it stays.

A fresh interpreter imports ``headtrack.cli`` under ``sys.setprofile`` and
runs eight verbs in process, as the README quick start does: ``simulate``;
``track`` with ``--min-hits 1``, and again with ``--emit-predictions 1``;
``interpolate`` with each method; ``evaluate``; and ``assign`` on a
two-anchor scene. It records the qualified name of every Python function
called from ``src/headtrack``. The functions that ``ast`` finds in the
source and that no run called must be ``UNREACHED`` exactly: a new function
that no verb runs fails until it is listed with its reason, and a listed
one that a verb comes to run fails until it is struck off.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import headtrack

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects have co_qualname from 3.11")

SRC = Path(headtrack.__file__).resolve().parent

QUICK_START = """targets = 10
motion = crossing
frames = 100
noise_std = 1.0
seed = 42
occlusion = 3:40-44;7:60-64
"""

ASSIGN_SCENE = {
    "anchors": [{"cx": 50, "cy": 50, "box": [0, 0, 100, 90], "cls": 0.9},
                {"cx": 50, "cy": 50, "box": [0, 0, 100, 80], "cls": 0.9}],
    "gts": [{"box": [0, 0, 100, 100]}],
}

PROBE = """
import inspect, json, os, sys
src, work = sys.argv[1:]
called = set()

def profile(frame, event, arg):
    code = frame.f_code  # a module or class body is not CO_OPTIMIZED
    if event == "call" and code.co_flags & inspect.CO_OPTIMIZED and code.co_filename.startswith(src):
        called.add((os.path.relpath(code.co_filename, src), code.co_qualname))

sys.setprofile(profile)
from headtrack import cli

scene, result = os.path.join(work, "scene"), os.path.join(work, "result.txt")
dets = ["--dets", os.path.join(scene, "det.txt"), "--features", os.path.join(scene, "features.ftfv")]
argvs = [
    ["simulate", "--spec", os.path.join(work, "scene.cfg"), "--out-dir", scene],
    ["track", *dets, "--out", result, "--min-hits", "1"],
    ["track", *dets, "--out", os.path.join(work, "coasted.txt"), "--emit-predictions", "1"],
    *(["interpolate", "--input", result, "--method", method, "--out", os.path.join(work, method + ".txt")]
      for method in ("linear2d", "se3_linear", "se3_kalman")),
    ["evaluate", "--gt", os.path.join(scene, "gt.txt"), "--result", result],
    ["assign", "--scene", os.path.join(work, "assign.json")],
]
codes = [cli.main(argv) for argv in argvs]
sys.setprofile(None)
print(json.dumps([codes, sorted(called)]))
"""


# The functions of src/headtrack that no verb run calls, as "file:qualified name", by the
# reason each stays: what reaches it instead.
UNREACHED = {
    # acceptance criteria
    "c01 and test_association.TestBlockSolve: the tie-break, run when the optimum may not be unique": [
        "association.py:_tie_break", "association.py:_reroute"],
    "c02 and c03: the matrix Kalman forms, until ROADMAP item 5 writes them over the rows forms": [
        "kalman.py:constant_velocity_model", "kalman.py:update", "kalman.py:iterated_update",
        "kalman.py:iterated_update.<locals>.h_fn", "kalman.py:_gain", "kalman.py:_state", "kalman.py:_symmetrize"],
    "c04": ["lifting.py:interpolate_se3"],
    "c05 to c08 read these row views, and perfbench does too (ROADMAP item 3)": [
        "dataio.py:MotTable.__iter__", "rows.py:MotLine.bbox", "tracker.py:Emissions.__iter__"],
    "c09 through tests/assign_oracle.py, and tests/lifting_oracle.py": ["geometry.py:BBox.cx", "geometry.py:BBox.cy"],
    # error paths
    "usage errors: test_cli.TestConfigHandling.test_usage_error_exits_one": ["cli.py:_Parser.error"],
    "the checked MOT reader, run on text numpy's C reader refuses: test_cli.TestBadRowsNameFileAndLine": [
        "dataio.py:_read_checked", "dataio.py:_int64", "dataio.py:MotParseError.__init__"],
    # perfbench
    "row views that perfbench/run.py and test_perfbench.py build (ROADMAP item 3)": [
        "tracker.py:Detections.__iter__", "rows.py:Detection.__post_init__",
        "rows.py:AppearanceDescriptor.__post_init__", "rows.py:_as_unit"],
    "row views that perfbench/trace_cli.py reads (ROADMAP item 3)": [
        "metrics.py:EvalTables.__iter__", "metrics.py:_frame_rows", "tracker.py:Tracker.tracks"],
    "perfbench/trace_cli.py wraps it by name; a matrix Kalman form (ROADMAP item 5)": ["kalman.py:predict"],
    "the scalar reference of iou_matrix and iou_pairs, bit for bit; test_perfbench.py imports it": ["geometry.py:iou"],
    # pending ROADMAP decisions
    "the head surface, which ROADMAP item 7 makes change the track or deletes": [
        "head.py:gaussian_weighted_descriptor", "head.py:gaussian_weight", "head.py:grid_map"],
    "the one-state birth, reference of initiate_rows in test_kalman and test_tracker (ROADMAP item 5)": [
        "kalman.py:initiate"],
    "tests only (ROADMAP item 17): test_cli and test_dataio write expected text with it": ["dataio.py:format_mot"],
    "tests only (ROADMAP item 17): test_lifting": ["lifting.py:Pose3.identity"],
    "the package's dir() hook: test_imports.test_package_names_resolve_to_their_home_modules": ["__init__.py:__dir__"],
}


def defined_functions() -> set[str]:
    """``file:qualified name`` of every ``def`` in the package source, the file relative to ``src/headtrack``."""
    found = set()

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{path}:{prefix}{child.name}")
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(SRC.rglob("*.py")):
        visit(ast.parse(file.read_text(), str(file)), file.relative_to(SRC).as_posix(), "")
    return found


def called_functions(tmp_path) -> set[str]:
    """``file:qualified name`` of every function, lambda and comprehension of the package that the runs call."""
    (tmp_path / "scene.cfg").write_text(QUICK_START)
    (tmp_path / "assign.json").write_text(json.dumps(ASSIGN_SCENE))
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC) + os.sep, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    codes, called = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 8
    return {f"{file}:{name}" for file, name in called}


def test_functions_no_verb_calls_are_the_allowlist(tmp_path):
    defined, called = defined_functions(), called_functions(tmp_path)
    # every def the runs called (not a lambda or comprehension, whose names end in ">") is one
    # ast found, so both sides name functions the same way
    assert {name for name in called if not name.endswith(">")} <= defined
    assert sorted(defined - called) == sorted(name for names in UNREACHED.values() for name in names)

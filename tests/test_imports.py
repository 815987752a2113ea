"""Only the verbs that solve an assignment load scipy.

``track`` (at its first non-empty assignment) and ``evaluate`` (at its
first matching) need scipy's solver; importing the package and every
other verb must not pay for it. Each case runs in a fresh interpreter,
because a module once imported stays in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import headtrack
from headtrack import cli, lifting

SCENE = """
targets = 3
motion = crossing
frames = 30
seed = 42
occlusion = 1:10-14
"""

# the report of `evaluate` on the tracked SCENE, before and after scipy became lazy
REPORT = ["MOTA=0.944444", "IDF1=0.971429", "FP=0", "FN=5", "IDS=0", "GT=90"]

ASSIGN_SCENE = {
    "anchors": [{"cx": 50, "cy": 50, "box": [0, 0, 100, 90], "cls": 0.9}],
    "gts": [{"box": [0, 0, 100, 100]}],
}

PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
codes = [module.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def fresh(module: str, *argvs: list[str]) -> tuple[list[int], list[str], list[str]]:
    """Import ``module`` in a new interpreter and run ``module.main`` on each argv.

    Returns the exit codes, the scipy modules loaded afterwards and the
    lines the verbs printed.
    """
    src = str(Path(headtrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, module, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    *printed, last = proc.stdout.splitlines()
    codes, scipy_modules = json.loads(last)
    return codes, scipy_modules, printed


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A simulated scene and its tracked result, which has a gap to fill."""
    root = tmp_path_factory.mktemp("imports")
    (root / "scene.cfg").write_text(SCENE)
    assert cli.main(["simulate", "--spec", str(root / "scene.cfg"), "--out-dir", str(root)]) == 0
    args = ["--dets", str(root / "det.txt"), "--features", str(root / "features.ftfv")]
    assert cli.main(["track", *args, "--out", str(root / "result.txt"), "--min-hits", "1"]) == 0
    return root


@pytest.mark.parametrize("module", ["headtrack", "headtrack.cli"])
def test_import_loads_no_scipy(module):
    assert fresh(module)[:2] == ([], [])


@pytest.mark.parametrize("method", lifting.METHODS)
def test_interpolate_loads_no_scipy(scene, tmp_path, method):
    argv = ["interpolate", "--input", str(scene / "result.txt"), "--method", method,
            "--out", str(tmp_path / "filled.txt")]
    assert fresh("headtrack.cli", argv)[:2] == ([0], [])
    assert len((tmp_path / "filled.txt").read_text().splitlines()) == 90


def test_simulate_and_assign_load_no_scipy(scene, tmp_path):
    (tmp_path / "assign.json").write_text(json.dumps(ASSIGN_SCENE))
    simulate = ["simulate", "--spec", str(scene / "scene.cfg"), "--out-dir", str(tmp_path)]
    assign = ["assign", "--scene", str(tmp_path / "assign.json")]
    assert fresh("headtrack.cli", simulate, assign)[:2] == ([0, 0], [])


def test_failing_track_loads_no_scipy(tmp_path):
    (tmp_path / "det.txt").write_text("1,-1,10,10,20,40,1,-1,-1,-1\n2,-1,x,10,20,40,1,-1,-1,-1\n")
    argv = ["track", "--dets", str(tmp_path / "det.txt"), "--out", str(tmp_path / "out.txt")]
    assert fresh("headtrack.cli", argv)[:2] == ([2], [])


def test_track_and_evaluate_load_scipy_and_report_as_before(scene, tmp_path):
    track = ["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.ftfv"),
             "--out", str(tmp_path / "result.txt"), "--min-hits", "1"]
    codes, scipy_modules, _ = fresh("headtrack.cli", track)
    assert codes == [0] and "scipy.optimize" in scipy_modules
    assert (tmp_path / "result.txt").read_bytes() == (scene / "result.txt").read_bytes()

    evaluate = ["evaluate", "--gt", str(scene / "gt.txt"), "--result", str(tmp_path / "result.txt")]
    codes, scipy_modules, printed = fresh("headtrack.cli", evaluate)
    assert codes == [0] and "scipy.optimize" in scipy_modules
    assert printed == REPORT

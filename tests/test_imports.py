"""Each verb loads the headtrack modules it runs, and of scipy only the
verbs that solve an assignment load anything: its solver extension.

``import headtrack`` loads no submodule, and ``import headtrack.cli`` only
the configs, the file formats and the geometry; each verb then loads the
modules it runs, and only ``simulate`` loads the scene generator. No verb
of the benchmark path loads the row views or the head surface.
``track`` (at its first non-empty assignment) and ``evaluate`` (at its
first matching) need scipy's assignment solver. Of scipy they load only
the ``scipy.optimize._lsap`` extension that holds it: not the ``scipy``
package, whose ``__init__`` they find but do not run, and not
``scipy.optimize``; importing the package and every other verb must not
load scipy at all. Each case runs in a fresh interpreter, because a module
once imported stays in ``sys.modules``.

The same goes for exit: a process that ran ``cli.main`` freezes the
garbage collector once, at exit; the import alone, and ``main`` run in
process, freeze nothing.
"""

import gc
import importlib
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import headtrack
from headtrack import association, cli, lifting

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
print(json.dumps([codes, *(sorted(m for m in sys.modules if m.split(".")[0] == top)
                           for top in ("scipy", "headtrack"))]))
"""

# the headtrack modules that `import headtrack.cli` loads, and those loaded once a verb has run
CLI_MODULES = ["headtrack", "headtrack.cli", "headtrack.config", "headtrack.dataio", "headtrack.geometry"]
VERB_MODULES = {
    "track": CLI_MODULES + ["headtrack.association", "headtrack.kalman", "headtrack.tracker"],
    "interpolate": CLI_MODULES + ["headtrack.lifting"],
    "evaluate": CLI_MODULES + ["headtrack.association", "headtrack.metrics"],
    "simulate": CLI_MODULES + ["headtrack.association", "headtrack.simulate"],
    "assign": CLI_MODULES + ["headtrack.head", "headtrack.label_assign"],
}


def python(code: str, *args: str) -> str:
    """The standard output of ``code`` run with ``args`` in a new interpreter."""
    src = str(Path(headtrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


class Run(NamedTuple):
    codes: list[int]
    scipy_modules: list[str]
    printed: list[str]
    headtrack_modules: list[str]


def fresh(module: str, *argvs: list[str]) -> Run:
    """Import ``module`` in a new interpreter and run ``module.main`` on each argv.

    Returns the exit codes, the scipy modules loaded afterwards, the lines
    the verbs printed and the headtrack modules loaded afterwards.
    """
    *printed, last = python(PROBE, module, json.dumps(argvs)).splitlines()
    codes, scipy_modules, headtrack_modules = json.loads(last)
    return Run(codes, scipy_modules, printed, headtrack_modules)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A simulated scene, its tracked result, which has a gap to fill, and an ``assign`` scene."""
    root = tmp_path_factory.mktemp("imports")
    (root / "scene.cfg").write_text(SCENE)
    assert cli.main(["simulate", "--spec", str(root / "scene.cfg"), "--out-dir", str(root)]) == 0
    args = ["--dets", str(root / "det.txt"), "--features", str(root / "features.ftfv")]
    assert cli.main(["track", *args, "--out", str(root / "result.txt"), "--min-hits", "1"]) == 0
    (root / "assign.json").write_text(json.dumps(ASSIGN_SCENE))
    return root


def verb_argvs(scene, tmp_path) -> dict[str, list[str]]:
    """An argv per verb that runs on ``scene`` and writes into ``tmp_path``."""
    return {
        "track": ["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.ftfv"),
                  "--out", str(tmp_path / "result.txt")],
        "interpolate": ["interpolate", "--input", str(scene / "result.txt"), "--method", "se3_kalman",
                        "--out", str(tmp_path / "filled.txt")],
        "evaluate": ["evaluate", "--gt", str(scene / "gt.txt"), "--result", str(scene / "result.txt")],
        "simulate": ["simulate", "--spec", str(scene / "scene.cfg"), "--out-dir", str(tmp_path)],
        "assign": ["assign", "--scene", str(scene / "assign.json")],
    }


@pytest.mark.parametrize("module", ["headtrack", "headtrack.cli"])
def test_import_loads_no_scipy(module):
    assert fresh(module)[:2] == ([], [])


@pytest.mark.parametrize("module,loaded", [("headtrack", ["headtrack"]), ("headtrack.cli", CLI_MODULES)],
                         ids=["headtrack", "headtrack.cli"])
def test_import_loads_no_verb_module(module, loaded):
    assert sorted(fresh(module).headtrack_modules) == sorted(loaded)


# PROBE imports json itself, so whether headtrack does needs a probe of its own
JSON_PROBE = """
import sys
from headtrack import cli
imported = "json" in sys.modules
code = cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(imported, "json" in sys.modules, code)
"""


def test_cli_and_track_load_no_json(scene, tmp_path):
    """Only ``assign`` reads JSON, so only it imports the json module."""
    assert python(JSON_PROBE).split() == ["False", "False", "None"]
    track = ["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.ftfv"),
             "--out", str(tmp_path / "result.txt")]
    assert python(JSON_PROBE, *track).split() == ["False", "False", "0"]
    assert python(JSON_PROBE, *verb_argvs(scene, tmp_path)["assign"]).split()[-3:] == ["False", "True", "0"]


@pytest.mark.parametrize("verb", VERB_MODULES)
def test_verb_loads_only_the_modules_it_runs(scene, tmp_path, verb):
    run = fresh("headtrack.cli", verb_argvs(scene, tmp_path)[verb])
    assert run.codes == [0]
    assert sorted(run.headtrack_modules) == sorted(VERB_MODULES[verb])


def test_bench_verbs_load_no_row_views_and_no_head_surface(scene, tmp_path):
    """``track`` (with ``--head-format`` too), ``interpolate`` and ``evaluate`` in one interpreter."""
    argvs = verb_argvs(scene, tmp_path)
    run = fresh("headtrack.cli", argvs["track"], argvs["track"] + ["--head-format"], argvs["interpolate"],
                argvs["evaluate"])
    assert run.codes == [0] * 4
    assert not {"headtrack.rows", "headtrack.head"} & set(run.headtrack_modules)


# The probe's own exit hook, registered before headtrack's, runs after it. gc.freeze is
# wrapped to count its calls; headtrack.cli looks it up when main runs.
EXIT_PROBE = """
import atexit, gc, json, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
from headtrack import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(codes)
"""


def test_import_freezes_nothing_at_exit():
    assert python(EXIT_PROBE, "[]").splitlines() == ["[]", "0 False"]


@pytest.mark.parametrize("verbs", [["track"], ["interpolate"], ["evaluate"], ["track", "interpolate", "evaluate"]],
                         ids=["track", "interpolate", "evaluate", "all three"])
def test_main_freezes_the_collector_once_at_exit(scene, tmp_path, verbs):
    argvs = [verb_argvs(scene, tmp_path)[verb] for verb in verbs]
    *_, codes, frozen = python(EXIT_PROBE, json.dumps(argvs)).splitlines()
    assert (codes, frozen) == (str([0] * len(verbs)), "1 True")


def test_main_in_process_freezes_nothing(scene, tmp_path, capsys):
    before = gc.get_freeze_count()
    for argv in verb_argvs(scene, tmp_path).values():
        assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before


SCENE_SPEC_PROBE = """
import sys
from headtrack import cli
print(sorted(name for name, module in sys.modules.items() if name.startswith("headtrack") and hasattr(module, "SceneSpec")))
"""


def test_cli_builds_no_scene_spec():
    """No module that ``import headtrack.cli`` loads holds the scene generator's SceneSpec."""
    assert python(SCENE_SPEC_PROBE).strip() == "[]"


def test_package_names_resolve_to_their_home_modules():
    for name in headtrack.__all__:
        value = getattr(headtrack, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    assert set(headtrack.__all__) <= set(dir(headtrack))
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        headtrack.missing


@pytest.mark.parametrize("method", lifting.METHODS)
def test_interpolate_loads_no_scipy(scene, tmp_path, method):
    argv = ["interpolate", "--input", str(scene / "result.txt"), "--method", method,
            "--out", str(tmp_path / "filled.txt")]
    assert fresh("headtrack.cli", argv)[:2] == ([0], [])
    assert len((tmp_path / "filled.txt").read_text().splitlines()) == 90


def test_simulate_and_assign_load_no_scipy(scene, tmp_path):
    argvs = verb_argvs(scene, tmp_path)
    assert fresh("headtrack.cli", argvs["simulate"], argvs["assign"])[:2] == ([0, 0], [])


def test_failing_track_loads_no_scipy(tmp_path):
    (tmp_path / "det.txt").write_text("1,-1,10,10,20,40,1,-1,-1,-1\n2,-1,x,10,20,40,1,-1,-1,-1\n")
    argv = ["track", "--dets", str(tmp_path / "det.txt"), "--out", str(tmp_path / "out.txt")]
    assert fresh("headtrack.cli", argv)[:2] == ([2], [])


# the scipy modules of a verb that solved assignments with the extension alone
SOLVER_ONLY = ["scipy.optimize._lsap"]


def test_track_and_evaluate_load_only_the_solver_and_report_as_before(scene, tmp_path):
    track = ["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.ftfv"),
             "--out", str(tmp_path / "result.txt"), "--min-hits", "1"]
    run = fresh("headtrack.cli", track)
    assert run.codes == [0]
    assert run.scipy_modules == SOLVER_ONLY
    assert (tmp_path / "result.txt").read_bytes() == (scene / "result.txt").read_bytes()

    evaluate = ["evaluate", "--gt", str(scene / "gt.txt"), "--result", str(tmp_path / "result.txt")]
    run = fresh("headtrack.cli", evaluate)
    assert run.codes == [0]
    assert run.scipy_modules == SOLVER_ONLY
    assert run.printed == REPORT


ORDER_PROBE = """
import sys
import numpy as np
if sys.argv[1] == "scipy.optimize first":
    import scipy.optimize
from headtrack import association
association.linear_sum_assignment(np.eye(2))
extension = sys.modules["scipy.optimize._lsap"]
import scipy.optimize
print(association._lsap() is scipy.optimize.linear_sum_assignment is extension.linear_sum_assignment,
      sys.modules["scipy.optimize._lsap"] is extension)
"""


@pytest.mark.parametrize("order", ["headtrack first", "scipy.optimize first"])
def test_solver_is_scipy_optimize_linear_sum_assignment(order):
    """Either import order ends with one extension module and one solver function."""
    assert python(ORDER_PROBE, order).split() == ["True", "True"]


@pytest.fixture(params=[None, importlib.machinery.ModuleSpec("_lsap", None)],
                ids=["no spec", "not an extension"])
def hidden_extension(request, monkeypatch):
    """A scipy whose ``optimize`` directory offers no ``_lsap`` extension file.

    Yields the paths the loader searched for it.
    """
    import scipy.optimize  # noqa: F401 - the fallback's import is then a lookup

    find_spec = importlib.machinery.PathFinder.find_spec
    searched = []

    def find_spec_without_lsap(name, path=None, target=None):
        if name != "_lsap":
            return find_spec(name, path, target)
        searched.append(path)
        return request.param

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find_spec_without_lsap)
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    association._lsap.cache_clear()
    yield searched
    association._lsap.cache_clear()


def test_solver_without_scipy_raises_as_import_does(monkeypatch):
    """When no scipy is found, the first solve raises what ``import scipy`` raises."""
    import scipy.optimize  # noqa: F401 - holds the extension module the test hides

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None: None if name == "scipy" else find_spec(name, package))
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
    association._lsap.cache_clear()
    try:
        with pytest.raises(ModuleNotFoundError, match="^No module named 'scipy'$") as missing:
            association.linear_sum_assignment(np.eye(2))
        assert missing.value.name == "scipy"
    finally:
        association._lsap.cache_clear()


@pytest.mark.parametrize("cost,maximize,expected", [
    ([[4.0, 1.0, 3.0], [0.0, 2.0, 5.0]], False, ([0, 1], [1, 0])),
    ([[2.0, 9.0], [8.0, 1.0], [7.0, 6.0]], True, ([0, 1], [1, 0])),
])
def test_fallback_without_the_extension_file(hidden_extension, cost, maximize, expected):
    rows, cols = association.linear_sum_assignment(np.array(cost), maximize=maximize)
    assert len(hidden_extension) == 1 and hidden_extension[0][0].endswith("optimize")
    assert (rows.tolist(), cols.tolist()) == expected

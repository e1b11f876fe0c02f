"""The package's export list and what a run imports."""

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import pbrsim
import pbrsim.harness
from pbrsim.cli import main

# The single-state density-matrix API (evolution lives in pbrsim.simulate only),
# the simulated forbidden-map discovery (the map is closed-form), the
# readout map on finished distributions (a run folds readout into its read),
# the line-oriented circuit text format and the per-qubit circuit duration
# (`bounds` reads only the preparation qubits' busy times).
REMOVED = (
    "DensityMatrix",
    "ForbiddenMap",
    "NormalizationError",
    "apply_channel",
    "apply_readout",
    "apply_unitary",
    "circuit_duration",
    "circuit_from_lines",
    "circuit_to_lines",
    "discover_forbidden_map",
    "ground_state",
    "input_angles",
    "marginal_distribution",
    "measurement_probs",
    "pure_density",
    "simulate_circuit",
    "tolerance_report",
)


def test_export_list():
    exported = pbrsim.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(pbrsim, name), name
    # Each name is listed once, under the submodule that defines it.
    owners = [name for names in pbrsim._EXPORTS.values() for name in names]
    assert sorted(owners) == sorted(exported)
    for module, names in pbrsim._EXPORTS.items():
        home = importlib.import_module(f"pbrsim.{module}")
        assert getattr(pbrsim, module) is home
        for name in names:
            assert getattr(pbrsim, name) is getattr(home, name), name
    for name in REMOVED:
        assert name not in exported
        assert not hasattr(pbrsim, name), name


# Each check below runs in a fresh interpreter, so what earlier tests
# imported does not count.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(pbrsim.__file__)))
CALIB = os.path.join(os.path.dirname(SRC), "demos", "data", "adjacent_pair.json")
# Modules an unplaced pair run leaves alone: routing, CSV output, the
# statistics module with the fractions and decimal modules it imports, and
# numpy.random, as a pair run draws its counts in pure Python (under a
# numpy release the pure draw was checked against, or a later one).
UNUSED_BY_UNPLACED_RUN = ("pbrsim.routing", "csv", "statistics", "fractions", "decimal") + (
    ("numpy.random",) if pbrsim.harness._PURE_DRAW else ()
)

# Runs one command through `pbrsim.cli.<sys.argv[2]>` (`main` or the process
# entry `entry`) and prints its exit code, the loaded modules and the
# collector's state afterwards.
_LOADED_AFTER_COMMAND = """
import contextlib, gc, io, json, sys
import pbrsim.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = getattr(pbrsim.cli, sys.argv[2])(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules), gc.isenabled(), gc.get_freeze_count()]))
"""


def _fresh(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(argv, func="main"):
    code, modules, enabled, frozen = _fresh(_LOADED_AFTER_COMMAND, json.dumps(argv), func)
    assert code in (0, 1)
    # `main` leaves the collector alone; the entry turns it back on after
    # freezing the run path it loaded.
    assert enabled and (frozen > 0) == (func == "entry")
    return set(modules)


def test_import_loads_no_submodule():
    modules = _fresh("import json, sys, pbrsim; print(json.dumps(sorted(sys.modules)))")
    assert "pbrsim" in modules
    assert [m for m in modules if m.startswith("pbrsim.")] == []


def test_cli_import_loads_no_numpy():
    # The console script imports pbrsim.cli before its entry turns the
    # collector off, so the run path must load inside the entry.
    modules = _fresh("import json, sys, pbrsim.cli; print(json.dumps(sorted(sys.modules)))")
    assert not [m for m in modules if m.split(".")[0] == "numpy"]
    assert [m for m in modules if m.startswith("pbrsim.")] == ["pbrsim.cli", "pbrsim.config"]


def test_unplaced_run_loads_no_routing_csv_or_statistics():
    argv = ["run", "--n", "2", "--calib", CALIB, "--model", "thermo", "--shots", "2000"]
    for func in ("main", "entry"):
        loaded = _loaded_after(argv, func)
        assert "pbrsim.harness" in loaded
        assert loaded.isdisjoint(UNUSED_BY_UNPLACED_RUN), loaded & set(UNUSED_BY_UNPLACED_RUN)


def test_run_past_four_inputs_loads_numpy_random(tmp_path):
    # The positive control of the check above: n = 3 draws 8 inputs with
    # numpy's Generator, so the same check would see numpy.random.
    calib = tmp_path / "three.json"
    pbrsim.save_calibration(pbrsim.uniform_calibration(3, p1=2e-4, p2=2e-3), calib)
    argv = ["run", "--n", "3", "--calib", str(calib), "--model", "dep", "--shots", "2000"]
    assert "numpy.random" in _loaded_after(argv, "entry")


# Runs `pbrsim.cli.main(sys.argv[1])` with numpy reporting version
# sys.argv[2], and prints its exit code, its report and whether it loaded
# numpy.random.
_RUN_UNDER_NUMPY_VERSION = """
import contextlib, io, json, sys
import numpy

numpy.__version__ = sys.argv[2]
import pbrsim.cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = pbrsim.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), "numpy.random" in sys.modules]))
"""


def test_pair_run_under_an_older_numpy_draws_with_its_generator():
    # Before the release the pure draw was checked against, a pair run
    # draws with numpy's Generator, which loads numpy.random; on this
    # numpy both paths write the same report.
    argv = json.dumps(["run", "--n", "2", "--calib", CALIB, "--model", "dep", "--shots", "2000"])
    older = _fresh(_RUN_UNDER_NUMPY_VERSION, argv, "2.3.5")
    assert older[0] in (0, 1) and older[2]
    if pbrsim.harness._PURE_DRAW:
        checked = _fresh(_RUN_UNDER_NUMPY_VERSION, argv, np.__version__)
        assert not checked[2] and checked[:2] == older[:2]


def test_main_leaves_the_collector_alone():
    argv = ["run", "--n", "2", "--calib", CALIB, "--model", "dep", "--shots", "2000"]
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        for on in (True, False):
            (gc.enable if on else gc.disable)()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (on, frozen)
    finally:
        (gc.enable if enabled else gc.disable)()


def test_run_path_compiles_no_generated_code():
    # `@dataclass(frozen=True)` execs source text for every method it
    # writes, at every start; the records share one base instead. numpy and
    # the standard library modules the run path imports load first, so only
    # the package's own import is watched.
    script = """
import json, sys
import dataclasses, numpy

compiled = []
sys.addaudithook(
    lambda event, args: event == "compile" and args[1] == "<string>" and compiled.append(args[0])
)
import pbrsim.harness, pbrsim.routing
print(json.dumps([source.decode() for source in compiled]))
"""
    compiled = _fresh(script)
    if sys.version_info >= (3, 13):
        # From 3.13, dataclass compiles one builder per class even when it
        # generates no method: its body returns an empty tuple.
        compiled = [source for source in compiled if source != "def __create_fn__():\n\n return ()"]
    assert compiled == []


def test_placed_run_and_sweep_load_routing(tmp_path):
    cmap = tmp_path / "map.json"
    cmap.write_text(json.dumps({"n_qubits": 2, "edges": [[0, 1]]}))
    base = ["--calib", CALIB, "--model", "dep", "--shots", "2000"]
    for argv in (
        ["run", "--n", "2", *base, "--map", str(cmap), "--place", "0,1"],
        ["sweep-distance", *base, "--spans", "1"],
    ):
        assert "pbrsim.routing" in _loaded_after(argv), argv


def test_every_export_and_submodule_resolves_on_first_use():
    script = """
import json, pbrsim

names = pbrsim.__all__ + list(pbrsim._EXPORTS)
resolved = [name for name in names if getattr(pbrsim, name, None) is not None]
try:
    pbrsim.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([names, resolved, unknown, dir(pbrsim)]))
"""
    names, resolved, unknown, listed = _fresh(script)
    assert resolved == names
    assert set(pbrsim._EXPORTS) == {
        name[:-3] for name in os.listdir(os.path.dirname(pbrsim.__file__))
        if name.endswith(".py") and name != "__init__.py"
    }
    assert unknown == "module 'pbrsim' has no attribute 'no_such_name'"
    assert set(pbrsim.__all__) <= set(listed)

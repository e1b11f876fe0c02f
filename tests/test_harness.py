"""Experiment runner: sampling, intervals, reports, sweeps, rendering."""

import contextlib
import csv
import dataclasses
import inspect
import io
import itertools
import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pbrsim.cli
import pbrsim.harness
import pbrsim.protocol
import pbrsim.routing
import pbrsim.simulate
from pbrsim.config import DEFAULT_CONFIDENCE
from pbrsim.errors import RangeError, ValidationError
from pbrsim.harness import (
    BIT_ORDER_NOTE,
    ExperimentConfig,
    InputResult,
    analytic_report,
    check_span,
    render_csv,
    render_doc,
    render_json,
    render_sweep_json,
    report_to_dict,
    run_experiment,
    sample_counts,
    sweep_distance,
    wilson_interval,
    _wilson_z,
)
from pbrsim.noise import (
    CalibrationSnapshot,
    CouplerCalibration,
    DEPOLARIZING,
    QubitCalibration,
    THERMODYNAMICAL,
    save_calibration,
    uniform_calibration,
)
from pbrsim.protocol import check_forbidden_outcomes, solved, theta_min
from pbrsim.routing import line_map, lower


def pair_calibration(readout=600e-9):
    return CalibrationSnapshot(
        (
            QubitCalibration(0, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01),
            QubitCalibration(1, 239e-6, 276e-6, 2.8e-4, 36e-9, 0.01, 0.01),
        ),
        (CouplerCalibration(0, 1, 2.4e-3, 68e-9),),
        readout_duration=readout,
    )


def all_pairs_calibration(n):
    t1s, t2s, p1s = (173e-6, 239e-6), (172e-6, 276e-6), (2.1e-4, 2.8e-4)
    qubits = tuple(
        QubitCalibration(i, t1s[i % 2], t2s[i % 2], p1s[i % 2], 36e-9, 0.01, 0.01)
        for i in range(n)
    )
    couplers = tuple(
        CouplerCalibration(a, b, 2.4e-3, 68e-9)
        for a, b in itertools.combinations(range(n), 2)
    )
    return CalibrationSnapshot(qubits, couplers, 600e-9)


def line_calibration(n):
    qubits = tuple(
        QubitCalibration(i, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01)
        for i in range(n)
    )
    couplers = tuple(CouplerCalibration(i, i + 1, 2.4e-3, 68e-9) for i in range(n - 1))
    return CalibrationSnapshot(qubits, couplers, 600e-9)


def test_sample_counts_deterministic():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    a = sample_counts(probs, 1000, 7)
    b = sample_counts(probs, 1000, 7)
    c = sample_counts(probs, 1000, 8)
    assert a.sum() == 1000
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(RangeError):
        sample_counts(probs, -1, 0)


def test_sample_counts_tolerates_tiny_negatives():
    probs = np.array([1.0, -1e-15, 0.0, 1e-16])
    counts = sample_counts(probs, 100, 3)
    assert counts[0] == 100


def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert abs(hi - 0.03699349820698568) < 1e-12
    lo, hi = wilson_interval(360, 100000)
    assert abs(lo - 0.0032473789226612646) < 1e-12
    assert abs(hi - 0.003990757615511177) < 1e-12
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0
    assert lo < 1.0
    assert isinstance(lo, float) and isinstance(hi, float)
    with pytest.raises(RangeError, match=r"^m=0 must be >= 1$"):
        wilson_interval(0, 0)


def test_run_rows_carry_the_public_wilson_interval_and_mean_pass_fraction():
    # The run loop's unchecked helper gives every row the bounds the checked
    # wilson_interval gives its count; pass_fraction is np.mean of the verdicts.
    for n, confidence in ((2, DEFAULT_CONFIDENCE), (3, 0.8), (4, 0.999)):
        cfg = ExperimentConfig(
            n=n, theta=theta_min(n), model=THERMODYNAMICAL, calibration=all_pairs_calibration(n),
            shots=3000, seed=n, confidence=confidence,
        )
        rep = run_experiment(cfg)
        for row in rep.inputs:
            assert (row.ci_low, row.ci_high) == wilson_interval(row.count, cfg.shots, confidence)
            assert type(row.ci_low) is type(row.ci_high) is float
        assert rep.pass_fraction == float(np.mean([row.passed for row in rep.inputs]))
    checks = [True, False, False, True, True, False, True]
    for k in range(1, len(checks) + 1):
        assert sum(checks[:k]) / k == float(np.mean(checks[:k]))


def test_input_result_is_a_frozen_dataclass_of_its_fields():
    # InputResult writes its own fields, which must stay the dataclass's, in order.
    names = [f.name for f in dataclasses.fields(InputResult)]
    assert list(inspect.signature(InputResult).parameters) == names
    values = (3, 0.01, 7, 0.0035, 0.001, 0.006, 0.0056, False)
    row = InputResult(*values)
    assert tuple(getattr(row, name) for name in names) == values
    assert row == InputResult(**dict(zip(names, values)))
    assert hash(row) == hash(InputResult(*values))
    assert replace(row, count=8).count == 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.count = 8


def test_wilson_interval_ordering_and_coverage():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(1, 5000))
        k = int(rng.integers(0, m + 1))
        lo, hi = wilson_interval(k, m)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= k / m <= hi
        lo99, hi99 = wilson_interval(k, m, 0.99)
        assert lo99 <= lo and hi <= hi99


def test_wilson_interval_matches_the_per_call_quantile():
    # z is computed once per confidence; the interval must equal the one
    # built from a fresh NormalDist quantile on every call, bit for bit.
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 10 ** int(rng.integers(1, 19))))
        k = int(rng.integers(0, m + 1))
        conf = float(rng.choice([DEFAULT_CONFIDENCE, 0.9, 0.99, rng.uniform(0.01, 0.999)]))
        z = statistics.NormalDist().inv_cdf(0.5 + conf / 2)
        denom = m + z * z
        center = (k + z * z / 2) / denom
        half = z * np.sqrt(k * (m - k) / m + z * z / 4) / denom
        ref = float(max(0.0, center - half)), float(min(1.0, center + half))
        assert wilson_interval(k, m, conf) == ref


def test_wilson_z_is_the_normal_dist_quantile_bit_for_bit():
    # _wilson_z calls CPython's C AS241, the routine NormalDist.inv_cdf
    # calls, so the run path never imports statistics; statistics stays here
    # as the reference, on a dense grid of confidences and at both ends.
    # 0.5 takes AS241's central branch, 0.95 its tail with r <= 5 and
    # 1 - 1e-12 its far tail (r > 5).
    nd = statistics.NormalDist()
    grid = [k / 100_003 for k in range(1, 100_003)]
    ends = [2.0**-e for e in range(1, 1075)] + [1 - 2.0**-e for e in range(1, 53)]
    for c in grid + ends + [0.5, 0.95, 0.99, 0.999999, 1 - 1e-12, 1e-300]:
        z = _wilson_z(c)
        assert z == nd.inv_cdf(0.5 + c / 2) and math.copysign(1, z) == 1, c
    # 0.5 + c / 2 rounds to 1 for the largest float below 1: the same error.
    c = 1 - 2.0**-53
    with pytest.raises(statistics.StatisticsError) as ref:
        nd.inv_cdf(0.5 + c / 2)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        _wilson_z(c)


# An interpreter without `_statistics`: statistics then runs its own
# Python AS241, and so does _wilson_z through NormalDist. Prints the
# quantiles' bits, the error line at p = 1, one run's exit code and report,
# and whether statistics took the Python copy.
_WITHOUT_C_QUANTILE = """
import contextlib, io, json, sys
sys.modules["_statistics"] = None
import statistics
from pbrsim.cli import main
from pbrsim.harness import _wilson_z

confs, argv = json.loads(sys.argv[1]), json.loads(sys.argv[2])
nd = statistics.NormalDist()
zs = [_wilson_z(c) for c in confs]
assert zs == [nd.inv_cdf(0.5 + c / 2) for c in confs]
try:
    _wilson_z(1 - 2.0**-53)
except ValueError as e:
    line = str(e)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(argv)
python_copy = type(statistics._normal_dist_inv_cdf).__name__ == "function"
print(json.dumps([[z.hex() for z in zs], line, code, out.getvalue(), python_copy]))
"""


def test_wilson_z_without_the_c_quantile_keeps_its_bits_and_reports():
    confs = [k / 2003 for k in range(1, 2003)] + [0.5, 0.95, 0.999999, 1 - 1e-12, 1e-300]
    calib = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "adjacent_pair.json")
    argv = ["run", "--n", "2", "--calib", calib, "--model", "thermo", "--confidence", "0.999999"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(pbrsim.harness.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_QUANTILE, json.dumps(confs), json.dumps(argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    zs, line, code, report, python_copy = json.loads(proc.stdout)
    assert python_copy
    assert zs == [_wilson_z(c).hex() for c in confs]
    with pytest.raises(ValueError) as c_path:
        _wilson_z(1 - 2.0**-53)
    assert line == str(c_path.value) == "p must be in the range 0.0 < p < 1.0"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert pbrsim.cli.main(argv) == code
    assert report == out.getvalue() and report.startswith("{")


def test_experiment_config_validation():
    cal = pair_calibration()
    with pytest.raises(ValidationError, match=r"^unknown noise model 'white'$"):
        ExperimentConfig(n=2, theta=np.pi / 4, model="white", calibration=cal)
    with pytest.raises(ValidationError):
        ExperimentConfig(n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal, shots=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(
            n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal, confidence=1.0
        )
    with pytest.raises(ValidationError):
        ExperimentConfig(n=13, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal)
    with pytest.raises(ValidationError, match=r"seed=-1 must be >= 0"):
        ExperimentConfig(n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal, seed=-1)
    with pytest.raises(ValidationError, match=r"shots=9223372036854775808 must be <="):
        ExperimentConfig(
            n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal, shots=2**63
        )
    with pytest.raises(ValidationError):
        ExperimentConfig(
            n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal, placement=(0, 1)
        )
    with pytest.raises(ValidationError, match=r"^routing applies to the two-qubit test only$"):
        ExperimentConfig(
            n=3, theta=1.0, model=DEPOLARIZING, calibration=line_calibration(3),
            coupling=line_map(3), placement=(0, 1),
        )
    # n, shots and seed are integers: not bools, not floats, even integral ones.
    for field, value in (
        ("shots", 1000.7), ("shots", 1000.0), ("shots", True), ("seed", 3.0), ("seed", False),
        ("seed", np.float64(3)), ("seed", np.bool_(True)), ("seed", "3"), ("n", 2.0),
        ("n", True), ("n", None),
    ):
        with pytest.raises(ValidationError, match=f"^{field}=.* must be an integer$"):
            ExperimentConfig(
                **{"n": 2, "theta": np.pi / 4, "model": DEPOLARIZING, "calibration": cal,
                   field: value}
            )
    # numpy integers are accepted and stored as ints, so the report renders.
    cfg = ExperimentConfig(
        n=np.int8(2), theta=np.pi / 4, model=DEPOLARIZING, calibration=cal,
        shots=np.uint64(500), seed=np.int64(2**40),
    )
    assert (cfg.n, cfg.shots, cfg.seed) == (2, 500, 2**40)
    assert all(type(v) is int for v in (cfg.n, cfg.shots, cfg.seed))
    doc = json.loads(render_json(run_experiment(cfg)))
    assert (doc["shots"], doc["seed"]) == (500, 2**40)
    # theta and confidence are real numbers: not bools, strings or complex.
    for field, value in (
        ("theta", True), ("theta", np.bool_(True)), ("theta", "0.8"), ("theta", None),
        ("theta", 0.8 + 0j), ("theta", np.complex128(0.8)), ("theta", np.array(0.8)),
        ("confidence", False), ("confidence", "0.95"), ("confidence", None),
        ("confidence", np.bool_(True)),
    ):
        with pytest.raises(ValidationError, match=f"^{field}=.* must be a real number$"):
            ExperimentConfig(
                **{"n": 2, "theta": np.pi / 4, "model": DEPOLARIZING, "calibration": cal,
                   field: value}
            )
    # numpy scalars are stored as the Python number they equal, so the
    # report renders; Python ints and floats are kept as given.
    cfg = ExperimentConfig(
        n=2, theta=np.float32(0.8), model=DEPOLARIZING, calibration=cal,
        confidence=np.float32(0.95),
    )
    assert type(cfg.theta) is float and type(cfg.confidence) is float
    assert (cfg.theta, cfg.confidence) == (float(np.float32(0.8)), float(np.float32(0.95)))
    doc = json.loads(render_json(run_experiment(cfg)))
    assert (doc["theta"], doc["confidence"]) == (cfg.theta, cfg.confidence)
    cfg = ExperimentConfig(n=2, theta=np.float64(0.8), model=DEPOLARIZING, calibration=cal)
    assert type(cfg.theta) is float and cfg.theta == 0.8
    cfg = ExperimentConfig(n=2, theta=np.int64(1), model=DEPOLARIZING, calibration=cal)
    assert type(cfg.theta) is int and cfg.theta == 1
    cfg = ExperimentConfig(n=2, theta=1, model=DEPOLARIZING, calibration=cal, confidence=0.9)
    assert type(cfg.theta) is int and type(cfg.confidence) is float
    assert '"theta": 1,' in render_json(run_experiment(cfg))


def test_shots_at_the_int64_limit_still_sample():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=2**63 - 1, seed=3,
    )
    rep = run_experiment(cfg)
    for row in rep.inputs:
        assert 0 < row.count < cfg.shots
        assert abs(row.estimate - row.exact_probability) < 1e-6


def test_run_experiment_two_qubits():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=20000, seed=7,
    )
    rep = run_experiment(cfg)
    assert rep.n == 2
    assert not rep.analytic_only
    assert rep.g1 == 6 and rep.g2 == 1
    assert len(rep.inputs) == 4
    for r in rep.inputs:
        # exact forbidden probability for this device sits in the
        # readout-dominated window
        assert abs(r.exact_probability - 0.005870165948201611) < 1e-12
        assert 0 <= r.ci_low <= r.estimate <= r.ci_high <= 1
        assert r.tolerance == pytest.approx(0.02147198764367157, abs=1e-12)
        assert r.passed
        assert r.passed == (r.ci_high < r.tolerance)
    assert rep.passed == all(r.passed for r in rep.inputs)
    assert rep.pass_fraction == float(np.mean([r.passed for r in rep.inputs]))
    assert rep.passed
    assert rep.pass_fraction == 1.0


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=5000, seed=42,
    )
    a = render_json(run_experiment(cfg))
    b = render_json(run_experiment(cfg))
    assert a == b
    cfg2 = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=5000, seed=43,
    )
    assert render_json(run_experiment(cfg2)) != a


def test_run_experiment_thermo_five_qubits():
    cfg = ExperimentConfig(
        n=5, theta=theta_min(5), model=THERMODYNAMICAL,
        calibration=all_pairs_calibration(5), shots=4000, seed=11,
    )
    rep = run_experiment(cfg)
    assert report_to_dict(rep)["forbidden_map"] == {f"{x:05b}": f"{x:05b}" for x in range(32)}
    assert len(rep.inputs) == 32
    assert rep.mean_forbidden_exact < rep.active_tolerance


def record_evolved_rows(monkeypatch):
    """The number of rows of each chunk the simulator evolves, from a cold check cache."""
    check_forbidden_outcomes.cache_clear()
    rows = []
    real = pbrsim.simulate._chunks

    def counted(schedule, total):
        for rho in real(schedule, total):
            rows.append(len(rho))
            yield rho

    monkeypatch.setattr(pbrsim.simulate, "_chunks", counted)
    return rows


def test_run_evolves_one_row_per_circuit(monkeypatch):
    # The forbidden outcomes are closed-form, and every frame of an unplaced
    # run reaches its suffix: the ideal circuit (the simulator spot-check)
    # and the noisy one are each evolved once, as one row, for all 32 inputs.
    # The spot-check is cached per (n, theta), so a second run at the same
    # angles evolves only its noisy circuit.
    rows = record_evolved_rows(monkeypatch)
    runs = (
        (DEPOLARIZING, theta_min(5), [1, 1]),
        (THERMODYNAMICAL, theta_min(5), [1]),
        (THERMODYNAMICAL, 1.1 * theta_min(5), [1, 1]),
    )
    for model, theta, evolved in runs:
        rows.clear()
        cfg = ExperimentConfig(
            n=5, theta=theta, model=model,
            calibration=all_pairs_calibration(5), shots=4000, seed=11,
        )
        rep = run_experiment(cfg)
        assert rows == evolved
        assert len(rep.inputs) == 32


@pytest.mark.parametrize("model", [DEPOLARIZING, THERMODYNAMICAL])
def test_placed_run_evolves_two_rows(model, monkeypatch):
    # The SWAPs that route the pair meet the moved qubit's frame with an H:
    # that frame branches the noisy circuit's rows, and the other is read.
    # The ideal spot-check is unrouted and evolves one row.
    rows = record_evolved_rows(monkeypatch)
    line = line_map(5)
    cfg = ExperimentConfig(
        n=2, theta=theta_min(2), model=model,
        calibration=uniform_calibration(5, p1=2e-4, p2=2.4e-3, edges=line.edges),
        shots=4000, seed=11, coupling=line, placement=(0, 4),
    )
    rep = run_experiment(cfg)
    assert rows == [1, 2]
    assert len(rep.inputs) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reseeded_runs_evolve_nothing_and_match_a_cleared_memo(n, monkeypatch):
    # A configuration's exact probabilities depend on its objects alone: a
    # run under a new seed, shot count or confidence draws from the kept
    # table and evolves no row. Each report equals, byte for byte, the same
    # run made from an empty memo, which evolves its noisy circuit again.
    rows = record_evolved_rows(monkeypatch)
    cal = all_pairs_calibration(n)
    changes = (
        dict(seed=12),
        dict(shots=999),
        dict(confidence=0.9),
        dict(seed=2**40, shots=10**9, confidence=0.5),
    )
    for model in (DEPOLARIZING, THERMODYNAMICAL):
        base = ExperimentConfig(
            n=n, theta=theta_min(n), model=model, calibration=cal, shots=4000, seed=11,
        )
        run_experiment(base)
        rows.clear()
        kept = [render_json(run_experiment(replace(base, **change))) for change in changes]
        assert rows == []
        fresh = []
        for change in changes:
            pbrsim.harness._CONFIGURATIONS.clear()
            fresh.append(render_json(run_experiment(replace(base, **change))))
        assert rows == [1] * len(changes)
        assert kept == fresh


def test_placed_run_evolves_on_every_call(monkeypatch):
    # A placed run lowers its circuit afresh, so its new circuit object
    # misses the memo: each call evolves the routed pair's two rows again.
    rows = record_evolved_rows(monkeypatch)
    line = line_map(5)
    cfg = ExperimentConfig(
        n=2, theta=theta_min(2), model=DEPOLARIZING,
        calibration=uniform_calibration(5, p1=2e-4, p2=2.4e-3, edges=line.edges),
        shots=4000, seed=11, coupling=line, placement=(0, 4),
    )
    first = render_json(run_experiment(cfg))
    rows.clear()
    assert render_json(run_experiment(cfg)) == first
    run_experiment(replace(cfg, seed=12))
    assert rows == [2, 2]


def test_run_memo_keeps_at_most_one_chunk_of_bytes_per_entry(monkeypatch):
    # A table past one evolution chunk's bytes (16 * CHUNK_ENTRIES, n >= 8)
    # is not kept, so no wide table outlives its run. Only the memo is looked
    # at, so the forbidden-outcome checks are skipped.
    monkeypatch.setattr(pbrsim.harness, "check_forbidden_outcomes", lambda params: None)
    pbrsim.harness._CONFIGURATIONS.clear()
    bound = 16 * pbrsim.simulate.CHUNK_ENTRIES
    assert bound == 128 * 1024
    for n in (3, 7, 8, 11):
        cfg = ExperimentConfig(
            n=n, theta=theta_min(n), model=THERMODYNAMICAL,
            calibration=uniform_calibration(n, p1=1e-4, p2=1e-3, p01=0.01, p10=0.02),
            shots=1000,
        )
        assert len(run_experiment(cfg).inputs) == 2**n
    kept = pbrsim.harness._CONFIGURATIONS.items()
    arrays = [value[1] for _, value in kept]
    assert [a.shape for a in arrays] == [(8, 8), (128, 128)]
    assert arrays[1].nbytes == bound
    assert sum(a.nbytes for a in arrays) <= 4 * bound


def _run_on_table(monkeypatch, table, shots, seed):
    """run_experiment at n = log2(rows) with the noisy table replaced."""
    n = len(table).bit_length() - 1
    monkeypatch.setattr(pbrsim.harness, "_table", lambda plan: table)
    cfg = ExperimentConfig(
        n=n, theta=theta_min(n), model=DEPOLARIZING,
        calibration=all_pairs_calibration(n), shots=shots, seed=seed,
    )
    return run_experiment(cfg)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_run_samples_the_table_like_per_row_sample_counts(n, monkeypatch):
    # The run normalizes the whole table at once; every input's count must
    # still be bit-for-bit the per-row sample_counts draw.
    rng = np.random.default_rng(100 + n)
    for shots in (1, 2000, 10**12, 2**63 - 1):
        table = rng.dirichlet(np.full(2**n, 0.5), size=2**n)
        # roundoff from the evolution: tiny negatives and entries a hair over
        # 1, which outcome_distributions returns clipped to [0, 1]
        table[rng.random(table.shape) < 0.2] = -1e-17
        table[0, 0] = 1.0 + 4e-16
        table = table.clip(0.0, 1.0)
        # one to four 32-bit words of seed entropy
        for seed in (int(rng.integers(0, 2**32)), 2**32, 2**64 + 7, 10**30):
            rep = _run_on_table(monkeypatch, table, shots, seed)
            for x, row in enumerate(rep.inputs):
                assert row.count == sample_counts(table[x], shots, (seed, x))[x]
                assert row.exact_probability == table[x, x]


def test_run_rejects_a_zero_sum_row_like_sample_counts(monkeypatch):
    table = np.full((4, 4), 0.25)
    table[2] = [0.0, -1e-17, 0.0, -2e-18]
    with pytest.raises(RangeError, match="^distribution sums to zero$"):
        sample_counts(table[2], 100, 0)
    with pytest.raises(RangeError, match="^distribution sums to zero$"):
        _run_on_table(monkeypatch, table, 100, 0)


def test_report_json_shape():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=2000, seed=1,
    )
    rep = run_experiment(cfg)
    doc = json.loads(render_json(rep))
    assert doc["kind"] == "pbr-experiment"
    assert doc["bit_order"] == BIT_ORDER_NOTE
    assert doc["forbidden_map"] == {"00": "00", "01": "01", "10": "10", "11": "11"}
    assert doc["gate_counts"] == {"g1": 6, "g2": 1}
    assert {r["input"] for r in doc["inputs"]} == {"00", "01", "10", "11"}
    assert set(doc["tolerances"]) == {"active", "depolarizing", "thermodynamical"}
    # serialized twice gives identical bytes (sorted keys, fixed indent)
    assert render_json(rep) == render_json(rep)


def test_render_csv_layout():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=pair_calibration(),
        shots=2000, seed=1,
    )
    rep = run_experiment(cfg)
    text = render_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "span,input,forbidden,exact_probability,count,estimate,"
        "ci_low,ci_high,tolerance,predicted_error,pass"
    )
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[1] == "00" and first[2] == "00"


def test_routed_run_matches_span_overhead():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(5),
        coupling=None, placement=None, shots=2000, seed=5,
    )
    base = run_experiment(cfg)
    routed_cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(5),
        coupling=line_map(5), placement=(0, 3), shots=2000, seed=5,
    )
    rep = run_experiment(routed_cfg)
    assert rep.span == 3
    assert rep.swap_count == 2
    assert rep.g1 == base.g1 + 12 and rep.g2 == base.g2 + 6
    assert rep.mean_forbidden_exact > base.mean_forbidden_exact


@pytest.mark.parametrize("model", [DEPOLARIZING, THERMODYNAMICAL])
def test_run_routes_and_attaches_noise_once(model, monkeypatch):
    # The inputs differ only in their angles, so one circuit serves every input.
    # Input 0's circuit is built once per (n, theta) per process, and the
    # forbidden-outcome check reads that one: with both caches cold, a run
    # builds it once, a repeat at the same angles not at all.
    solved.cache_clear()
    check_forbidden_outcomes.cache_clear()
    calls = {"lower": 0, "attach_noise": 0, "build_test_circuit": 0}
    for module, name in (
        (pbrsim.routing, "lower"),
        (pbrsim.harness, "attach_noise"),
        (pbrsim.protocol, "build_test_circuit"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=model, calibration=line_calibration(5),
        coupling=line_map(5), placement=(0, 3), shots=2000, seed=5,
    )
    run_experiment(cfg)
    assert calls == {"lower": 1, "attach_noise": 1, "build_test_circuit": 1}
    run_experiment(cfg)
    assert calls == {"lower": 2, "attach_noise": 2, "build_test_circuit": 1}
    run_experiment(replace(cfg, theta=1.1 * np.pi / 4))
    assert calls == {"lower": 3, "attach_noise": 3, "build_test_circuit": 2}


def spread_line_calibration(n):
    """A line whose qubits and couplers all differ, so any mix-up shows."""
    qubits = tuple(
        QubitCalibration(
            i, (150 + 17 * i) * 1e-6, (120 + 11 * i) * 1e-6, (2 + 0.3 * i) * 1e-4,
            (30 + 2 * i) * 1e-9, 0.008 + 0.002 * i, 0.012 - 0.001 * i,
        )
        for i in range(n)
    )
    couplers = tuple(
        CouplerCalibration(i, i + 1, (2 + 0.4 * i) * 1e-3, (60 + 5 * i) * 1e-9)
        for i in range(n - 1)
    )
    return CalibrationSnapshot(qubits, couplers, 600e-9)


@pytest.mark.parametrize("placement", [(2, 3), (4, 3)])
def test_adjacent_placement_runs_as_the_relabelled_pair(placement):
    # Lowering an adjacent pair only relabels qubits: the placed run sees the
    # same gates, channels and readout as an unplaced run on the two placed
    # qubits' calibration. eps_dec averages every coupler on the device, so
    # only the tolerance that judges the run is compared.
    cal = spread_line_calibration(6)
    a, b = placement
    qa, qb = cal.qubit(a), cal.qubit(b)
    coupler = cal.coupler(a, b)
    pair = CalibrationSnapshot(
        (replace(qa, id=0), replace(qb, id=1)),
        (CouplerCalibration(0, 1, coupler.p2, coupler.duration),),
        cal.readout_duration,
    )
    for model, theta in itertools.product((DEPOLARIZING, THERMODYNAMICAL), (np.pi / 4, 1.0, 1.2)):
        placed = run_experiment(ExperimentConfig(
            n=2, theta=theta, model=model, calibration=cal,
            coupling=line_map(6), placement=placement, shots=5000, seed=11,
        ))
        unplaced = run_experiment(ExperimentConfig(
            n=2, theta=theta, model=model, calibration=pair, shots=5000, seed=11,
        ))
        assert (placed.span, placed.swap_count) == (1, 0)
        assert placed.inputs == unplaced.inputs
        assert placed.active_tolerance == unplaced.active_tolerance


def test_uniform_line_is_its_own_homogenized_line():
    # 0.01 and 2.1e-4 are not powers of two, so a plain mean over 155 qubits
    # would move them in the last digit.
    cal = uniform_calibration(155, p1=2.1e-4, p01=0.01, edges=line_map(155).edges)
    for model in (DEPOLARIZING, THERMODYNAMICAL):
        cfg = ExperimentConfig(
            n=2, theta=np.pi / 4, model=model, calibration=cal,
            coupling=line_map(155), placement=(0, 5), shots=2000, seed=3,
        )
        assert render_json(run_experiment(cfg)) == render_json(sweep_distance(cfg, [5])[0])


def test_analytic_report_for_long_span(monkeypatch):
    # Powers of two average exactly over any line length, so the sweep's
    # homogenized line is this very calibration.
    cal = uniform_calibration(
        155, t1=2.0**-13, t2=2.0**-13, p1=2.0**-12, p2=2.0**-9, p01=2.0**-7,
        p10=2.0**-7, single=2.0**-25, two=2.0**-24, readout=2.0**-21,
        edges=line_map(155).edges,
    )
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=cal,
        coupling=line_map(155), placement=(0, 154), shots=2000, seed=3,
    )
    lowerings = []

    def recording(*args):
        lowerings.append(lower(*args))
        return lowerings[-1]

    monkeypatch.setattr(pbrsim.routing, "lower", recording)
    rep = analytic_report(cfg)
    assert render_json(rep) == render_json(sweep_distance(cfg, [154])[0])
    # span and swap count are read off the lowering, not written by hand;
    # the analytic report and the sweep lower once each
    (_, span, swap_count), _ = lowerings
    assert rep.span == span == 154
    assert rep.swap_count == swap_count == 153
    assert rep.placement == cfg.placement
    assert rep.analytic_only
    assert rep.g1 == 6 + 153 * 6 and rep.g2 == 1 + 153 * 3
    assert rep.inputs == ()
    assert 0.0 < rep.predicted_error <= 1.0
    assert not rep.passed  # a 154-edge span cannot beat the tolerance
    assert rep.passed == (rep.predicted_error < rep.active_tolerance)
    doc = json.loads(render_json(rep))
    assert doc["analytic_only"] is True
    assert doc["predicted_error"] == rep.predicted_error
    text = render_csv(rep)
    lines = text.strip().split("\n")
    assert len(lines) == 2  # header plus one summary row


def test_sweep_distance_monotone():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(12),
        shots=2000, seed=3,
    )
    reports = sweep_distance(cfg, (1, 2, 3))
    means = [r.mean_forbidden_exact for r in reports]
    assert all(b > a for a, b in zip(means, means[1:]))
    assert [r.span for r in reports] == [1, 2, 3]
    doc = json.loads(render_sweep_json(reports))
    assert doc["kind"] == "pbr-distance-sweep"
    assert len(doc["reports"]) == 3
    csv_lines = render_csv(reports).strip().split("\n")
    assert len(csv_lines) == 1 + 3 * 4


def test_sweep_distance_over_cap_goes_analytic():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(12),
        shots=2000, seed=3,
    )
    reports = sweep_distance(cfg, (2, 12))
    assert not reports[0].analytic_only
    assert reports[1].analytic_only
    assert reports[1].span == 12


def test_sweep_distance_validation(monkeypatch):
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(4),
        shots=100, seed=0,
    )

    def never(*args):
        raise AssertionError("ran a span before every span was checked")

    monkeypatch.setattr("pbrsim.harness.run_experiment", never)
    monkeypatch.setattr("pbrsim.harness.analytic_report", never)
    for spans in ((0, 1), (1, 1001), (154, 10**8)):
        with pytest.raises(RangeError):
            sweep_distance(cfg, spans)
    # A bool used to run as span 1 and render as `true` in the placement; a
    # float raised a bare TypeError.
    for spans in ([True], [2.0], [1, np.float64(2)], [np.bool_(True)], ["2"], [None]):
        with pytest.raises(RangeError, match=r"^span .* must be an integer$"):
            sweep_distance(cfg, spans)
    with pytest.raises(ValidationError, match=r"^distance sweeps run the two-qubit test$"):
        sweep_distance(replace(cfg, n=3, theta=1.0), (1,))


def test_sweep_runs_numpy_integer_spans_as_ints():
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(4),
        shots=100, seed=0,
    )
    assert type(check_span(np.int64(2))) is int
    text = render_sweep_json(sweep_distance(cfg, [np.int64(2)]))
    assert text == render_sweep_json(sweep_distance(cfg, [2]))
    assert json.loads(text)["reports"][0]["routing"]["placement"] == [0, 2]


def test_placement_is_two_integers_stored_as_ints():
    # A list used to fail inside the run memo (unhashable), numpy ints failed
    # to render, a bool rendered as `true`, and three qubits failed to unpack.
    line = line_map(4)
    base = dict(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(4),
        shots=100, seed=1, coupling=line,
    )
    expected = render_json(run_experiment(ExperimentConfig(**base, placement=(0, 3))))
    for placement in ([0, 3], (np.int64(0), np.int64(3)), (np.uint8(0), 3)):
        cfg = ExperimentConfig(**base, placement=placement)
        assert cfg.placement == (0, 3) and all(type(q) is int for q in cfg.placement)
        assert render_json(run_experiment(cfg)) == expected
    refused = (
        (True, 3), (0, np.bool_(False)), (0.0, 3), (0, 3.0), ("0", "3"), "03", b"\x00\x03",
        (0,), (0, 3, 1), [], 3, {0: 3},
    )
    for placement in refused:
        with pytest.raises(ValidationError, match=r"^placement=.* must be two integers$"):
            ExperimentConfig(**base, placement=placement)


def test_coupling_must_be_a_coupling_map():
    # Anything but a CouplingMap is one ValidationError line, placed or not,
    # before routing could meet it.
    base = dict(
        n=2, theta=np.pi / 4, model=DEPOLARIZING, calibration=line_calibration(4),
        shots=100, seed=1, placement=(0, 3),
    )
    for coupling, name in ((((0, 1), (1, 2), (2, 3)), "tuple"), ("0-1,1-2,2-3", "str")):
        for placement in ((0, 3), None):
            with pytest.raises(
                ValidationError, match=f"^coupling must be a CouplingMap, not {name}$"
            ):
                ExperimentConfig(**{**base, "placement": placement}, coupling=coupling)
    assert ExperimentConfig(**base, coupling=line_map(4)).coupling == line_map(4)


def stdlib_render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("model", [DEPOLARIZING, THERMODYNAMICAL])
def test_experiment_reports_render_as_stdlib_bytes(model):
    # The goldens compare parsed JSON; these pin the whitespace as well.
    for n in range(2, 9):
        cfg = ExperimentConfig(
            n=n, theta=theta_min(n), model=model, calibration=all_pairs_calibration(n),
            shots=2000, seed=n,
        )
        rep = run_experiment(cfg)
        assert render_json(rep) == stdlib_render(report_to_dict(rep))
    # An integer theta, a non-default confidence, a seed past 2^40, rows that
    # mix pass and fail, reversed and far placements, and analytic reports.
    line = ExperimentConfig(
        n=2, theta=1, model=model, calibration=line_calibration(156), shots=2000,
        seed=2**40 + 5, confidence=0.9, coupling=line_map(156), placement=(3, 0),
    )
    unplaced = replace(line, calibration=all_pairs_calibration(2), coupling=None, placement=None)
    reports = [
        run(cfg)
        for cfg in (unplaced, line, replace(line, placement=(154, 2)))
        for run in (run_experiment, analytic_report)
    ]
    assert [r.span for r in reports] == [None, None, 3, 3, 152, 152]
    assert any(0 < r.pass_fraction < 1 for r in reports)
    assert '\n  "theta": 1,\n' in render_json(reports[0])
    for rep in reports:
        assert render_json(rep) == stdlib_render(report_to_dict(rep))


@pytest.mark.parametrize("model", [DEPOLARIZING, THERMODYNAMICAL])
def test_sweep_reports_render_as_stdlib_bytes(model):
    cfg = ExperimentConfig(
        n=2, theta=np.pi / 4, model=model, calibration=line_calibration(12), shots=2000, seed=3,
    )
    for spans in ((1, 2, 3, 154), ()):
        reports = sweep_distance(cfg, spans)
        assert [r.analytic_only for r in reports] == [s == 154 for s in spans]
        doc = {"kind": "pbr-distance-sweep", "reports": [report_to_dict(r) for r in reports]}
        assert render_sweep_json(reports) == stdlib_render(doc)
    assert render_sweep_json([]).endswith('"reports": []\n}\n')


def test_cli_documents_render_as_stdlib_bytes(tmp_path, monkeypatch, capsys):
    docs = []

    def recording(doc):
        docs.append(doc)
        return render_doc(doc)

    # save_calibration writes through render_doc too: before the recording.
    path = tmp_path / "cal.json"
    save_calibration(all_pairs_calibration(5), path)
    # The CLI's commands import render_doc from harness when they run.
    monkeypatch.setattr(pbrsim.harness, "render_doc", recording)
    for n in (2, 5):
        assert pbrsim.cli.main(["solve-angles", "--n", str(n)]) == 0
        for model in ("dep", "thermo"):
            argv = ["tolerance", "--n", str(n), "--calib", str(path), "--model", model]
            assert pbrsim.cli.main(argv) == 0
    assert [d["kind"] for d in docs] == ["pbr-angles", "pbr-tolerance", "pbr-tolerance"] * 2
    assert capsys.readouterr().out == "".join(stdlib_render(d) for d in docs)


EDGE_DOCS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    {"a": [{}], "b": [[]], "c": [{}, [], ()], "d": {"e": {}, "f": [[], {}]}},
    # {} among flat dicts, and flat dicts that end on an empty container
    [{}, {"a": 1}, {"b": [], "c": {}}],
    [{"a": 1, "b": {}}, {"c": [], "d": 2.5}, {"e": ()}],
    {"deep": {"er": [{"x": 1, "y": {}}, {"x": 2}]}},
    {"x": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, None, True, False, 1, -7, 1e300]},
    {"t": (1, (2, {"u": ()}), ("v",)), "nan": float("nan")},
    {"s": "\u00e9 \u2603 \U0001F600", "ctl": "\t\n\r\x00\x1f\\\"", "\u00fc": ["\u00e9"]},
    # a string that spells a dict boundary of the inputs list
    {"inputs": [{"s": '"},\n      {"', "n": 1}, {"s": "},\n      {", "n": 2}], "t": '"},\n      {"'},
    [[1, [2, [3, [4]]]], {"a": {"b": {"c": {"d": [5]}}}}],
    {1: "int key", 2.5: {"float": [1]}, -3: [], 0: {}},
    1.5,
    -0.0,
    "text",
    None,
    float("nan"),
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_edge_documents_render_as_stdlib_bytes(doc):
    assert render_doc(doc) == stdlib_render(doc)


def test_render_doc_rejects_what_json_rejects():
    for doc in ({"a": object()}, {"a": {"b": [object()]}}, {(1, 2): 1}, {"a": {(1, 2): [1]}}):
        with pytest.raises(TypeError):
            stdlib_render(doc)
        with pytest.raises(TypeError):
            render_doc(doc)


def test_csv_rows_are_the_json_input_rows():
    cfg = ExperimentConfig(
        n=3, theta=theta_min(3), model=THERMODYNAMICAL, calibration=all_pairs_calibration(3),
        shots=2000, seed=4,
    )
    rep = run_experiment(cfg)
    rows = list(csv.DictReader(io.StringIO(render_csv(rep))))
    refs = report_to_dict(rep)["inputs"]
    assert len(rows) == len(refs) == 8
    for row, ref in zip(rows, refs):
        assert row == {"span": "", "predicted_error": "", **{k: str(v) for k, v in ref.items()}}

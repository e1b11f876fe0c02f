"""Circuit evolution: qubit lifetimes and Z frames against a dense reference, cap, marginals, ordering."""

import inspect
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pbrsim.harness
import pbrsim.noise
import pbrsim.simulate
from dense_reference import dense_distribution, dense_state, lifetime_distribution
from pbrsim.circuits import (
    ANGLED_KINDS,
    CPHASE_OPEN,
    CZ,
    Circuit,
    Gate,
    H,
    MCPHASE_OPEN,
    MEASURE,
    NOISE,
    PHASE,
    RY,
    RZ,
    SX,
    X,
    cz_pairs,
    decompose_swap,
)
from pbrsim.config import mcphase_cz_equivalents
from pbrsim.errors import CalibrationError, CapError, ValidationError
from pbrsim.harness import ExperimentConfig, run_experiment, sweep_distance
from pbrsim.noise import (
    NOISE_MODELS,
    CalibrationSnapshot,
    CouplerCalibration,
    QubitCalibration,
    amplitude_damping,
    attach_noise,
    dephasing,
    depolarizing_channel,
    readout_matrix,
    uniform_calibration,
)
from pbrsim.protocol import PBRParams, build_test_circuit, check_forbidden_outcomes, theta_min
from pbrsim.routing import line_map, lower
from pbrsim.simulate import (
    _apply,
    _branched,
    _compose,
    _frame_rows,
    _gate_operator,
    _kernel_axes,
    _operator,
    _operators,
    _plan,
    _table,
    _walk,
    _z_covariant,
    outcome_distribution,
    outcome_distributions,
)
from pbrsim.states import KrausChannel
from readout_reference import apply_readout
from simulated_reference import evolve

DIFF_TOL = 1e-12


def final_state(c):
    """The simulator's full n-qubit final state, every qubit kept in index order."""
    return next(evolve(c, tuple(range(c.n_qubits))))[0]


# Z as a one-operator channel, so the dense reference applies it exactly.
Z_FRAME = KrausChannel([np.diag([1.0, -1.0])])


def framed_circuit(c, frames, x):
    """`c` with a Z right after the first gate on qubit frames[j], for each set bit j of x.

    frames[0] is the most significant bit of x.
    """
    flipped = {q for j, q in enumerate(frames) if x >> (len(frames) - 1 - j) & 1}
    gates, seen = [], set()
    for g in c.gates:
        gates.append(g)
        gates += [Gate(NOISE, (q,), channel=Z_FRAME) for q in g.qubits if q in flipped - seen]
        seen.update(g.qubits)
    return Circuit(c.n_qubits, tuple(gates))


def random_frames(rng, c, most=4):
    """Up to `most` of the qubits that some gate of `c` acts on, in random order."""
    touched = sorted({q for g in c.gates if g.kind != MEASURE for q in g.qubits})
    k = int(rng.integers(0, min(len(touched), most) + 1))
    return tuple(int(q) for q in rng.permutation(touched)[:k])


def assert_rows_match_dense(c, frames):
    """Each row of `c` under `frames` is its framed circuit's dense distribution."""
    got = outcome_distributions(c, frames)
    assert got.shape == (2 ** len(frames), 2 ** len(c.measured_qubits or range(c.n_qubits)))
    for x, row in enumerate(got):
        assert np.abs(row - dense_distribution(framed_circuit(c, frames, x))).max() < DIFF_TOL


def random_noisy_circuit(rng, n):
    """Random gates and channels on a random subset of n qubits.

    The other qubits stay untouched; a random subset of all n qubits is
    measured in random order, or none.
    """
    touched = [int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    gates = []
    for _ in range(int(rng.integers(1, 13))):
        pick = rng.random()
        if len(touched) == 1 or pick < 0.5:
            kind = (H, X, SX, RY, RZ, PHASE)[int(rng.integers(6))]
            qs = (touched[int(rng.integers(len(touched)))],)
        elif pick < 0.85:
            kind = (CZ, "swap", CPHASE_OPEN)[int(rng.integers(3))]
            qs = tuple(int(q) for q in rng.permutation(touched)[:2])
        else:
            kind = MCPHASE_OPEN
            k = int(rng.integers(2, len(touched) + 1))
            qs = tuple(int(q) for q in rng.permutation(touched)[:k])
        angle = float(rng.uniform(-np.pi, np.pi)) if kind in ANGLED_KINDS else None
        if kind == "swap":
            gates.extend(decompose_swap(*qs))
        else:
            gates.append(Gate(kind, qs, angle=angle))
        if rng.random() < 0.6:
            p = float(rng.uniform(0, 0.4))
            choice = int(rng.integers(4))
            if choice == 0 and len(qs) >= 2:
                gates.append(Gate(NOISE, qs[:2], channel=depolarizing_channel(p, 2)))
            elif choice == 1:
                gates.append(Gate(NOISE, qs[-1:], channel=amplitude_damping(p)))
            elif choice == 2:
                gates.append(Gate(NOISE, qs[:1], channel=dephasing(p)))
            else:
                gates.append(Gate(NOISE, qs[:1], channel=depolarizing_channel(p, 1)))
    if rng.random() < 0.8:
        measured = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        gates.append(Gate(MEASURE, tuple(int(q) for q in measured)))
    return Circuit(n, tuple(gates))


def test_lifetime_evolution_matches_dense_reference():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        c = random_noisy_circuit(rng, int(rng.integers(1, 7)))
        ref = dense_distribution(c)
        got = outcome_distribution(c)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < DIFF_TOL
        assert np.abs(final_state(c) - dense_state(c)).max() < DIFF_TOL


@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize("span", range(1, 10))
def test_routed_pbr_circuits_match_dense_reference(span, model):
    # One input per span, cycling through all four, as its own circuit and as
    # a row of input 0's circuit under frames; dense span 9 takes ~20 s.
    params = PBRParams.solve(2, np.pi / 4)
    line = line_map(span + 1)
    cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)

    def noisy(x):
        return attach_noise(lower(build_test_circuit(x, params), line, (0, span))[0], cal, model)

    ref = dense_distribution(noisy(span % 4))
    assert np.abs(outcome_distribution(noisy(span % 4)) - ref).max() < DIFF_TOL
    # Past span 1 the decomposed SWAPs' H meets logical 0's frame, which
    # branches the rows at the start; logical 1's frame is read.
    base = noisy(0)
    assert _branched(_walk(base), base.measured_qubits, (0, span)) == (() if span == 1 else (0,))
    assert np.abs(outcome_distributions(base, (0, span))[span % 4] - ref).max() < DIFF_TOL


def test_lifetime_reference_matches_dense_reference():
    # The reference for spans whose full register is too wide for
    # `dense_distribution` agrees with it where both fit.
    rng = np.random.default_rng(35)
    for _ in range(200):
        c = random_noisy_circuit(rng, int(rng.integers(1, 7)))
        assert np.abs(lifetime_distribution(c) - dense_distribution(c)).max() < DIFF_TOL


@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize("span", range(12, 21))
def test_routed_pairs_past_the_cap_match_lifetime_reference(span, model):
    # Past the cap the line has more qubits than the cap, but a routed pair
    # holds three live ones: every input's row of input 0's framed table is
    # its own circuit under the lifetime reference.
    params = PBRParams.solve(2, np.pi / 4)
    line = line_map(span + 1)
    cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
    noisy = [
        attach_noise(lower(build_test_circuit(x, params), line, (0, span))[0], cal, model)
        for x in range(4)
    ]
    got = outcome_distributions(noisy[0], (0, span))
    for x, c in enumerate(noisy):
        assert np.abs(got[x] - lifetime_distribution(c)).max() < DIFF_TOL


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_exact_means_past_the_cap_grow_with_span(model):
    # Placed runs are exact at any span up to MAX_SPAN: each SWAP adds
    # error, so the mean forbidden probability does not fall.
    means = []
    for span in (12, 20, 40, 80, 154):
        line = line_map(span + 1)
        cfg = ExperimentConfig(
            n=2,
            theta=np.pi / 4,
            model=model,
            calibration=uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges),
            shots=2000,
            seed=6,
            coupling=line,
            placement=(0, span),
        )
        report = run_experiment(cfg)
        assert not report.analytic_only and report.span == span
        means.append(report.mean_forbidden_exact)
    assert all(b >= a for a, b in zip(means, means[1:])), means


def record_evolved_rows(monkeypatch):
    """The number of rows of each chunk that `outcome_distributions` evolves."""
    rows = []
    real = pbrsim.simulate._chunks

    def counted(schedule, total):
        for rho in real(schedule, total):
            rows.append(len(rho))
            yield rho

    monkeypatch.setattr(pbrsim.simulate, "_chunks", counted)
    return rows


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_routed_pair_branches_only_the_moved_frame(model, monkeypatch):
    # The SWAPs that move logical 0 next to logical 1 meet its frame with an
    # H; logical 1's frame meets only diagonal gates, X and Z-covariant
    # channels before its suffix. So a routed pair evolves two rows, and an
    # adjacent one a single row.
    rows = record_evolved_rows(monkeypatch)
    params = PBRParams.solve(2, theta_min(2))
    for span in range(1, 8):
        line = line_map(span + 1)
        cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
        placement = (0, span)
        routed = lower(build_test_circuit(0, params), line, placement)[0]
        noisy = attach_noise(routed, cal, model)
        branched = _branched(_walk(noisy), noisy.measured_qubits, placement)
        assert branched == (() if span == 1 else (placement[0],))
        rows.clear()
        assert outcome_distributions(noisy, placement).shape == (4, 4)
        assert rows == [1 if span == 1 else 2]


def record_kernel_calls(monkeypatch):
    """(operator ndim, operator stack length, live width) of each kernel call."""
    calls = []
    kernel = pbrsim.simulate._apply

    def recording(mats, op, targets, n):
        calls.append((op.ndim, len(op), n))
        return kernel(mats, op, targets, n)

    monkeypatch.setattr(pbrsim.simulate, "_apply", recording)
    return calls


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_sweep_at_the_cap_is_exact_and_three_qubits_wide(model, monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    cfg = ExperimentConfig(
        n=2,
        theta=np.pi / 4,
        model=model,
        calibration=uniform_calibration(2, p1=2e-4, p2=2.4e-3, edges=((0, 1),)),
        shots=2000,
        seed=6,
    )
    reports = sweep_distance(cfg, [9, 10, 11])
    assert [r.analytic_only for r in reports] == [False, False, False]
    assert [r.span for r in reports] == [9, 10, 11]
    means = [r.mean_forbidden_exact for r in reports]
    assert all(b >= a for a, b in zip(means, means[1:]))
    widths = [n for _, _, n in calls]
    assert widths and max(widths) <= 3


def varied_calibration(n, seed):
    """A device whose qubits and couplers all differ, so each gets its own channels."""
    rng = np.random.default_rng(seed)
    qubits = [
        QubitCalibration(
            q, float(rng.uniform(80e-6, 200e-6)), float(rng.uniform(50e-6, 150e-6)),
            float(rng.uniform(1e-4, 5e-4)), float(rng.uniform(30e-9, 40e-9)),
        )
        for q in range(n)
    ]
    couplers = [
        CouplerCalibration(a, b, float(rng.uniform(1e-3, 5e-3)), float(rng.uniform(60e-9, 80e-9)))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    return CalibrationSnapshot(qubits, couplers, 0.8e-6)


def assert_rows_are_independent(c, frames):
    # Row x is the same whichever other frames are asked for: it is the last
    # row of the table over x's set frames alone.
    table = outcome_distributions(c, frames)
    for x, row in enumerate(table):
        own = [q for j, q in enumerate(frames) if x >> (len(frames) - 1 - j) & 1]
        assert np.array_equal(row, outcome_distributions(c, own)[-1])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_pbr_inputs_equal_one_at_a_time(n):
    params = PBRParams.solve(n, theta_min(n))
    ideal = build_test_circuit(0, params)
    assert_rows_are_independent(ideal, range(n))
    cal = varied_calibration(n, seed=n)
    for model in NOISE_MODELS:
        assert_rows_are_independent(attach_noise(ideal, cal, model), range(n))


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_batched_routed_inputs_equal_one_at_a_time(model):
    params = PBRParams.solve(2, np.pi / 4)
    for span in range(1, 10):
        line = line_map(span + 1)
        cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
        routed = lower(build_test_circuit(0, params), line, (0, span))[0]
        assert_rows_are_independent(attach_noise(routed, cal, model), (0, span))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frames_match_every_input_circuit(n):
    # Row x of input 0's circuit, framed on the preparation qubits, is input
    # x's own circuit, evolved by the dense reference: ideal, and under both
    # models on a uniform and a varied device.
    devices = (uniform_calibration(n, p1=2e-4, p2=2.4e-3), varied_calibration(n, seed=n))
    forms = [lambda c: c] + [
        lambda c, cal=cal, model=model: attach_noise(c, cal, model)
        for cal in devices
        for model in NOISE_MODELS
    ]
    for theta in (theta_min(n), 1.0, 1.2):
        params = PBRParams.solve(n, theta)
        inputs = [build_test_circuit(x, params) for x in range(2**n)]
        for form in forms:
            got = outcome_distributions(form(inputs[0]), range(n))
            for x, c in enumerate(inputs):
                assert np.abs(got[x] - dense_distribution(form(c))).max() < DIFF_TOL
        if n != 2:
            continue
        # Routing inserts only H and CZ, and the preparation qubits are the placement.
        for span in range(1, 10):
            line = line_map(span + 1)
            cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
            routed = [lower(c, line, (0, span))[0] for c in inputs]
            for model in NOISE_MODELS:
                noisy = [attach_noise(c, cal, model) for c in routed]
                got = outcome_distributions(noisy[0], (0, span))
                for x, c in enumerate(noisy):
                    assert np.abs(got[x] - outcome_distribution(c)).max() < DIFF_TOL


def test_random_batches_match_dense_reference():
    rng = np.random.default_rng(77)
    for _ in range(60):
        template = random_noisy_circuit(rng, int(rng.integers(1, 7)))
        assert_rows_match_dense(template, random_frames(rng, template))


def with_h_pairs(c):
    """`c` with two H right after each RY: the same map, but a frame on an RY's qubit meets an H."""
    gates = []
    for g in c.gates:
        gates += [g, Gate(H, g.qubits), Gate(H, g.qubits)] if g.kind == RY else [g]
    return Circuit(c.n_qubits, tuple(gates))


def test_chunked_batch_equals_one_chunk(monkeypatch):
    n = 5
    params = PBRParams.solve(n, theta_min(n))
    noisy = attach_noise(build_test_circuit(0, params), varied_calibration(n, seed=9), "depolarizing")
    branching = with_h_pairs(noisy)
    frames, keep = tuple(range(n)), noisy.measured_qubits
    assert _branched(_walk(noisy), keep, frames) == ()
    assert _branched(_walk(branching), keep, frames) == frames
    chunked = outcome_distributions(branching, frames)
    # Five live qubits: 8 inputs per chunk, and only one chunk's states at a time.
    assert [len(states) for states in evolve(branching, keep, frames)] == [8, 8, 8, 8]
    monkeypatch.setattr(pbrsim.simulate, "CHUNK_ENTRIES", 2**30)
    whole = outcome_distributions(branching, frames)
    monkeypatch.setattr(pbrsim.simulate, "CHUNK_ENTRIES", 1)
    single = outcome_distributions(branching, frames)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(chunked, single)
    # The branching rows and the one evolved row read under the frames agree.
    assert np.abs(chunked - outcome_distributions(noisy, frames)).max() < DIFF_TOL


def with_readout_error(cal, seed):
    """`cal` with an asymmetric confusion matrix of its own on every qubit."""
    rng = np.random.default_rng(seed)
    qubits = tuple(
        replace(q, readout_p01=float(rng.uniform(0.005, 0.03)), readout_p10=float(rng.uniform(0.03, 0.08)))
        for q in cal.qubits
    )
    return replace(cal, qubits=qubits)


def assert_readout_folds(c, frames, cal):
    # Each measured qubit's confusion matrix folded into its population read
    # gives apply_readout over the unfolded table, to roundoff.
    mats = [readout_matrix(cal.qubit(q)) for q in c.measured_qubits]
    got = outcome_distributions(c, frames, mats)
    ref = apply_readout(outcome_distributions(c, frames), mats)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= np.maximum(1e-15, 1e-12 * np.abs(ref)))


@pytest.mark.parametrize("n", range(2, 9))
def test_readout_folds_into_the_population_read(n):
    # Every qubit framed (one evolved row, each read twice), no frames, and
    # rows that branch at the start.
    cal = with_readout_error(varied_calibration(n, seed=n), seed=n)
    params = PBRParams.solve(n, theta_min(n))
    for model in NOISE_MODELS:
        noisy = attach_noise(build_test_circuit(0, params), cal, model)
        assert _branched(_walk(noisy), noisy.measured_qubits, tuple(range(n))) == ()
        assert_readout_folds(noisy, range(n), cal)
        assert_readout_folds(noisy, (), cal)
        if n <= 5:
            assert_readout_folds(with_h_pairs(noisy), range(n), cal)


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_readout_folds_into_routed_reads(model):
    # Span 1 evolves one row under frames; past it logical 0's frame
    # branches two rows and logical 1's is read.
    params = PBRParams.solve(2, theta_min(2))
    for span in range(1, 8):
        line = line_map(span + 1)
        cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
        cal = with_readout_error(cal, seed=span)
        noisy = attach_noise(lower(build_test_circuit(0, params), line, (0, span))[0], cal, model)
        assert_readout_folds(noisy, (0, span), cal)
        assert_readout_folds(noisy, (span,), cal)


def test_readout_needs_one_matrix_per_measured_qubit():
    c = Circuit(3, (Gate(RY, (0,), angle=0.3), Gate(MEASURE, (2, 0))))
    m = np.array([[0.9, 0.2], [0.1, 0.8]])
    assert outcome_distributions(c, (0,), [m, np.eye(2)]).shape == (2, 4)
    for readout in ([m], [m, m, m], [m, np.eye(3)]):
        with pytest.raises(ValueError, match="readout needs one"):
            outcome_distributions(c, (0,), readout)


FRAME_REJECTIONS = [
    ((0, 0), ValueError, "frames (0, 0) name a qubit twice"),
    ((3,), ValueError, "frame qubit 3 is outside the circuit's 3 qubits"),
    ((2,), ValueError, "frame qubit 2 has no gate"),
    # Frames are qubit indices, so they take the one integer rule: a bool
    # or a float names no qubit.
    ((True,), ValidationError, "frame qubit=True must be an integer"),
    ((0, 1.0), ValidationError, "frame qubit=1.0 must be an integer"),
    ((np.bool_(False),), ValidationError, f"frame qubit={np.bool_(False)!r} must be an integer"),
]


@pytest.mark.parametrize("frames, error, message", FRAME_REJECTIONS)
def test_frames_are_distinct_integer_qubits_with_a_gate(frames, error, message):
    c = Circuit(3, (Gate(H, (0,)), Gate(H, (1,)), Gate(MEASURE, (0, 1))))
    with pytest.raises(ValueError) as exc:
        outcome_distributions(c, frames)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert np.array_equal(outcome_distributions(c, (np.int64(1), 0)), outcome_distributions(c, (1, 0)))


def test_readout_must_be_column_stochastic():
    # A matrix that is not column-stochastic would fold into a row that does
    # not sum to 1 ([[2, -1], [3, 5]] on an H: [0.5, 1.0]) or a NaN row.
    # Each is one ValueError.
    c = Circuit(2, (Gate(H, (0,)), Gate(MEASURE, (0, 1))))
    message = "^readout matrices must be column-stochastic: finite, non-negative, each column summing to 1$"
    good = np.array([[0.9, 0.2], [0.1, 0.8]])
    bad = (
        [[2.0, -1.0], [3.0, 5.0]],
        [[0.9, np.nan], [0.1, 0.8]],
        [[np.inf, 0.2], [-np.inf, 0.8]],
        [[0.9, 0.1], [0.2, 0.8]],  # row-stochastic
        [[0.9, 0.2], [0.1 + 2e-10, 0.8]],
    )
    for m in bad:
        for readout in ([m, good], [good, m]):
            with pytest.raises(ValueError, match=message):
                outcome_distributions(c, (), readout)
    # Columns within ATOL_ALGEBRAIC of 1 pass, and so does every matrix a
    # calibration gives, at the ends of its range too.
    near = np.array([[0.9, 0.2], [0.1 + 5e-11, 0.8 - 5e-11]])
    assert outcome_distributions(c, (), [near, good]).shape == (1, 4)
    flips = [0.0, 1e-17, 0.1, 1 / 3, 0.5, 0.7, 1 - 1e-16, 1.0]
    for p01, p10 in itertools.product(flips, flips):
        m = readout_matrix(QubitCalibration(0, 1e-4, 1e-4, 0.0, readout_p01=p01, readout_p10=p10))
        assert outcome_distributions(c, (), [m, m]).shape == (1, 4)


def random_run_circuit(rng, n):
    """Runs of operators on one target tuple each, measured in random order.

    Within a run, diagonal gates, full gates and channels on the same
    qubits alternate, so the schedule fuses them; a SWAP, as 3 CZ + 6 H,
    splits its run. Runs on three or more
    qubits are MCPHASE_OPEN only.
    """
    one = (RZ, PHASE, H, SX, RY, X, "amplitude_damping", "dephasing", "depolarizing")
    two = (CZ, CPHASE_OPEN, MCPHASE_OPEN, "swap", "depolarizing")
    gates = []
    for _ in range(int(rng.integers(3, 8))):
        k = 1 if n == 1 or rng.random() < 0.5 else int(rng.integers(2, n + 1))
        qs = tuple(int(q) for q in rng.permutation(n)[:k])
        choices = one if k == 1 else two if k == 2 else (MCPHASE_OPEN,)
        for _ in range(int(rng.integers(2, 7))):
            kind = choices[int(rng.integers(len(choices)))]
            p = float(rng.uniform(0, 0.3))
            if kind == "amplitude_damping":
                gates.append(Gate(NOISE, qs, channel=amplitude_damping(p)))
            elif kind == "dephasing":
                gates.append(Gate(NOISE, qs, channel=dephasing(p)))
            elif kind == "depolarizing":
                gates.append(Gate(NOISE, qs, channel=depolarizing_channel(p, k)))
            elif kind == "swap":
                gates.extend(decompose_swap(*qs))
            else:
                angle = float(rng.uniform(-np.pi, np.pi)) if kind in ANGLED_KINDS else None
                gates.append(Gate(kind, qs, angle=angle))
    gates.append(Gate(MEASURE, tuple(int(q) for q in rng.permutation(n))))
    return Circuit(n, tuple(gates))


def test_fused_runs_match_dense_reference(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(88)
    ops = 0
    for _ in range(60):
        template = random_run_circuit(rng, int(rng.integers(1, 5)))
        ops += sum(g.kind != MEASURE for g in template.gates)
        assert_rows_match_dense(template, random_frames(rng, template, most=template.n_qubits))
        assert np.abs(final_state(template) - dense_state(template)).max() < DIFF_TOL
    # A frame that starts right after a multi-qubit gate is a per-row kernel
    # step when the rows branch, here fused with the H after it.
    n, gates, frames, _ = FRAME_CASES["frame_after_multi_qubit_gate"]
    ops += len(gates) - 1
    outcome_distributions(Circuit(n, tuple(gates)), frames)
    # Runs were fused, and all four operator forms reached the kernel:
    # diagonal or full, shared by every row or one per row.
    assert len(calls) < ops
    assert {(ndim, k > 1) for ndim, k, _ in calls} == {(2, False), (2, True), (3, False), (3, True)}


def test_mcphase_up_to_six_qubits_matches_dense_reference():
    rng = np.random.default_rng(6)
    for k in range(2, 7):
        for _ in range(4):
            n = int(rng.integers(k, 7))
            qs = tuple(int(q) for q in rng.permutation(n)[:k])
            gates = [Gate(RY, (q,), angle=float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
            gates += [Gate(NOISE, (q,), channel=dephasing(0.1)) for q in qs[:2]]
            gates.append(Gate(MCPHASE_OPEN, qs, angle=float(rng.uniform(-np.pi, np.pi))))
            gates += [Gate(H, (q,)) for q in range(n)]
            gates.append(Gate(MEASURE, tuple(int(q) for q in rng.permutation(n))))
            template = Circuit(n, tuple(gates))
            assert_rows_match_dense(template, random_frames(rng, template))
            assert np.abs(final_state(template) - dense_state(template)).max() < DIFF_TOL


@pytest.mark.parametrize("model, per_chunk", [("ideal", 1), ("depolarizing", 5), ("thermodynamical", 1)])
def test_fused_schedule_kernel_calls_per_chunk(model, per_chunk, monkeypatch):
    # n=5: only the MCPHASE_OPEN and, under the depolarizing model, its seven
    # two-qubit channels reach the kernel, each adjacent pair's back to back
    # and fused into one: four. The single-qubit operators before it build
    # each qubit's joining state, those after it are read for their
    # populations only. Every frame reaches its suffix, so the 32 inputs are
    # one evolved row: one chunk.
    params = PBRParams.solve(5, theta_min(5))
    circuit = build_test_circuit(0, params)
    if model != "ideal":  # the forbidden-outcome check's circuit
        circuit = attach_noise(circuit, varied_calibration(5, seed=3), model)
    calls = record_kernel_calls(monkeypatch)
    assert outcome_distributions(circuit, range(5)).shape == (32, 32)
    assert len(calls) == per_chunk
    assert all(k == 1 and n == 5 for _, k, n in calls)


def round_robin_pairs(g):
    """`circuits.cz_pairs` with an open-controlled phase's charges dealt round-robin."""
    if g.kind != MCPHASE_OPEN:
        return cz_pairs(g)
    pairs = tuple(zip(g.qubits, g.qubits[1:]))
    return tuple(pairs[k % len(pairs)] for k in range(mcphase_cz_equivalents(len(pairs))))


def round_robin_noise(circuit, cal, monkeypatch):
    """`circuit` under depolarizing noise, its charges in round-robin order.

    The same channels as `attach_noise` gives, the two-qubit ones after an
    open-controlled phase interleaved instead of grouped by pair.
    """
    with monkeypatch.context() as m:
        m.setattr(pbrsim.noise, "cz_pairs", round_robin_pairs)
        return attach_noise(circuit, cal, "depolarizing")


@pytest.mark.parametrize("n", range(3, 9))
def test_grouped_charges_match_round_robin_reference(n, monkeypatch):
    # Depolarizing channels are Pauli channels, which commute: grouping each
    # pair's charges changes only the float roundoff of the table.
    params = PBRParams.solve(n, theta_min(n))
    cal = varied_calibration(n, seed=20 + n)
    grouped = attach_noise(params.test_circuit, cal, "depolarizing")
    reference = round_robin_noise(params.test_circuit, cal, monkeypatch)
    assert grouped.gates != reference.gates
    assert sorted(map(repr, grouped.gates)) == sorted(map(repr, reference.gates))
    misread = [replace(q, readout_p01=0.02, readout_p10=0.03) for q in cal.qubits]
    mats = [readout_matrix(q) for q in misread]
    got = outcome_distributions(grouped, range(n), mats)
    want = outcome_distributions(reference, range(n), mats)
    assert np.abs(got - want).max() <= 1e-15


def test_grouped_charges_keep_seeded_counts_and_verdicts(monkeypatch):
    # A run whose noise is attached round-robin draws the same counts and
    # gives the same verdicts; its exact probabilities agree to 1e-15.
    for n in range(3, 8):
        cfg = ExperimentConfig(
            n=n, theta=theta_min(n), model="depolarizing",
            calibration=varied_calibration(n, seed=30 + n), shots=10**6, seed=n,
        )
        pbrsim.harness._CONFIGURATIONS.clear()
        got = run_experiment(cfg)
        pbrsim.harness._CONFIGURATIONS.clear()
        with monkeypatch.context() as m:
            m.setattr(pbrsim.noise, "cz_pairs", round_robin_pairs)
            want = run_experiment(cfg)
        pbrsim.harness._CONFIGURATIONS.clear()
        assert [r.count for r in got.inputs] == [r.count for r in want.inputs]
        assert [r.passed for r in got.inputs] == [r.passed for r in want.inputs]
        assert (got.passed, got.pass_fraction) == (want.passed, want.pass_fraction)
        exact = [(a.exact_probability, b.exact_probability) for a, b in zip(got.inputs, want.inputs)]
        assert max(abs(a - b) for a, b in exact) <= 1e-15


@pytest.mark.parametrize("k", range(3, 9))
def test_grouped_charges_take_one_kernel_step_per_pair(k, monkeypatch):
    # At n = k the open-controlled phase and one fused channel on each of
    # its k - 1 adjacent pairs reach the kernel: k steps, where the
    # round-robin order took 1 + (2k - 3), as no two neighbours share axes.
    params = PBRParams.solve(k, theta_min(k))
    cal = varied_calibration(k, seed=k)
    reference = round_robin_noise(params.test_circuit, cal, monkeypatch)
    grouped = attach_noise(params.test_circuit, cal, "depolarizing")
    calls = record_kernel_calls(monkeypatch)
    outcome_distributions(grouped, range(k))
    assert len(calls) == k
    assert [ndim for ndim, _, _ in calls] == [2] + [3] * (k - 1)
    calls.clear()
    outcome_distributions(reference, range(k))
    assert len(calls) == 1 + mcphase_cz_equivalents(k - 1)


def test_table_peak_memory_at_n10():
    # Evolution and the read each hold at most three states at once: the
    # state, the copy a product reads and the product (48 MB at n = 10).
    # Reading a qubit from a fresh reshape of a state still held, or copying
    # the last complex product before taking its real parts, holds half a
    # state more or worse. The bound is below 3.5 states plus the table.
    n = 10
    params = PBRParams.solve(n, theta_min(n))
    cal = uniform_calibration(n, p1=1e-4, p2=1e-3, p01=0.01, p10=0.02)
    noisy = attach_noise(params.test_circuit, cal, "depolarizing")
    plan = _plan(noisy, tuple(range(n)), [readout_matrix(cal.qubit(q)) for q in range(n)])
    state, table = 16 * 4**n, 8 * 4**n
    tracemalloc.start()
    try:
        got = _table(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == table
    assert peak <= 3.25 * state


def test_one_chunk_table_is_its_read_not_a_copy():
    # An unplaced n = 10 run evolves one row, one chunk: the table is the
    # array the read allocated. Joining chunks would allocate a second
    # table and free the first, which the peak cannot show (the state it
    # reads is twice a table), so the test asks tracemalloc where the one
    # table-sized buffer still alive was allocated.
    n = 10
    params = PBRParams.solve(n, theta_min(n))
    cal = uniform_calibration(n, p1=1e-4, p2=1e-3, p01=0.01, p10=0.02)
    noisy = attach_noise(params.test_circuit, cal, "depolarizing")
    plan = _plan(noisy, tuple(range(n)), [readout_matrix(cal.qubit(q)) for q in range(n)])
    code = pbrsim.simulate._populations.__code__
    last = code.co_firstlineno + len(inspect.getsource(code).splitlines())
    tracemalloc.start(8)
    try:
        got = _table(plan)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    (trace,) = [t for t in snapshot.traces if t.size >= got.nbytes]
    assert trace.size == got.nbytes == 8 * 4**n
    assert any(
        f.filename == code.co_filename and code.co_firstlineno <= f.lineno < last
        for f in trace.traceback
    )


def reduced_state(rho, keep):
    """The marginal of a dense n-qubit state on the `keep` qubits, in that order."""
    n = rho.shape[0].bit_length() - 1
    rows = list(range(n))
    cols = [n + q if q in keep else q for q in range(n)]
    out = list(keep) + [n + q for q in keep]
    marginal = np.einsum(rho.reshape((2,) * (2 * n)), rows + cols, out)
    return marginal.reshape(2 ** len(keep), 2 ** len(keep))


AD, DEPH, DEP1 = amplitude_damping(0.2), dephasing(0.3), depolarizing_channel(0.1)
FOLDED_CASES = {
    # Qubit 2 is kept, and only single-qubit gates and channels touch it.
    "kept_single_qubit_only": (3, [
        Gate(RY, (0,), angle=0.4), Gate(RY, (1,), angle=-1.1), Gate(CZ, (0, 1)),
        Gate(RY, (2,), angle=0.9), Gate(NOISE, (2,), channel=AD), Gate(H, (2,)),
        Gate(H, (0,)), Gate(NOISE, (0,), channel=DEP1), Gate(MEASURE, (2, 0, 1)),
    ]),
    # Qubit 1 is discarded, and only single-qubit gates and channels touch it.
    "discarded_single_qubit_only": (3, [
        Gate(RY, (1,), angle=0.7), Gate(NOISE, (1,), channel=DEPH), Gate(H, (1,)),
        Gate(RY, (0,), angle=1.3), Gate(H, (2,)), Gate(CPHASE_OPEN, (2, 0), angle=0.5),
        Gate(SX, (0,)), Gate(MEASURE, (0, 2)),
    ]),
    # Qubit 1 is discarded after its CZ, then gates and channels still act on it.
    "discarded_trailing_channels": (3, [
        Gate(RY, (0,), angle=0.8), Gate(H, (1,)), Gate(CZ, (0, 1)),
        Gate(NOISE, (0, 1), channel=depolarizing_channel(0.05, 2)),
        Gate(H, (1,)), Gate(NOISE, (1,), channel=AD), Gate(RY, (1,), angle=2.0),
        Gate(NOISE, (1,), channel=DEPH), Gate(H, (2,)), Gate(CZ, (0, 2)),
        Gate(NOISE, (0, 2), channel=depolarizing_channel(0.05, 2)),
        Gate(RZ, (0,), angle=0.3), Gate(MEASURE, (2, 0)),
    ]),
    # Qubits 0 and 3 are measured and no gate touches them.
    "measured_untouched": (4, [
        Gate(RY, (1,), angle=0.6), Gate(RY, (2,), angle=-0.2), Gate(CZ, (1, 2)),
        Gate(H, (2,)), Gate(NOISE, (2,), channel=AD), Gate(MEASURE, (3, 1, 0, 2)),
    ]),
    # Angled prefixes and suffixes, full and diagonal; a diagonal-only prefix
    # and a diagonal-only suffix; no MEASURE, so every qubit is kept.
    "angled_prefix_and_suffix": (3, [
        Gate(RY, (0,), angle=0.5), Gate(NOISE, (0,), channel=DEP1), Gate(PHASE, (0,), angle=0.2),
        Gate(RZ, (1,), angle=-0.4), Gate(PHASE, (1,), angle=1.0), Gate(H, (2,)),
        Gate(MCPHASE_OPEN, (0, 1, 2), angle=0.9), Gate(NOISE, (0,), channel=AD),
        Gate(RY, (0,), angle=-0.7), Gate(PHASE, (0,), angle=0.1), Gate(RZ, (1,), angle=1.4),
        Gate(PHASE, (1,), angle=-2.2), Gate(RY, (2,), angle=0.3), Gate(NOISE, (2,), channel=DEPH),
    ]),
}


@pytest.mark.parametrize("name", sorted(FOLDED_CASES))
def test_folded_prefix_and_suffix_match_dense_reference(name, monkeypatch):
    n, gates = FOLDED_CASES[name]
    template = Circuit(n, tuple(gates))
    keep = template.measured_qubits or tuple(range(n))
    # Every qubit that some gate acts on carries a frame, last qubit first.
    frames = tuple(sorted({q for g in gates if g.kind != MEASURE for q in g.qubits}, reverse=True))
    widths = []
    kernel = pbrsim.simulate._apply

    def recording(mats, op, targets, n):
        widths.append(len(targets))
        return kernel(mats, op, targets, n)

    monkeypatch.setattr(pbrsim.simulate, "_apply", recording)
    got = outcome_distributions(template, frames)
    # No qubit here has a single-qubit operator between two multi-qubit
    # ones, so none reaches the kernel on the distribution path.
    assert min(widths, default=2) >= 2
    monkeypatch.undo()
    states = np.concatenate(list(evolve(template, keep, frames)))
    for x, (row, state) in enumerate(zip(got, states)):
        c = framed_circuit(template, frames, x)
        assert np.abs(row - dense_distribution(c)).max() < DIFF_TOL
        assert np.abs(state - reduced_state(dense_state(c), keep)).max() < DIFF_TOL


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
# Amplitude damping in the X basis: it does not commute with Z-conjugation.
HADH = KrausChannel([_H @ k @ _H for k in AD.operators])
DEP2 = depolarizing_channel(0.05, 2)
FRAME_CASES = {
    # name: (qubits, gates, frames, the frames that branch the rows)
    "frame_meets_h_before_suffix": (2, [
        Gate(RY, (0,), angle=0.7), Gate(RY, (1,), angle=-0.4), Gate(H, (0,)),
        Gate(CZ, (0, 1)), Gate(H, (0,)), Gate(H, (1,)), Gate(MEASURE, (0, 1)),
    ], (0, 1), (0,)),
    "channel_not_z_covariant": (2, [
        Gate(RY, (0,), angle=0.7), Gate(NOISE, (0,), channel=HADH), Gate(RY, (1,), angle=1.1),
        Gate(CPHASE_OPEN, (0, 1), angle=0.9), Gate(H, (0,)), Gate(H, (1,)), Gate(MEASURE, (1, 0)),
    ], (1, 0), (0,)),
    "covariant_channels_and_thermal_suffix": (3, [
        Gate(RY, (0,), angle=0.7), Gate(NOISE, (0,), channel=AD), Gate(RY, (1,), angle=-1.2),
        Gate(NOISE, (1,), channel=DEPH), Gate(RY, (2,), angle=0.4), Gate(X, (2,)),
        Gate(MCPHASE_OPEN, (0, 1, 2), angle=1.3), Gate(NOISE, (1, 2), channel=DEP2),
        Gate(CZ, (0, 2)), Gate(NOISE, (0,), channel=DEP1), Gate(H, (0,)), Gate(NOISE, (0,), channel=AD),
        Gate(H, (1,)), Gate(NOISE, (1,), channel=HADH), Gate(SX, (2,)), Gate(MEASURE, (2, 0, 1)),
    ], (0, 2, 1), ()),
    "framed_qubit_discarded": (3, [
        Gate(RY, (0,), angle=0.5), Gate(RY, (1,), angle=0.9), Gate(RY, (2,), angle=-0.3),
        Gate(CZ, (0, 1)), Gate(PHASE, (1,), angle=0.6), Gate(CZ, (1, 2)), Gate(H, (1,)),
        Gate(H, (0,)), Gate(H, (2,)), Gate(MEASURE, (0, 2)),
    ], (1, 0, 2), ()),
    "framed_qubit_discarded_meets_h": (3, [
        Gate(RY, (0,), angle=0.5), Gate(RY, (1,), angle=0.9), Gate(RY, (2,), angle=-0.3),
        Gate(CZ, (0, 1)), Gate(H, (1,)), Gate(CZ, (1, 2)), Gate(H, (0,)), Gate(H, (2,)),
        Gate(MEASURE, (0, 2)),
    ], (1, 0, 2), (1,)),
    "framed_qubit_without_multi_qubit_gate": (3, [
        Gate(RY, (0,), angle=0.5), Gate(RY, (1,), angle=0.9), Gate(CZ, (0, 1)),
        Gate(RY, (2,), angle=1.1), Gate(NOISE, (2,), channel=AD), Gate(PHASE, (2,), angle=0.4),
        Gate(H, (0,)), Gate(MEASURE, (2, 0, 1)),
    ], (2, 0), ()),
    "framed_qubit_without_multi_qubit_gate_meets_h": (3, [
        Gate(RY, (0,), angle=0.5), Gate(RY, (1,), angle=0.9), Gate(CZ, (0, 1)),
        Gate(RY, (2,), angle=1.1), Gate(NOISE, (2,), channel=AD), Gate(H, (2,)),
        Gate(H, (0,)), Gate(MEASURE, (2, 0, 1)),
    ], (2, 0), (2,)),
    # The first gate on qubit 0 is a CZ, so its frame starts between two
    # multi-qubit gates, where the branching rows take it in the kernel.
    "frame_after_multi_qubit_gate": (2, [
        Gate(H, (1,)), Gate(CZ, (0, 1)), Gate(H, (0,)), Gate(NOISE, (0, 1), channel=DEP2),
        Gate(CZ, (0, 1)), Gate(H, (0,)), Gate(MEASURE, (0, 1)),
    ], (0, 1), (0,)),
    # Qubit 0's one multi-qubit gate is its first gate, and it is not
    # measured: its frame, on the branching rows, falls after its trace-out.
    "frame_after_last_multi_qubit_gate_of_discarded_qubit": (2, [
        Gate(RY, (1,), angle=0.7), Gate(H, (1,)), Gate(CZ, (0, 1)), Gate(H, (1,)),
        Gate(MEASURE, (1,)),
    ], (0, 1), (1,)),
    "frame_after_multi_qubit_gate_to_suffix": (2, [
        Gate(H, (1,)), Gate(CZ, (0, 1)), Gate(NOISE, (0, 1), channel=DEP2),
        Gate(CPHASE_OPEN, (1, 0), angle=0.8), Gate(H, (0,)), Gate(H, (1,)), Gate(MEASURE, (1, 0)),
    ], (0, 1), ()),
}


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_crafted_frames_match_dense_reference(name):
    n, gates, frames, branched = FRAME_CASES[name]
    c = Circuit(n, tuple(gates))
    assert _branched(_walk(c), c.measured_qubits, frames) == branched
    assert_rows_match_dense(c, frames)


def mixed_frames_circuit():
    """Three kinds of frame in one circuit, measured as (1, 0).

    Qubit 0's frame meets an H before its last multi-qubit gate and
    branches the rows; qubit 1's reaches its suffix and is read; qubit 2
    is not measured, and its frame reaches its trace-out.
    """
    return Circuit(3, (
        Gate(RY, (0,), angle=0.7), Gate(RY, (1,), angle=-1.1), Gate(RY, (2,), angle=0.4),
        Gate(CZ, (0, 1)), Gate(NOISE, (0, 1), channel=DEP2), Gate(H, (0,)),
        Gate(NOISE, (1,), channel=AD), Gate(CZ, (0, 2)), Gate(NOISE, (2,), channel=DEPH),
        Gate(CPHASE_OPEN, (1, 2), angle=0.9), Gate(H, (2,)), Gate(NOISE, (2,), channel=AD),
        Gate(H, (0,)), Gate(H, (1,)), Gate(NOISE, (1,), channel=HADH), Gate(MEASURE, (1, 0)),
    ))


# Listed out of `keep` order, the traced-out qubit first.
MIXED_FRAMES = (2, 0, 1)


def test_mixed_frames_with_readout_match_input_circuits():
    c = mixed_frames_circuit()
    keep = c.measured_qubits
    assert _branched(_walk(c), keep, MIXED_FRAMES) == (0,)
    # Qubit 1, at position 0 of `keep`, is read twice; the rows need a reindex.
    framed, index = _frame_rows(keep, MIXED_FRAMES, (0,))
    assert framed == frozenset({0}) and index is not None
    rng = np.random.default_rng(5)
    mats = [np.array([[1 - b, a], [b, 1 - a]]) for a, b in rng.uniform(0.01, 0.1, size=(2, 2))]
    got = outcome_distributions(c, MIXED_FRAMES, mats)
    assert got.shape == (8, 4)
    for x, row in enumerate(got):
        ref = apply_readout(dense_distribution(framed_circuit(c, MIXED_FRAMES, x)), mats)
        assert np.abs(row - ref).max() < DIFF_TOL


def test_mixed_frames_in_several_chunks_equal_one_chunk(monkeypatch):
    c = mixed_frames_circuit()
    mats = [readout_matrix(QubitCalibration(q, 1e-4, 1e-4, 0.0, 36e-9, 0.02, 0.05)) for q in (1, 0)]
    whole = outcome_distributions(c, MIXED_FRAMES, mats)
    rows = record_evolved_rows(monkeypatch)
    monkeypatch.setattr(pbrsim.simulate, "CHUNK_ENTRIES", 1)
    chunked = outcome_distributions(c, MIXED_FRAMES, mats)
    # The two branched rows, one chunk each.
    assert rows == [1, 1]
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_product_equals_ndarray_dot_bit_for_bit(n):
    # The kernel multiplies with np.matmul. For one state and one operator
    # that must be the row-major gemm ndarray.dot makes, bit for bit, on every
    # layout the kernel meets: the goldens were recorded with dot. A numpy
    # release that routes small stacked products differently fails here.
    rng = np.random.default_rng(n)
    dim = 2**n
    mats = rng.normal(size=(1, dim, dim)) + 1j * rng.normal(size=(1, dim, dim))
    for k in (1, 2):
        op = rng.normal(size=(1, 4**k, 4**k)) + 1j * rng.normal(size=(1, 4**k, 4**k))
        assert np.array_equal(_compose(op, op), op[0].dot(op[0])[None])
        for targets in itertools.permutations(range(n), k):
            front, back = _kernel_axes(targets, n)
            t = mats.reshape((1,) + (2,) * (2 * n)).transpose(front)
            dot = op[0].dot(t.reshape(4**k, -1)).reshape(t.shape).transpose(back)
            assert np.array_equal(_apply(mats, op, targets, n), dot.reshape(mats.shape)), targets


def test_z_covariance_is_read_per_channel_target():
    assert _z_covariant(AD) == _z_covariant(DEPH) == _z_covariant(DEP1) == (True,)
    assert _z_covariant(HADH) == (False,)
    assert _z_covariant(DEP2) == (True, True)
    # Amplitude damping of the second qubit in the X basis, as one channel of two.
    mixed = KrausChannel([np.kron(np.eye(2), k) for k in HADH.operators])
    assert _z_covariant(mixed) == (True, False)
    assert _z_covariant(mixed) is _z_covariant(mixed)


def test_unangled_operators_are_built_once_and_read_only():
    c = Circuit(2, (Gate(H, (0,)), Gate(CZ, (0, 1)), Gate(H, (0,)), Gate(H, (1,)), Gate(CZ, (1, 0))))
    ops = _operators(c)
    assert ops[0] is ops[2] is ops[3] and ops[1] is ops[4]
    assert not any(op.flags.writeable for op in ops)
    with pytest.raises(ValueError):
        ops[0][0, 0, 0] = 0.0


def test_cached_operator_equals_a_fresh_build():
    cases = ((H, 1, None), (CZ, 2, None), (RY, 1, 0.3), (PHASE, 1, -1.1), (MCPHASE_OPEN, 4, 0.7))
    for kind, width, angle in cases:
        op = _operator(kind, width, angle)
        assert op is _operator(kind, width, angle)
        assert np.array_equal(op, _gate_operator(Gate(kind, tuple(range(width)), angle=angle)))
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[(0,) * op.ndim] = 0.0


def kept_configuration(params, circuit, cal, model, frames):
    """What a run keeps for this configuration, built on a miss: (pair, p, exact, mean)."""
    key = (params, circuit, cal), (model, tuple(frames))
    return pbrsim.harness._CONFIGURATIONS.get(pbrsim.harness._configuration, *key)


@pytest.fixture
def builds(monkeypatch):
    """Counts noisy circuits and schedules built, from an empty run memo.

    The forbidden-outcome check starts cold too, so a run's first plan
    count includes its ideal circuit's.
    """
    pbrsim.harness._CONFIGURATIONS.clear()
    check_forbidden_outcomes.cache_clear()
    calls = {"attach_noise": 0, "_schedule": 0}
    for module, name in ((pbrsim.harness, "attach_noise"), (pbrsim.simulate, "_schedule")):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_second_identical_run_adds_no_cache_miss(builds):
    cfg = ExperimentConfig(
        n=3, theta=1.0, model="depolarizing", calibration=varied_calibration(3, seed=4),
        shots=100, seed=2,
    )

    def runs():
        return [run_experiment(replace(cfg, model=model)) for model in NOISE_MODELS]

    caches = (_operator, _z_covariant)
    first = runs()
    # Two noisy circuits; their plans and the ideal circuit's.
    assert builds == {"attach_noise": 2, "_schedule": 3}
    misses = [cache.cache_info().misses for cache in caches]
    assert runs() == first
    assert [cache.cache_info().misses for cache in caches] == misses
    # Neither a noisy circuit nor a plan is built again, for a new seed too.
    reseeded = run_experiment(replace(cfg, seed=3, shots=10**6))
    exact = [[r.exact_probability for r in rep.inputs] for rep in (reseeded, first[0])]
    assert exact[0] == exact[1]
    assert builds == {"attach_noise": 2, "_schedule": 3}


def test_value_equal_calibration_object_builds_afresh(builds):
    cfg = ExperimentConfig(
        n=3, theta=1.0, model="thermodynamical", calibration=varied_calibration(3, seed=4),
        shots=100, seed=2,
    )
    first = run_experiment(cfg)
    again = replace(cfg, calibration=varied_calibration(3, seed=4))
    assert again.calibration == cfg.calibration and again.calibration is not cfg.calibration
    assert run_experiment(again) == first
    # One noisy circuit and its plan per calibration object, and the ideal circuit's plan.
    assert builds == {"attach_noise": 2, "_schedule": 3}


def test_calibration_that_misses_a_qubit_or_coupler_is_never_kept(builds):
    full = varied_calibration(3, seed=4)
    no_qubit = CalibrationSnapshot(full.qubits[:2], full.couplers[:1])
    no_coupler = CalibrationSnapshot(full.qubits, ())
    cases = (
        # The tolerance walk fails first, and keeps nothing either.
        (no_qubit, "no calibration for qubit 2"),
        # The tolerance pair is whole, but attach_noise fails on every call.
        (no_coupler, "no calibration for coupler"),
    )
    for cal, message in cases:
        cfg = ExperimentConfig(n=3, theta=1.0, model="depolarizing", calibration=cal, shots=100)
        for _ in range(3):
            with pytest.raises(CalibrationError, match=message):
                run_experiment(cfg)
        kept = pbrsim.harness._CONFIGURATIONS.items()
        assert not any(o is cal for objects, _ in kept for o in objects)
    assert builds == {"attach_noise": 3, "_schedule": 0}


def arrays_in(value):
    """Every numpy array in `value`, through nested tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v)]
    return []


def test_angle_scan_keeps_every_noisy_plan_and_no_ideal_one(builds, monkeypatch):
    # Two angles under both models on one calibration object, then the
    # first angle again: the memo's four entries are the four noisy
    # configurations' tables, so the repeat plans and evolves nothing. Each
    # new angle plans its ideal circuit once, for the forbidden-outcome
    # check, whose own cache answers every repeat: no kept entry holds its
    # table, whose forbidden probabilities are below 1e-10.
    tables = []
    real = pbrsim.harness._table

    def recording(plan):
        tables.append(real(plan))
        return tables[-1]

    monkeypatch.setattr(pbrsim.harness, "_table", recording)
    cal = varied_calibration(3, seed=4)
    for theta in (1.0, 1.1, 1.0):
        for model in NOISE_MODELS:
            cfg = ExperimentConfig(n=3, theta=theta, model=model, calibration=cal, shots=100)
            run_experiment(cfg)
    assert builds == {"attach_noise": 4, "_schedule": 6}
    assert len(tables) == 4
    # The repeat moved the first angle's two entries to the newest place.
    kept = [value for _, value in pbrsim.harness._CONFIGURATIONS.items()]
    assert len(kept) == 4
    for (_, p, exact, _), table in zip(kept, tables[2:] + tables[:2]):
        assert exact == tuple(table.diagonal().tolist()) and min(exact) > 1e-6
        assert np.array_equal(p, table / table.sum(axis=1, keepdims=True))


def test_kept_plan_and_readout_arrays_are_read_only(builds):
    # A kept configuration holds one array, its normalized table: no plan,
    # and so no steps, frame operator or read maps with readout folded in.
    for model in NOISE_MODELS:
        run_experiment(ExperimentConfig(
            n=4, theta=1.0, model=model, calibration=varied_calibration(4, seed=2), shots=100,
        ))
    line = line_map(4)
    cal = uniform_calibration(4, p1=1e-3, edges=line.edges)
    run_experiment(ExperimentConfig(
        n=2, theta=1.0, model="depolarizing", calibration=cal, shots=100,
        coupling=line, placement=(0, 3),
    ))
    kept = [value for _, value in pbrsim.harness._CONFIGURATIONS.items()]
    arrays = arrays_in(kept)
    assert [a.shape for a in arrays] == [(16, 16), (16, 16), (4, 4)]
    assert all(value[1] is a for value, a in zip(kept, arrays))
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][0, 0] = 1.0


def test_kept_plan_gives_the_freshly_built_table():
    # The kept table is built with the calibration's readout matrices folded
    # into the plan's read maps; a fresh build folds them in from the
    # readout argument. Both agree bit for bit, normalized, and so do the
    # exact probabilities and their mean.
    rng = np.random.default_rng(8)

    def misread(cal):
        """`cal` with every qubit's readout flips drawn afresh."""
        flips = rng.uniform(0.01, 0.1, size=(len(cal.qubits), 2))
        qubits = tuple(
            replace(q, readout_p01=float(a), readout_p10=float(b))
            for q, (a, b) in zip(cal.qubits, flips)
        )
        return replace(cal, qubits=qubits)

    cases = []
    for n in range(2, 7):
        cal = misread(varied_calibration(n, seed=n))
        params = PBRParams.solve(n, theta_min(n))
        for model in NOISE_MODELS:
            cases.append((params, params.test_circuit, cal, model, range(n)))
    params = PBRParams.solve(2, 1.0)
    routed = lower(params.test_circuit, line_map(6), (0, 5))[0]
    cal = misread(varied_calibration(6, seed=7))
    for model in NOISE_MODELS:
        cases.append((params, routed, cal, model, (0, 5)))
    for params, circuit, cal, model, frames in cases:
        pbrsim.harness._CONFIGURATIONS.clear()
        noisy = attach_noise(circuit, cal, model)
        mats = [readout_matrix(cal.qubit(q)) for q in noisy.measured_qubits]
        assert not any(np.array_equal(m, np.eye(2)) for m in mats)
        fresh = outcome_distributions(noisy, frames, mats)
        value = kept_configuration(params, circuit, cal, model, frames)
        assert kept_configuration(params, circuit, cal, model, frames) is value
        _, p, exact, mean = value
        assert np.array_equal(p, fresh / fresh.sum(axis=-1, keepdims=True))
        assert exact == tuple(fresh.diagonal().tolist())
        assert mean == float(np.mean(fresh.diagonal()))


def test_n11_configuration_is_returned_but_not_kept(monkeypatch):
    # Its 32 MB table is past the memo's byte bound: the run gets it,
    # read-only, and the memo keeps nothing of it, so no second n = 11
    # table can stay alive next to the next run's. Only the configuration
    # is looked at, so the n = 11 forbidden-outcome check is skipped.
    monkeypatch.setattr(pbrsim.harness, "check_forbidden_outcomes", lambda params: None)
    n = 11
    params = PBRParams.solve(n, theta_min(n))
    cal = uniform_calibration(n, p1=1e-4, p2=1e-3)
    pbrsim.harness._CONFIGURATIONS.clear()
    _, p, exact, _ = kept_configuration(params, params.test_circuit, cal, "thermodynamical", range(n))
    assert p.shape == (2**n, 2**n) and len(exact) == 2**n
    assert not p.flags.writeable
    assert pbrsim.harness._CONFIGURATIONS.items() == []


def held_frames_circuit(measured):
    """Four RY-prepared qubits, a CZ chain with Z-covariant noise, H on each.

    Every frame on a preparation qubit reaches its qubit's suffix, or its
    trace-out for a qubit left out of `measured`.
    """
    gates = [Gate(RY, (q,), angle=a) for q, a in enumerate((0.4, -0.9, 1.3, 0.7))]
    gates += [Gate(NOISE, (1,), channel=AD), Gate(CZ, (0, 1)), Gate(NOISE, (0, 1), channel=DEP2)]
    gates += [Gate(CZ, (1, 2)), Gate(NOISE, (2,), channel=DEPH), Gate(CZ, (2, 3))]
    gates += [Gate(H, (q,)) for q in range(4)]
    return Circuit(4, tuple(gates) + (Gate(MEASURE, measured),))


ROW_INDEX_CASES = {
    # name: (measured qubits, frames)
    "frames_in_another_order_than_keep": ((0, 1, 2, 3), (2, 0, 3, 1)),
    "frame_on_a_traced_out_qubit": ((0, 2, 3), (0, 1, 2)),
    "kept_qubit_without_a_frame": ((3, 2, 0, 1), (1, 2)),
}


@pytest.mark.parametrize("name", sorted(ROW_INDEX_CASES))
def test_frame_row_index_orders_rows_like_input_circuits(name):
    measured, frames = ROW_INDEX_CASES[name]
    c = held_frames_circuit(measured)
    # The one evolved row is read under the frames, and its rows reordered.
    assert _branched(_walk(c, frames), measured, frames) == ()
    assert _frame_rows(measured, frames, ())[1] is not None
    assert_rows_match_dense(c, frames)


def test_identity_frame_row_index_is_skipped():
    # Every frame on a kept qubit, in `keep` order: the read's rows are the inputs'.
    assert _frame_rows((0, 1, 2, 3), (0, 1, 2, 3), ()) == (frozenset(range(4)), None)
    assert _frame_rows((3, 1, 0), (3, 0), ()) == (frozenset({0, 2}), None)
    assert_rows_match_dense(held_frames_circuit((3, 1, 0)), (3, 0))


def brute_force_rows(keep, frames, branched):
    """Each input's row of the read: its branched bits, then its read bits."""
    read = [q for q in keep if q in frames and q not in branched]
    index = []
    for x in range(2 ** len(frames)):
        bit = {q: (x >> (len(frames) - 1 - j)) & 1 for j, q in enumerate(frames)}
        row = 0
        for q in list(branched) + read:
            row = 2 * row + bit[q]
        index.append(row)
    return frozenset(keep.index(q) for q in read), index


@pytest.mark.parametrize(
    "keep, frames, branched",
    [
        ((1, 0), (2, 0, 1), (0,)),
        ((0, 1, 2), (0, 1, 2), (1,)),
        ((0, 1, 2), (2, 0, 1), (2, 0)),
        ((3, 1, 0), (0, 2, 1, 3), (2,)),
        ((0, 2, 3), (3, 1, 0, 2), (1, 0)),
        ((4, 2), (1, 2, 3, 4), (3, 1)),
        ((0, 1), (0, 1), (0, 1)),
        ((0, 1), (1, 0), (1,)),
    ],
)
def test_frame_row_index_with_branched_frames_matches_brute_force(keep, frames, branched):
    framed, index = _frame_rows(keep, frames, branched)
    want_framed, want = brute_force_rows(keep, frames, branched)
    assert framed == want_framed
    if index is None:
        assert want == list(range(2 ** len(frames)))
    else:
        assert index.tolist() == want


def test_frame_row_index_is_built_with_each_plan():
    # A plan's frame-row index reorders its read's rows into input order. A
    # run keeps no plan, so each plan builds its own index: another circuit
    # object with the same kept qubits and frames builds an equal one.
    keep, frames = (0, 2, 3), (2, 1, 0)
    c = held_frames_circuit(keep)
    cal = uniform_calibration(4, p1=1e-3, p2=1e-2)

    def plan(circuit):
        return _plan(attach_noise(circuit, cal, "depolarizing"), frames)

    one = plan(c)
    index = one[2]
    assert index is not None
    assert np.array_equal(_table(one), outcome_distributions(attach_noise(c, cal, "depolarizing"), frames))
    other = Circuit(4, (Gate(PHASE, (3,), angle=0.2),) + c.gates)
    two = plan(other)
    assert _table(two).shape == (8, 8)
    assert two[2] is not index and np.array_equal(two[2], index)


def test_module_level_arrays_are_read_only():
    # Schedules, reads and stream hashes hold views of these, shared by every run.
    for module in (pbrsim.simulate, pbrsim.harness):
        arrays = {name: v for name, v in vars(module).items() if isinstance(v, np.ndarray)}
        assert arrays, module.__name__
        for name, array in arrays.items():
            assert not array.flags.writeable, f"{module.__name__}.{name}"


def test_frames_must_name_distinct_circuit_qubits():
    c = Circuit(3, (Gate(RY, (0,), angle=0.3), Gate(H, (1,)), Gate(PHASE, (1,), angle=0.2),
                    Gate(MEASURE, (0, 1, 2))))
    assert outcome_distributions(c, (1, 0)).shape == (4, 8)
    assert outcome_distributions(c, np.array([1])).shape == (2, 8)
    assert np.array_equal(outcome_distributions(c)[0], outcome_distribution(c))
    # A repeated qubit, qubits outside the circuit, and qubit 2, which only MEASURE touches.
    for frames in ((0, 0), (1, 3), (-1,), (2,), (0, 2)):
        with pytest.raises(ValueError):
            outcome_distributions(c, frames)


def test_qubit_cap_enforced():
    big = Circuit(13, (Gate(H, (0,)), Gate(MEASURE, tuple(range(13)))))
    with pytest.raises(CapError):
        outcome_distribution(big)
    with pytest.raises(CapError):
        final_state(Circuit(13, (Gate(H, (0,)),)))
    # 13 live qubits out of 30: the cap counts the simulated width.
    wide = Circuit(30, (Gate(H, (0,)), Gate(MEASURE, tuple(range(0, 26, 2)))))
    with pytest.raises(CapError):
        outcome_distribution(wide)


def test_cap_refuses_before_building_an_operator():
    # 13 qubits live at once, all joining at one 13-wide open-controlled
    # phase; and a 12-wide one beside a 13th kept qubit. The cap is checked
    # on the peak live width before any operator is built: the 12-wide
    # phase vector alone would be 4^12 complex entries, 268 MB.
    wide = Circuit(13, (Gate(MCPHASE_OPEN, tuple(range(13)), angle=0.4), Gate(MEASURE, (0,))))
    beside = Circuit(13, (Gate(MCPHASE_OPEN, tuple(range(12)), angle=0.4), Gate(X, (12,))))
    for c in (wide, beside):
        tracemalloc.start()
        try:
            with pytest.raises(CapError, match="^13 qubits exceeds the simulation cap of 12$"):
                outcome_distribution(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_cap_counts_live_qubits_not_touched_ones():
    # A CZ chain over 30 qubits touches every one, but each discarded qubit
    # leaves after its second CZ: three live at once, and only the two ends
    # are measured.
    chain = [Gate(H, (0,))]
    for q in range(29):
        chain += [Gate(H, (q + 1,)), Gate(CZ, (q, q + 1))]
    c = Circuit(30, tuple(chain) + (Gate(MEASURE, (0, 29)),))
    assert pbrsim.simulate._schedule(_walk(c), (0, 29), ())[0][1] == 3
    ref = lifetime_distribution(c)
    assert np.abs(outcome_distribution(c) - ref).max() < DIFF_TOL


def test_measured_untouched_qubits_join_as_zero():
    # Qubit 4 is touched but not measured; qubits 0 and 2 are measured but untouched.
    c = Circuit(5, (Gate(X, (4,)), Gate(H, (1,)), Gate(MEASURE, (2, 1, 0))))
    probs = outcome_distribution(c)
    assert np.abs(probs - [0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]).max() < 1e-12


def test_outcome_distribution_simulates_touched_qubits_only():
    # 30 qubits is far over the cap, but only qubits 3 and 17 are live.
    c = Circuit(30, (Gate(X, (17,)), Gate(MEASURE, (17, 3))))
    assert outcome_distribution(c).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_outcome_distribution_without_measure_covers_all_qubits():
    c = Circuit(3, (Gate(X, (1,)),))
    probs = outcome_distribution(c)
    assert probs.shape == (8,)
    assert abs(probs[0b010] - 1.0) < 1e-12


def test_measured_qubits_in_listed_order():
    c = Circuit(3, (Gate(X, (2,)), Gate(MEASURE, (2, 0))))
    assert c.measured_qubits == (2, 0)
    probs = outcome_distribution(c)
    # qubit 2 is |1> and listed first, so outcome index 10 binary = 2
    assert probs.shape == (4,)
    assert abs(probs[2] - 1.0) < 1e-12


def test_marginal_distribution_orders_and_sums():
    # Unmeasured qubits are traced out; the kept ones come back in listed order.
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = random_noisy_circuit(rng, 3)
        gates = tuple(g for g in c.gates if g.kind != MEASURE)

        def measuring(*qubits):
            return outcome_distribution(Circuit(3, gates + (Gate(MEASURE, qubits),)))

        t = outcome_distribution(Circuit(3, gates)).reshape(2, 2, 2)
        keep01, keep10 = measuring(0, 1), measuring(1, 0)
        assert abs(keep01.sum() - 1.0) < 1e-12
        assert np.abs(keep01 - t.sum(axis=2).reshape(-1)).max() < 1e-12
        # swapping the kept qubits transposes the outcome index bits
        swapped = keep01.reshape(2, 2).T.reshape(-1)
        assert np.abs(keep10 - swapped).max() < 1e-12
        single = measuring(2)
        assert abs(single[1] - t[:, :, 1].sum()) < 1e-12


def test_full_measure_is_plain_distribution():
    theta = 0.7
    c = Circuit(1, (Gate(RY, (0,), angle=theta), Gate(MEASURE, (0,))))
    probs = outcome_distribution(c)
    assert abs(probs[0] - np.cos(theta / 2) ** 2) < 1e-12
    assert abs(probs[1] - np.sin(theta / 2) ** 2) < 1e-12

"""Circuit evolution: qubit lifetimes against a dense reference, cap, marginals, ordering."""

from dataclasses import replace

import numpy as np
import pytest

import pbrsim.simulate
from dense_reference import dense_distribution, dense_state
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
    SWAP,
    SX,
    X,
)
from pbrsim.errors import CapError
from pbrsim.harness import ExperimentConfig, sweep_distance
from pbrsim.noise import (
    NOISE_MODELS,
    CalibrationSnapshot,
    CouplerCalibration,
    QubitCalibration,
    amplitude_damping,
    attach_noise,
    dephasing,
    depolarizing_channel,
    uniform_calibration,
)
from pbrsim.protocol import PBRParams, build_test_circuit, input_angles, theta_min
from pbrsim.routing import line_map, route_linear
from pbrsim.simulate import _evolve, _operators, outcome_distribution, outcome_distributions

DIFF_TOL = 1e-12


def final_state(c):
    """The simulator's full n-qubit final state, every qubit kept in index order."""
    return next(_evolve(c, tuple(range(c.n_qubits))))[0]


def own_angles(c):
    """The angles of the circuit's angled gates, in circuit order."""
    return [g.angle for g in c.gates if g.kind in ANGLED_KINDS]


def with_angles(c, row):
    """`c` with the angles of its angled gates replaced by `row`, in circuit order."""
    row = iter(row)
    gates = [replace(g, angle=float(next(row))) if g.kind in ANGLED_KINDS else g for g in c.gates]
    return Circuit(c.n_qubits, tuple(gates))


def random_table(rng, c, extra):
    """`c`'s own angles as row 0, then `extra` rows of random angles."""
    own = np.array([own_angles(c)], dtype=float)
    return np.vstack([own, rng.uniform(-np.pi, np.pi, (extra, own.shape[1]))])


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
            kind = (CZ, SWAP, CPHASE_OPEN)[int(rng.integers(3))]
            qs = tuple(int(q) for q in rng.permutation(touched)[:2])
        else:
            kind = MCPHASE_OPEN
            k = int(rng.integers(2, len(touched) + 1))
            qs = tuple(int(q) for q in rng.permutation(touched)[:k])
        angle = float(rng.uniform(-np.pi, np.pi)) if kind in ANGLED_KINDS else None
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
    # One input per span, cycling through all four; dense span 9 takes ~20 s.
    params = PBRParams.solve(2, np.pi / 4)
    line = line_map(span + 1)
    cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
    routed = route_linear(build_test_circuit(span % 4, params), line, (0, span)).circuit
    noisy = attach_noise(routed, cal, model)
    assert np.abs(outcome_distribution(noisy) - dense_distribution(noisy)).max() < DIFF_TOL


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


def assert_batch_matches_one_at_a_time(c, table):
    batched = outcome_distributions(c, table)
    assert batched.shape == (len(table), 2 ** len(c.measured_qubits))
    for angles, row in zip(table, batched):
        assert np.array_equal(row, outcome_distributions(c, angles[None])[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_pbr_inputs_equal_one_at_a_time(n):
    params = PBRParams.solve(n, theta_min(n))
    ideal = build_test_circuit(0, params)
    assert_batch_matches_one_at_a_time(ideal, input_angles(params))
    cal = varied_calibration(n, seed=n)
    for model in NOISE_MODELS:
        assert_batch_matches_one_at_a_time(attach_noise(ideal, cal, model), input_angles(params))


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_batched_routed_inputs_equal_one_at_a_time(model):
    params = PBRParams.solve(2, np.pi / 4)
    for span in range(1, 10):
        line = line_map(span + 1)
        cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
        routed = route_linear(build_test_circuit(0, params), line, (0, span)).circuit
        assert_batch_matches_one_at_a_time(attach_noise(routed, cal, model), input_angles(params))


def assert_table_fits_each_input(inputs, table):
    # Row x is input x's own angles, and evolves to its own circuit's distribution.
    got = outcome_distributions(inputs[0], table)
    assert table.shape == (len(inputs), len(own_angles(inputs[0])))
    for x, c in enumerate(inputs):
        assert table[x].tolist() == own_angles(c)
        assert np.array_equal(got[x], outcome_distribution(c))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_input_angles_match_every_input_circuit(n):
    # Routing inserts only H and CZ, noise only NOISE: the table fits every form.
    for theta in (theta_min(n), 1.2):
        params = PBRParams.solve(n, theta)
        ideal = [build_test_circuit(x, params) for x in range(2**n)]
        assert_table_fits_each_input(ideal, input_angles(params))
        cal = varied_calibration(n, seed=n)
        for model in NOISE_MODELS:
            noisy = [attach_noise(c, cal, model) for c in ideal]
            assert_table_fits_each_input(noisy, input_angles(params))
        if n != 2:
            continue
        for span in range(1, 10):
            line = line_map(span + 1)
            routed = [route_linear(c, line, (0, span)).circuit for c in ideal]
            cal = uniform_calibration(span + 1, p1=2e-4, p2=2.4e-3, edges=line.edges)
            for model in NOISE_MODELS:
                noisy = [attach_noise(c, cal, model) for c in routed]
                assert_table_fits_each_input(noisy, input_angles(params))


def test_random_batches_match_dense_reference():
    rng = np.random.default_rng(77)
    for _ in range(60):
        template = random_noisy_circuit(rng, int(rng.integers(1, 7)))
        table = random_table(rng, template, int(rng.integers(1, 9)))
        got = outcome_distributions(template, table)
        for angles, row in zip(table, got):
            ref = dense_distribution(with_angles(template, angles))
            assert np.abs(row - ref).max() < DIFF_TOL


def test_chunked_batch_equals_one_chunk(monkeypatch):
    n = 5
    params = PBRParams.solve(n, theta_min(n))
    cal = varied_calibration(n, seed=9)
    noisy = attach_noise(build_test_circuit(0, params), cal, "depolarizing")
    table = input_angles(params)
    chunked = outcome_distributions(noisy, table)
    # Five live qubits: 8 inputs per chunk, and only one chunk's states at a time.
    keep = noisy.measured_qubits
    assert [len(states) for states in _evolve(noisy, keep, table)] == [8, 8, 8, 8]
    monkeypatch.setattr(pbrsim.simulate, "CHUNK_ENTRIES", 2**30)
    whole = outcome_distributions(noisy, table)
    monkeypatch.setattr(pbrsim.simulate, "CHUNK_ENTRIES", 1)
    single = outcome_distributions(noisy, table)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(chunked, single)


def random_run_circuit(rng, n):
    """Runs of operators on one target tuple each, measured in random order.

    Within a run, diagonal gates, full gates and channels on the same
    qubits alternate, so the schedule fuses them; angled gates vary
    across a batch. Runs on three or more qubits are MCPHASE_OPEN only.
    """
    one = (RZ, PHASE, H, SX, RY, X, "amplitude_damping", "dephasing", "depolarizing")
    two = (CZ, CPHASE_OPEN, MCPHASE_OPEN, SWAP, "depolarizing")
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
        table = random_table(rng, template, int(rng.integers(0, 5)))
        ops += sum(g.kind != MEASURE for g in template.gates)
        got = outcome_distributions(template, table)
        for angles, row in zip(table, got):
            ref = dense_distribution(with_angles(template, angles))
            assert np.abs(row - ref).max() < DIFF_TOL
        assert np.abs(final_state(template) - dense_state(template)).max() < DIFF_TOL
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
            table = random_table(rng, template, 3)
            for angles, row in zip(table, outcome_distributions(template, table)):
                ref = dense_distribution(with_angles(template, angles))
                assert np.abs(row - ref).max() < DIFF_TOL
            assert np.abs(final_state(template) - dense_state(template)).max() < DIFF_TOL


@pytest.mark.parametrize("model, per_chunk", [("ideal", 1), ("depolarizing", 8), ("thermodynamical", 1)])
def test_fused_schedule_kernel_calls_per_chunk(model, per_chunk, monkeypatch):
    # n=5: only the MCPHASE_OPEN and, under the depolarizing model, its seven
    # two-qubit channels reach the kernel. The single-qubit operators before
    # it build each qubit's joining state, those after it are read for their
    # populations only. 32 inputs run as 4 chunks of 8.
    params = PBRParams.solve(5, theta_min(5))
    circuit = build_test_circuit(0, params)
    if model != "ideal":  # the discovery circuit
        circuit = attach_noise(circuit, varied_calibration(5, seed=3), model)
    calls = record_kernel_calls(monkeypatch)
    outcome_distributions(circuit, input_angles(params))
    assert len(calls) == 4 * per_chunk
    assert all(n == 5 for _, _, n in calls)


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
        Gate(NOISE, (1,), channel=DEPH), Gate(H, (2,)), Gate(SWAP, (0, 2)),
        Gate(RZ, (0,), angle=0.3), Gate(MEASURE, (2, 0)),
    ]),
    # Qubits 0 and 3 are measured and no gate touches them.
    "measured_untouched": (4, [
        Gate(RY, (1,), angle=0.6), Gate(RY, (2,), angle=-0.2), Gate(CZ, (1, 2)),
        Gate(H, (2,)), Gate(NOISE, (2,), channel=AD), Gate(MEASURE, (3, 1, 0, 2)),
    ]),
    # Angled prefixes and suffixes, full and diagonal, vary by row; a diagonal-only
    # prefix and a diagonal-only suffix; no MEASURE, so every qubit is kept.
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
    table = random_table(np.random.default_rng(len(gates)), template, 5)
    widths = []
    kernel = pbrsim.simulate._apply

    def recording(mats, op, targets, n):
        widths.append(len(targets))
        return kernel(mats, op, targets, n)

    monkeypatch.setattr(pbrsim.simulate, "_apply", recording)
    got = outcome_distributions(template, table)
    # No qubit here has a single-qubit operator between two multi-qubit
    # ones, so none reaches the kernel on the distribution path.
    assert min(widths, default=2) >= 2
    monkeypatch.undo()
    states = np.concatenate(list(_evolve(template, keep, table)))
    for angles, row, state in zip(table, got, states):
        c = with_angles(template, angles)
        assert np.abs(row - dense_distribution(c)).max() < DIFF_TOL
        assert np.abs(state - reduced_state(dense_state(c), keep)).max() < DIFF_TOL


def test_unangled_operators_are_built_once_and_read_only():
    c = Circuit(2, (Gate(H, (0,)), Gate(CZ, (0, 1)), Gate(H, (0,)), Gate(H, (1,)), Gate(CZ, (1, 0))))
    ops = _operators(c, np.empty((1, 0)))
    assert ops[0] is ops[2] is ops[3] and ops[1] is ops[4]
    assert not any(op.flags.writeable for op in ops)
    with pytest.raises(ValueError):
        ops[0][0, 0, 0] = 0.0


def test_angle_table_must_fit_the_circuit():
    c = Circuit(2, (Gate(RY, (0,), angle=0.3), Gate(H, (1,)), Gate(PHASE, (1,), angle=0.2)))
    assert outcome_distributions(c, [[0.3, 0.2], [-0.3, 0.2]]).shape == (2, 4)
    assert np.array_equal(outcome_distributions(c, [[0.3, 0.2]]), outcome_distributions(c))
    bad = (
        [[0.3], [0.1]],  # one column per angled gate
        [[0.3, 0.2, 0.1]],
        [0.3, 0.2],  # 1-D
        np.empty((0, 2)),  # no rows
        [[0.3, np.nan]],
        [[np.inf, 0.2]],
    )
    for table in bad:
        with pytest.raises(ValueError):
            outcome_distributions(c, table)
    # A circuit without angled gates takes a table with zero columns.
    plain = Circuit(1, (Gate(H, (0,)),))
    assert outcome_distributions(plain, np.empty((3, 0))).shape == (3, 2)
    with pytest.raises(ValueError):
        outcome_distributions(plain, [[0.1]])


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

"""End-to-end experiment orchestration and shot statistics.

`run_experiment` and `analytic_report` take the same config, placed or
not, and share one prologue: the angles, input 0's circuit and its
routing, gate counts, both tolerance reports and the active threshold.
A run then attaches noise and reads the readout matrices, and only then
checks the forbidden outcomes (`protocol.check_forbidden_outcomes`, which
simulates the ideal circuit once per (n, theta) per process): every
calibration lookup comes before the first simulation. Input x's forbidden
outcome is x itself, so each row reads its own index. Input x is input 0
with a Z after the preparation of each qubit whose bit is set, so
`simulate.outcome_distributions` gives every input's distribution from
the one noisy circuit, the preparation qubits as its frames; readout
mixing and normalization run once on the (2^n, 2^m) table, and shot
counts (up to 2^63 - 1, the multinomial sampler's int64 limit) are
sampled from a per-input random stream seeded by (seed, input index), in
input order.

`sweep_distance` builds one homogenized line config per span; spans
needing more physical qubits than the cap get analytic reports, whose
gate counts and closed-form error prediction stand in for per-input
statistics. One rule judges both kinds: each bound (a per-input Wilson
upper bound, or the one prediction) passes only strictly below the
active threshold; `passed` says all pass, `pass_fraction` how many.

Reports render to a structured JSON document (sorted keys, so identical
configurations are byte-identical) and to a flat CSV, one row per input.
`render_doc` is the one JSON serializer; the CLI's other documents use it
too.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .bounds import ToleranceReport, epsilon_dep, tolerance_report
from .circuits import Circuit, gate_counts
from .config import (
    DEFAULT_CONFIDENCE,
    DEFAULT_SHOTS,
    DEFAULT_TWO_QUBIT_GATE_S,
    MAX_SPAN,
    SIMULATION_QUBIT_CAP,
)
from .errors import RangeError, ValidationError
from .noise import (
    CalibrationSnapshot,
    DEPOLARIZING,
    NOISE_MODELS,
    THERMODYNAMICAL,
    apply_readout,
    attach_noise,
    calibration_mean,
    readout_matrix,
    uniform_calibration,
)
from .protocol import PBRParams, build_test_circuit, check_forbidden_outcomes
from .routing import CouplingMap, line_map, route_linear, routed_gate_overhead
from .simulate import outcome_distributions

BIT_ORDER_NOTE = "qubit 0 is the most significant bit of every outcome index"
# The multinomial sampler draws counts as int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    theta: float
    model: str
    calibration: CalibrationSnapshot
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    coupling: CouplingMap | None = None
    placement: tuple[int, int] | None = None
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.model not in NOISE_MODELS:
            raise ValidationError(f"unknown noise model {self.model!r}")
        if self.shots < 1:
            raise ValidationError(f"shots={self.shots} must be >= 1")
        if self.shots > _MAX_SHOTS:
            raise ValidationError(f"shots={self.shots} must be <= {_MAX_SHOTS}")
        if self.seed < 0:
            raise ValidationError(f"seed={self.seed} must be >= 0")
        if self.n > SIMULATION_QUBIT_CAP:
            raise ValidationError(
                f"n={self.n} exceeds the simulation cap of {SIMULATION_QUBIT_CAP}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(f"confidence={self.confidence!r} outside (0, 1)")
        if (self.coupling is None) != (self.placement is None):
            raise ValidationError("coupling map and placement go together")
        if self.placement is not None and self.n != 2:
            raise ValidationError("routing applies to the two-qubit test only")


@dataclass(frozen=True)
class InputResult:
    input_index: int
    exact_probability: float
    count: int
    estimate: float
    ci_low: float
    ci_high: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    n: int
    theta: float
    alpha: float
    beta: float
    model: str
    shots: int
    seed: int
    confidence: float
    analytic_only: bool
    g1: int
    g2: int
    span: int | None
    placement: tuple[int, int] | None
    swap_count: int
    tol_dep: ToleranceReport
    tol_thermo: ToleranceReport
    active_tolerance: float
    inputs: tuple[InputResult, ...]
    mean_forbidden_exact: float | None
    predicted_error: float | None
    pass_fraction: float
    passed: bool


def _clipped_and_normalized(table) -> tuple[np.ndarray, np.ndarray]:
    """Clip probabilities to [0, 1], then scale each row (last axis) to sum 1.

    Returns the clipped and the normalized array. Tiny negative roundoff
    clips to zero; a row that sums to zero raises RangeError.
    """
    p = np.clip(np.asarray(table, dtype=float), 0.0, 1.0)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise RangeError("distribution sums to zero")
    return p, p / total


def sample_counts(probs, shots: int, seed) -> np.ndarray:
    """Multinomial draw over outcomes; deterministic for a given seed."""
    if shots < 0:
        raise RangeError(f"shots={shots} must be >= 0")
    _, p = _clipped_and_normalized(probs)
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p)


@functools.lru_cache(maxsize=16)
def _wilson_z(confidence: float) -> float:
    """Two-sided standard normal quantile for a confidence level."""
    return statistics.NormalDist().inv_cdf(0.5 + confidence / 2)


def wilson_interval(k: int, m: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for k successes in m trials."""
    if m < 1:
        raise RangeError(f"m={m} must be >= 1")
    if not 0 <= k <= m:
        raise RangeError(f"k={k} outside [0, {m}]")
    if not 0.0 < confidence < 1.0:
        raise RangeError(f"confidence={confidence!r} outside (0, 1)")
    z = _wilson_z(confidence)
    denom = m + z * z
    center = (k + z * z / 2) / denom
    half = z * math.sqrt(k * (m - k) / m + z * z / 4) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def _prologue(cfg: ExperimentConfig) -> tuple[PBRParams, Circuit, dict]:
    """Angles, input 0's circuit as it runs on the device, and shared fields.

    The circuit is routed when the config is placed, and span and swap
    count are read off the routing. Gate counts, both tolerance reports
    and the active threshold (chosen here, from the model) come from the
    routed circuit. The tolerance reports read the calibration, so a
    snapshot that misses a qubit or coupler fails before any simulation.
    """
    params = PBRParams.solve(cfg.n, cfg.theta)
    circuit = build_test_circuit(0, params)
    span, swap_count = None, 0
    if cfg.placement is not None:
        routed = route_linear(circuit, cfg.coupling, cfg.placement)
        circuit, span, swap_count = routed.circuit, len(routed.path) - 1, routed.swap_count
    g1, g2 = gate_counts(circuit)
    tol_dep = tolerance_report(params, cfg.calibration, circuit, DEPOLARIZING)
    tol_thermo = tolerance_report(params, cfg.calibration, circuit, THERMODYNAMICAL)
    fields = dict(
        n=cfg.n,
        theta=cfg.theta,
        alpha=params.alpha,
        beta=params.beta,
        model=cfg.model,
        shots=cfg.shots,
        seed=cfg.seed,
        confidence=cfg.confidence,
        g1=g1,
        g2=g2,
        span=span,
        placement=cfg.placement,
        swap_count=swap_count,
        tol_dep=tol_dep,
        tol_thermo=tol_thermo,
        active_tolerance=(tol_dep if cfg.model == DEPOLARIZING else tol_thermo).eps_tol_noisy,
    )
    return params, circuit, fields


def _judged(fields: dict, bounds, rows=(), **kind) -> ExperimentReport:
    """Finish a report by the one verdict rule, for both report kinds.

    A bound passes only strictly below the active threshold. An exact
    report gives one bound per input row; an analytic one, one and no rows.
    """
    active = fields["active_tolerance"]
    checks = [bool(b < active) for b in bounds]
    return ExperimentReport(
        **fields,
        **kind,
        inputs=tuple(
            InputResult(**row, tolerance=active, passed=ok) for row, ok in zip(rows, checks)
        ),
        pass_fraction=float(np.mean(checks)),
        passed=all(checks),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate all 2^n inputs under the configured noise and sample shots."""
    params, circuit, fields = _prologue(cfg)
    # Noise and readout read the calibration too, so a snapshot that misses
    # a qubit or coupler fails here, before anything is simulated.
    noisy = attach_noise(circuit, cfg.calibration, cfg.model)
    mats = [readout_matrix(cfg.calibration.qubit(q)) for q in noisy.measured_qubits]
    check_forbidden_outcomes(params)
    # Input x flips the preparation of the qubits of its set bits: logical
    # qubit j is prepared on placement[j] when the config is placed.
    dists = outcome_distributions(noisy, cfg.placement or range(cfg.n))
    # The same clip and normalization as sample_counts, once for the table.
    dists, p = _clipped_and_normalized(apply_readout(dists, mats))
    rows = []
    for x, dist in enumerate(dists):
        k = int(np.random.default_rng((cfg.seed, x)).multinomial(cfg.shots, p[x])[x])
        lo, hi = wilson_interval(k, cfg.shots, cfg.confidence)
        rows.append(
            dict(
                input_index=x,
                exact_probability=float(dist[x]),
                count=k,
                estimate=k / cfg.shots,
                ci_low=lo,
                ci_high=hi,
            )
        )
    return _judged(
        fields,
        [row["ci_high"] for row in rows],
        rows,
        analytic_only=False,
        mean_forbidden_exact=float(np.mean([row["exact_probability"] for row in rows])),
        predicted_error=None,
    )


def analytic_report(cfg: ExperimentConfig) -> ExperimentReport:
    """Closed-form stand-in for configurations too large to simulate.

    Counts gates and busy times on the circuit IR (routed when placed),
    predicts the observable error from the model (synthesized depolarizing
    error, or the cumulative damping estimate) and judges that prediction.
    """
    params, _, fields = _prologue(cfg)
    check_forbidden_outcomes(params)
    cal = cfg.calibration
    if cfg.model == DEPOLARIZING:
        p1 = float(np.mean([q.p1 for q in cal.qubits]))
        p2 = float(np.mean([c.p2 for c in cal.couplers])) if cal.couplers else 0.0
        predicted = epsilon_dep(p1, p2, fields["g1"], fields["g2"])
    else:
        predicted = fields["tol_thermo"].eps_dec_cumulative
    return _judged(
        fields,
        [predicted],
        analytic_only=True,
        mean_forbidden_exact=None,
        predicted_error=float(predicted),
    )


def _line_calibration(cal: CalibrationSnapshot, n_phys: int) -> CalibrationSnapshot:
    """Homogenized line device from the snapshot's mean parameters."""
    q = cal.qubits
    p2, two = 0.0, DEFAULT_TWO_QUBIT_GATE_S
    if cal.couplers:
        p2 = calibration_mean(c.p2 for c in cal.couplers)
        two = calibration_mean(c.duration for c in cal.couplers)
    return uniform_calibration(
        n_phys,
        t1=calibration_mean(x.t1 for x in q),
        t2=calibration_mean(x.t2 for x in q),
        p1=calibration_mean(x.p1 for x in q),
        p2=p2,
        p01=calibration_mean(x.readout_p01 for x in q),
        p10=calibration_mean(x.readout_p10 for x in q),
        single=calibration_mean(x.single_gate_duration for x in q),
        two=two,
        readout=cal.readout_duration,
        edges=tuple((i, i + 1) for i in range(n_phys - 1)),
    )


def check_span(s: int) -> None:
    """Raise RangeError unless a sweep span lies in 1..MAX_SPAN."""
    if not 1 <= s <= MAX_SPAN:
        raise RangeError(f"span {s} is outside 1..{MAX_SPAN}")


def sweep_distance(cfg: ExperimentConfig, spans) -> list[ExperimentReport]:
    """One report per span on a homogenized line device.

    Every span must lie in 1..MAX_SPAN; all are checked before the first
    runs. Spans needing more physical qubits than the cap come back as
    analytic-only reports instead of failing.
    """
    if cfg.n != 2:
        raise ValidationError("distance sweeps run the two-qubit test")
    spans = list(spans)
    for s in spans:
        check_span(s)
    reports = []
    for s in spans:
        line = replace(
            cfg,
            calibration=_line_calibration(cfg.calibration, s + 1),
            coupling=line_map(s + 1),
            placement=(0, s),
        )
        exact = s + 1 <= SIMULATION_QUBIT_CAP
        reports.append((run_experiment if exact else analytic_report)(line))
    return reports


def _bits(index: int, n: int) -> str:
    return format(index, f"0{n}b")


def tolerance_to_dict(t: ToleranceReport) -> dict:
    """The scalar threshold fields every tolerance document carries."""
    return {
        "model": t.model,
        "d_quantum": t.d_quantum,
        "d_noisy": t.d_noisy,
        "eps_tol_ideal": t.eps_tol_ideal,
        "eps_tol_noisy": t.eps_tol_noisy,
        "eps_tol_noisy_spread": t.eps_tol_noisy_spread,
        "eps_dep": t.eps_dep,
        "eps_dec": t.eps_dec,
        "eps_dec_cumulative": t.eps_dec_cumulative,
    }


def report_to_dict(r: ExperimentReport) -> dict:
    n = r.n
    return {
        "kind": "pbr-experiment",
        "bit_order": BIT_ORDER_NOTE,
        "n": r.n,
        "theta": r.theta,
        "alpha": r.alpha,
        "beta": r.beta,
        "model": r.model,
        "shots": r.shots,
        "seed": r.seed,
        "confidence": r.confidence,
        "analytic_only": r.analytic_only,
        "forbidden_map": {_bits(x, n): _bits(x, n) for x in range(2**n)},
        "gate_counts": {"g1": r.g1, "g2": r.g2},
        "routing": None
        if r.span is None
        else {
            "placement": list(r.placement),
            "span": r.span,
            "swap_count": r.swap_count,
            "extra_g1": routed_gate_overhead(r.span)[0],
            "extra_g2": routed_gate_overhead(r.span)[1],
        },
        "tolerances": {
            "depolarizing": tolerance_to_dict(r.tol_dep),
            "thermodynamical": tolerance_to_dict(r.tol_thermo),
            "active": r.active_tolerance,
        },
        "inputs": [
            {
                "input": _bits(row.input_index, n),
                "forbidden": _bits(row.input_index, n),
                "exact_probability": row.exact_probability,
                "count": row.count,
                "estimate": row.estimate,
                "ci_low": row.ci_low,
                "ci_high": row.ci_high,
                "tolerance": row.tolerance,
                "pass": row.passed,
            }
            for row in r.inputs
        ],
        "mean_forbidden_exact": r.mean_forbidden_exact,
        "predicted_error": r.predicted_error,
        "pass_fraction": r.pass_fraction,
        "passed": r.passed,
    }


def render_doc(doc: dict) -> str:
    """Serialize a report document: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_json(r: ExperimentReport) -> str:
    return render_doc(report_to_dict(r))


def render_sweep_json(reports) -> str:
    return render_doc(
        {"kind": "pbr-distance-sweep", "reports": [report_to_dict(r) for r in reports]}
    )


_CSV_FIELDS = (
    "span",
    "input",
    "forbidden",
    "exact_probability",
    "count",
    "estimate",
    "ci_low",
    "ci_high",
    "tolerance",
    "predicted_error",
    "pass",
)


def render_csv(reports) -> str:
    """Flat per-input table; analytic reports contribute one summary row."""
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, restval="", lineterminator="\n")
    writer.writeheader()
    for r in reports:
        span = "" if r.span is None else r.span
        if r.analytic_only:
            writer.writerow(
                {
                    "span": span,
                    "tolerance": r.active_tolerance,
                    "predicted_error": r.predicted_error,
                    "pass": r.passed,
                }
            )
        for row in report_to_dict(r)["inputs"]:
            writer.writerow({"span": span, **row})
    return buf.getvalue()

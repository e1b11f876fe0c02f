"""End-to-end experiment orchestration and shot statistics.

A run solves the angles, builds, routes (if placed) and attaches noise
to input 0's circuit once, reads the readout matrices and tolerance
inputs, and only then discovers the forbidden map: every calibration
lookup comes before the first simulation. The 2^n inputs differ only in
their preparation angles, so `simulate.outcome_distributions` evolves
the one noisy circuit under the `protocol.input_angles` table as one
stack; the (2^n, 2^m) table of distributions is pushed through the
readout matrices in one call, and shot counts are sampled from a
per-input random stream seeded by (seed, input index), in input order.
The simulator evolves each qubit only between its first and last gate;
the cap counts touched plus measured qubits. Shot counts run up to
2^63 - 1, the multinomial sampler's int64 limit. The per-input verdict
compares the Wilson upper confidence bound against the noisy tolerance
threshold, strictly.

Sweep spans needing more physical qubits than the simulation cap
degrade to analytic-only reports: gate counts and closed-form error
predictions stand in for per-input statistics (the full-span case of a
large device is never simulated exactly). There the verdict compares the
predicted model error against the same threshold.

Reports render to a structured JSON document (sorted keys, so identical
configurations are byte-identical) and to a flat CSV, one row per input.
`render_doc` is the one JSON serializer; the CLI's other documents use it
too.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass

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
    readout_matrix,
    uniform_calibration,
)
from .protocol import (
    ForbiddenMap,
    PBRParams,
    build_test_circuit,
    discover_forbidden_map,
    input_angles,
)
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
    forbidden_index: int
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
    forbidden_map: ForbiddenMap
    g1: int
    g2: int
    span: int | None
    placement: tuple[int, int] | None
    swap_count: int
    tol_dep: ToleranceReport
    tol_thermo: ToleranceReport
    inputs: tuple[InputResult, ...]
    mean_forbidden_exact: float | None
    predicted_error: float | None
    pass_fraction: float
    passed: bool

    @property
    def active_tolerance(self) -> float:
        tol = self.tol_dep if self.model == DEPOLARIZING else self.tol_thermo
        return tol.eps_tol_noisy


def sample_counts(probs, shots: int, seed) -> np.ndarray:
    """Multinomial draw over outcomes; deterministic for a given seed."""
    if shots < 0:
        raise RangeError(f"shots={shots} must be >= 0")
    p = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    total = p.sum()
    if total <= 0:
        raise RangeError("distribution sums to zero")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / total)


def wilson_interval(k: int, m: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for k successes in m trials."""
    if m < 1:
        raise RangeError(f"m={m} must be >= 1")
    if not 0 <= k <= m:
        raise RangeError(f"k={k} outside [0, {m}]")
    if not 0.0 < confidence < 1.0:
        raise RangeError(f"confidence={confidence!r} outside (0, 1)")
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2)
    denom = m + z * z
    center = (k + z * z / 2) / denom
    half = z * np.sqrt(k * (m - k) / m + z * z / 4) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def _shared_fields(
    cfg: ExperimentConfig, params: PBRParams, cal: CalibrationSnapshot, circuit: Circuit
) -> tuple[dict, float]:
    """Report fields both paths derive alike, and the active threshold.

    `circuit` is input 0's circuit as it runs on the device (routed when
    placed); gate counts and both tolerance reports come from it. The
    calibration lookups come first, so a snapshot that misses a qubit or
    coupler fails before the forbidden map is simulated.
    """
    g1, g2 = gate_counts(circuit)
    tol_dep = tolerance_report(params, cal, circuit, DEPOLARIZING)
    tol_thermo = tolerance_report(params, cal, circuit, THERMODYNAMICAL)
    fmap = discover_forbidden_map(params)
    fields = dict(
        n=cfg.n,
        theta=cfg.theta,
        alpha=params.alpha,
        beta=params.beta,
        model=cfg.model,
        shots=cfg.shots,
        seed=cfg.seed,
        confidence=cfg.confidence,
        forbidden_map=fmap,
        g1=g1,
        g2=g2,
        tol_dep=tol_dep,
        tol_thermo=tol_thermo,
    )
    active = (tol_dep if cfg.model == DEPOLARIZING else tol_thermo).eps_tol_noisy
    return fields, active


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Simulate all 2^n inputs under the configured noise and sample shots."""
    params = PBRParams.solve(cfg.n, cfg.theta)
    circuit = build_test_circuit(0, params)
    span, swap_count = None, 0
    if cfg.placement is not None:
        routed = route_linear(circuit, cfg.coupling, cfg.placement)
        circuit, span, swap_count = routed.circuit, len(routed.path) - 1, routed.swap_count
    # Noise reads the calibration, so a snapshot that misses a qubit or
    # coupler fails here, before anything is simulated.
    noisy = attach_noise(circuit, cfg.calibration, cfg.model)
    mats = [readout_matrix(cfg.calibration.qubit(q)) for q in noisy.measured_qubits]
    fields, active = _shared_fields(cfg, params, cfg.calibration, circuit)
    fmap = fields["forbidden_map"]
    dists = outcome_distributions(noisy, input_angles(params))
    dists = np.clip(apply_readout(dists, mats), 0.0, 1.0)
    rows = []
    for x, dist in enumerate(dists):
        exact = float(dist[fmap[x]])
        counts = sample_counts(dist, cfg.shots, (cfg.seed, x))
        k = int(counts[fmap[x]])
        lo, hi = wilson_interval(k, cfg.shots, cfg.confidence)
        rows.append(
            InputResult(
                input_index=x,
                forbidden_index=fmap[x],
                exact_probability=exact,
                count=k,
                estimate=k / cfg.shots,
                ci_low=lo,
                ci_high=hi,
                tolerance=active,
                passed=bool(hi < active),
            )
        )

    return ExperimentReport(
        **fields,
        analytic_only=False,
        span=span,
        placement=cfg.placement,
        swap_count=swap_count,
        inputs=tuple(rows),
        mean_forbidden_exact=float(np.mean([r.exact_probability for r in rows])),
        predicted_error=None,
        pass_fraction=float(np.mean([r.passed for r in rows])),
        passed=all(r.passed for r in rows),
    )


def analytic_report(cfg: ExperimentConfig, span: int) -> ExperimentReport:
    """Closed-form stand-in for configurations too large to simulate.

    Builds the routed circuit IR on a line of span+1 qubits to count
    gates and busy times, then predicts the observable error from the
    model (synthesized depolarizing error, or the cumulative damping
    estimate) and compares it against the noisy tolerance.
    """
    params = PBRParams.solve(cfg.n, cfg.theta)
    cal = _line_calibration(cfg.calibration, span + 1)
    circuit = route_linear(
        build_test_circuit(0, params), line_map(span + 1), (0, span)
    ).circuit
    fields, active = _shared_fields(cfg, params, cal, circuit)

    if cfg.model == DEPOLARIZING:
        p1 = float(np.mean([q.p1 for q in cal.qubits]))
        p2 = float(np.mean([c.p2 for c in cal.couplers])) if cal.couplers else 0.0
        predicted = epsilon_dep(p1, p2, fields["g1"], fields["g2"])
    else:
        predicted = fields["tol_thermo"].eps_dec_cumulative
    passed = bool(predicted < active)
    return ExperimentReport(
        **fields,
        analytic_only=True,
        span=span,
        placement=(0, span),
        swap_count=span - 1,
        inputs=(),
        mean_forbidden_exact=None,
        predicted_error=float(predicted),
        pass_fraction=1.0 if passed else 0.0,
        passed=passed,
    )


def _line_calibration(cal: CalibrationSnapshot, n_phys: int) -> CalibrationSnapshot:
    """Homogenized line device from the snapshot's mean parameters."""
    q = cal.qubits
    mean = lambda vals: float(np.mean(list(vals)))  # noqa: E731
    p2, two = 0.0, DEFAULT_TWO_QUBIT_GATE_S
    if cal.couplers:
        p2 = mean(c.p2 for c in cal.couplers)
        two = mean(c.duration for c in cal.couplers)
    return uniform_calibration(
        n_phys,
        t1=mean(x.t1 for x in q),
        t2=mean(x.t2 for x in q),
        p1=mean(x.p1 for x in q),
        p2=p2,
        p01=mean(x.readout_p01 for x in q),
        p10=mean(x.readout_p10 for x in q),
        single=mean(x.single_gate_duration for x in q),
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
        n_phys = s + 1
        if n_phys <= SIMULATION_QUBIT_CAP:
            cal = _line_calibration(cfg.calibration, n_phys)
            sub = ExperimentConfig(
                n=cfg.n,
                theta=cfg.theta,
                model=cfg.model,
                calibration=cal,
                shots=cfg.shots,
                seed=cfg.seed,
                coupling=line_map(n_phys),
                placement=(0, s),
                confidence=cfg.confidence,
            )
            reports.append(run_experiment(sub))
        else:
            reports.append(analytic_report(cfg, s))
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
        "forbidden_map": {
            _bits(x, n): _bits(y, n) for x, y in enumerate(r.forbidden_map.mapping)
        },
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
                "forbidden": _bits(row.forbidden_index, n),
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

"""Command line front end.

Subcommands:

  solve-angles     print the measurement angles for (n, theta)
  tolerance        print tolerance thresholds for a calibration file
  run              simulate every input and report the test verdict
  sweep-distance   repeat the two-qubit run across line placements

Exit status is 0 when the requested check passes (informational commands
always pass on success), 1 when an experiment runs to completion but
fails the test, and 2 on bad arguments, malformed files, or any other
error.

`entry` is the process entry: the `pbrsim` console script and
`python -m pbrsim.cli` both go through it. It loads the run path
(`harness`, and with it numpy, `noise`, `protocol` and `bounds`) with the
cyclic collector off, freezes what loaded and turns the collector back
on before it calls `main`. Those module-level objects live until exit,
so neither the collections that loading would trigger nor the
interpreter's exit-time full collection need to walk them; the command
itself runs under the usual collector. `main(argv)` is the in-process
API and leaves the collector as it finds it. So that the console
script's `import pbrsim.cli` loads no numpy, each command imports the
layers it uses when it runs.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .config import DEFAULT_CONFIDENCE, DEFAULT_SHOTS, DEPOLARIZING, THERMODYNAMICAL

_MODEL_ALIASES = {"dep": DEPOLARIZING, "thermo": THERMODYNAMICAL}
_MODEL_CHOICES = (DEPOLARIZING, THERMODYNAMICAL, "dep", "thermo")


def _model(name: str) -> str:
    return _MODEL_ALIASES.get(name, name)


def _theta(args) -> float:
    from .protocol import theta_min

    base = theta_min(args.n) if args.theta is None else args.theta
    return base * args.theta_scale


def _parse_place(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--place wants two qubits like 3,7 (got {text!r})") from None


def _parse_spans(text: str) -> list[int]:
    from .harness import check_span

    def span(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"--spans wants spans like 1,4 or 1..8 (got {text!r})") from None

    spans: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = (span(end) for end in part.split("..", 1))
            check_span(lo)  # both ends before expanding: no list of 10^8 spans
            check_span(hi)
            spans.extend(range(lo, hi + 1))
        else:
            spans.append(span(part))
    if not spans:
        raise ValueError(f"no spans in {text!r}")
    return spans


def _emit(text: str, args, reports=()) -> int:
    """Write the CSV of `reports` and the JSON; exit 1 if any report failed.

    The files come first: a path that cannot be written exits 2 with
    stdout empty. Informational commands pass no reports and exit 0.
    """
    from .harness import render_csv

    if reports and args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_csv(reports))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_solve_angles(args) -> int:
    from .harness import render_doc
    from .protocol import solved, theta_min

    theta = _theta(args)
    params = solved(args.n, theta)
    doc = {
        "kind": "pbr-angles",
        "n": args.n,
        "theta": theta,
        "theta_min": theta_min(args.n),
        "alpha": params.alpha,
        "beta": params.beta,
    }
    return _emit(render_doc(doc), args)


def _cmd_tolerance(args) -> int:
    from dataclasses import asdict

    from .bounds import tolerance_reports
    from .harness import render_doc
    from .noise import NOISE_MODELS, load_calibration
    from .protocol import solved

    theta = _theta(args)
    params = solved(args.n, theta)
    cal = load_calibration(args.calib)
    # The walk reads qubits 0..n-1: a missing one fails before the n-qubit
    # circuit is built.
    for q in range(args.n):
        cal.qubit(q)
    pair = tolerance_reports(params, cal, params.test_circuit)
    rep = pair[NOISE_MODELS.index(_model(args.model))]
    return _emit(render_doc({"kind": "pbr-tolerance", "theta": theta, **asdict(rep)}), args)


def _experiment_config(args):
    from .harness import ExperimentConfig
    from .noise import load_calibration

    coupling = placement = None
    if args.map or args.place:
        if not (args.map and args.place):
            raise ValueError("--map and --place go together")
        from .routing import load_coupling_map  # unplaced runs never route

        coupling = load_coupling_map(args.map)
        placement = _parse_place(args.place)
    return ExperimentConfig(
        n=args.n,
        theta=_theta(args),
        model=_model(args.model),
        calibration=load_calibration(args.calib),
        shots=args.shots,
        seed=args.seed,
        coupling=coupling,
        placement=placement,
        confidence=args.confidence,
    )


def _cmd_run(args) -> int:
    from .harness import render_json, run_experiment

    report = run_experiment(_experiment_config(args))
    return _emit(render_json(report), args, [report])


def _cmd_sweep(args) -> int:
    from .harness import render_sweep_json, sweep_distance

    reports = sweep_distance(_experiment_config(args), _parse_spans(args.spans))
    return _emit(render_sweep_json(reports), args, reports)


def _add_theta_args(sub, with_n: bool = True) -> None:
    if with_n:
        sub.add_argument("--n", type=int, required=True, help="number of test qubits")
    sub.add_argument(
        "--theta", type=float, default=None, help="preparation angle (default: theta_min)"
    )
    sub.add_argument(
        "--theta-scale", type=float, default=1.0, help="multiplier applied to theta"
    )


def _add_experiment_args(sub) -> None:
    sub.add_argument("--calib", required=True, help="calibration snapshot JSON")
    sub.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    sub.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    sub.add_argument("--csv", default=None, help="also write a per-input CSV here")


def build_parser() -> argparse.ArgumentParser:
    # A literal, not the module docstring: `python -OO` strips docstrings.
    parser = argparse.ArgumentParser(prog="pbrsim", description="Command line front end.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve-angles", help="print alpha and beta for (n, theta)")
    _add_theta_args(p)
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(func=_cmd_solve_angles)

    p = subs.add_parser("tolerance", help="print tolerance thresholds")
    _add_theta_args(p)
    p.add_argument("--calib", required=True, help="calibration snapshot JSON")
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tolerance)

    p = subs.add_parser("run", help="simulate the test end to end")
    _add_theta_args(p)
    _add_experiment_args(p)
    p.add_argument("--map", default=None, help="coupling map JSON for routed runs")
    p.add_argument("--place", default=None, help="physical placement A,B for routed runs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("sweep-distance", help="two-qubit runs across line spans")
    _add_theta_args(p, with_n=False)
    _add_experiment_args(p)
    p.add_argument("--spans", required=True, help="comma list or range like 1..8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep, n=2, map=None, place=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> int:
    """Run one command as a process: `main(argv)` with the run path loaded and frozen."""
    gc.disable()
    from . import harness  # noqa: F401  (every command's run path, loaded once)

    gc.freeze()
    gc.enable()
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry())

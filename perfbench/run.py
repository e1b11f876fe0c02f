"""pbrsim benchmark: one workload per run, checked, with every metric named.

    python3 perfbench/run.py --workload {pair_cli,five_qubit,line_sweep} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is this file's parent directory and
the program is imported from its ``src``. ``--trace 0`` measures the
end-to-end metrics with tracing off. ``--trace 1`` is the separate traced
run that gives the per-layer metrics, per op. ``--seconds 0`` runs a single
op (one cycle), as the smoke check does. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it name every metric with its unit, including those
reported only here (failed_frac, op_s.tail and per-layer times of layers a
workload does not reach). A full record, spans included, is written to
``.bench_out/`` in the repository root. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_probe.p50": "probe",
    "peak_rss_mb": "MB",
}
# per-layer metrics reported by every workload; per op unless noted
PER_LAYER = {
    "pbrsim.import_s": "s",
    "pbrsim.import.numpy_s": "s",
    "pbrsim.import.scipy_s": "s",
    "states.apply_channel.calls": "count",
    "states.apply_channel.s": "s",
    "states.kraus_ops": "count",
    "states.apply_unitary.calls": "count",
    "states.apply_unitary.s": "s",
    "states.bytes_computed": "bytes",
    "simulate.simulate_circuit.calls": "count",
    "simulate.simulate_circuit.self_s": "s",
    "simulate.peak_qubits": "qubits",
    "noise.attach_noise.self_s": "s",
    "noise.channels_built": "count",
    "noise.channels_distinct": "count",
    "noise.channel_build_s": "s",
    "noise.apply_readout.s": "s",
    "protocol.solve_angles.calls": "count",
    "protocol.solve_angles.s": "s",
    "protocol.discover_forbidden_map.self_s": "s",
    "protocol.build_test_circuit.calls": "count",
    "routing.route_linear.calls": "count",
    "bounds.tolerance_report.calls": "count",
    "bounds.tolerance_report.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.sample_counts.s": "s",
    "harness.wilson_interval.s": "s",
    "harness.render.s": "s",
    "bench.trace_overhead_frac": "frac",
}
# Per-layer times printed but kept off the result line: zero on some
# workloads, where a time would read exactly 0 on every run.
DETAIL = {
    "noise.load_calibration.s": "s",
    "routing.route_linear.s": "s",
    "harness.analytic_report.s": "s",
    "cli.main.self_s": "s",
}


def parse_importtime(text: str) -> dict:
    """Inclusive import seconds of pbrsim, numpy and scipy from -X importtime.

    Lines come children-first; read in reverse they are parent-first, so a
    stack by depth gives each module's ancestors. A package's time is the
    cumulative time of its outermost modules. numpy modules that scipy
    imports count as scipy's, so numpy_s + scipy_s stays within pbrsim's.
    """
    totals = {"pbrsim": 0.0, "numpy": 0.0, "scipy": 0.0}
    deps = {"numpy", "scipy"}
    stack: list[str] = []
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name_field = parts[2].rstrip()
        name = name_field.lstrip()
        depth = (len(name_field) - len(name) - 1) // 2
        del stack[depth:]
        top = name.split(".")[0]
        outer = {m.split(".")[0] for m in stack}
        if top in totals and not outer & ({top} | (deps if top in deps else set())):
            totals[top] += int(parts[1]) * 1e-6
        stack.append(name)
    return totals


def fresh_setup(workload: str, out_dir: Path) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter until the inputs are loaded."""
    from workloads import child_env

    err_path = out_dir / f"importtime-{workload}.txt"
    cmd = [sys.executable, "-X", "importtime", str(HERE / "setup_child.py"), str(ROOT), workload]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(ROOT),
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        code = proc.wait()
    text = err_path.read_text(errors="replace")
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up child for {workload} failed (exit {code}):\n{text[-2000:]}")
    return elapsed, parse_importtime(text)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.split()[-1].startswith("/")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out["threads"] = fn()
                    return out
    except OSError:
        pass
    return out


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_record(args, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "loadavg_at_start": load_start,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it (none below p50)."""
    n = len(durations)
    if n < 20:
        return None
    ordered = sorted(durations)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


def run_op(fn, ctx, i: int, seed: int):
    """One op; an exception becomes a failed output, timed up to the raise."""
    from workloads import Output

    t0 = time.perf_counter()
    try:
        return fn(ctx, i, seed)
    except Exception:  # noqa: BLE001 - the loop keeps running and counts it
        return time.perf_counter() - t0, Output(seed, [], error=traceback.format_exc())


def timed_loop(wl, ctx, seconds: float, seeds, tracer=None) -> list[dict]:
    """Closed loop for ``seconds`` of wall time; the traced run alternates cycles.

    Untraced, each op is bracketed by probe samples (see ``workloads.py``).
    Its time is also given relative to the median of the samples just
    before and after it, which cancels most of the machine's speed drift.
    """
    if tracer is None:
        op, sample, repeats = wl.op, wl.probe, wl.probe_repeats
    else:  # in-process ops, compared only with their untraced neighbours
        op, sample, repeats = wl.inproc_op, lambda ctx: 1.0, 1

    def probe() -> list[float]:
        return [sample(ctx) for _ in range(repeats)]

    ops: list[dict] = []
    start = time.perf_counter()
    before = probe()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True) if tracer is not None else (False,):
            if traced:
                tracer.install()
            try:
                for j in range(wl.cycle):
                    if traced:
                        tracer.begin_op()
                    dt, out = run_op(op, ctx, i + j, next(seeds))
                    if traced:
                        tracer.end_op()
                    after = probe()
                    ops.append({"s": dt, "probe": dt / statistics.median(before + after),
                                "probe_s": after, "traced": traced, "out": out})
                    before = after
            finally:
                if traced:
                    tracer.uninstall()
        i += wl.cycle
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbrsim" / "__init__.py").is_file():
        print(f"error: no pbrsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from check import check_output, load_references
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    machine = machine_record(args, os.getloadavg())
    refs = load_references()

    setups = [fresh_setup(wl.name, out_dir) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _ in setups)

    ctx = wl.load(ROOT)
    import pbrsim

    if Path(pbrsim.__file__).resolve().parent != ROOT / "src" / "pbrsim":
        print(f"error: imported pbrsim from {pbrsim.__file__}", file=sys.stderr)
        return 2

    rng = random.Random(f"{wl.name}:{args.seed}")
    seeds = iter(lambda: rng.randrange(2**31), None)
    outputs = []
    warm = run_op(lambda c, i, s: (0.0, wl.warmup(c, s)), ctx, -1, next(seeds))[1]
    if warm is not None:
        outputs.append(warm)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    t_phase = time.perf_counter()
    ops = timed_loop(wl, ctx, args.seconds, seeds, tracer)
    phase_wall = time.perf_counter() - t_phase
    outputs += [o["out"] for o in ops]

    problems = [(k, check_output(out, refs)) for k, out in enumerate(outputs)]
    failed = sum(1 for _, p in problems if p)
    attempted = len(outputs)
    machine["ops"] = {"timed": len(ops), "warmup": 1 if warm is not None else 0}

    durations = [o["s"] for o in ops if not o["traced"]]
    # name -> (value, unit); the result line carries the names BENCHMARK.json lists
    found = {
        "failed_frac": (failed / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "inputs_per_s": (wl.inputs_per_op * len(durations) / sum(durations), "1/s"),
    }
    op_tail = tail(durations)
    if tracer is None:
        relative = [o["probe"] for o in ops]
        found["op_probe.p50"] = (statistics.median(relative), "probe")
        found["inputs_per_probe"] = (wl.inputs_per_op * len(relative) / sum(relative), "1/probe")
        found["probe_s.p50"] = (statistics.median(x for o in ops for x in o["probe_s"]), "s")
        if wl.name == "pair_cli":
            peak_kb = max(o["out"].rss_kb or 0 for o in ops)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        found["peak_rss_mb"] = (peak_kb / 1024, "MB")
        result_names = END_TO_END
    else:
        found.update((k, (v, PER_LAYER.get(k) or DETAIL[k])) for k, v in tracer.per_op().items())
        imports = {k: statistics.median(t[k] for _, t in setups) for k in setups[0][1]}
        found["pbrsim.import_s"] = (imports["pbrsim"], "s")
        found["pbrsim.import.numpy_s"] = (imports["numpy"], "s")
        found["pbrsim.import.scipy_s"] = (imports["scipy"], "s")
        traced = [o["s"] for o in ops if o["traced"]]
        found["bench.trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(durations) - 1, "frac")
        result_names = PER_LAYER
    metrics = {k: found[k][0] for k in result_names}

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {wl.name}: seed {args.seed}, {attempted} ops checked "
          f"({machine['ops']['warmup']} warm-up), {failed} failed, "
          f"timed phase {phase_wall:.2f} s wall")
    if tracer is not None and tracer.absent:
        print("absent (not wrapped): " + ", ".join(tracer.absent))
    for k, p in problems:
        for msg in p[:5]:
            print(f"  op {k} failed: {msg}")
    for name, (value, unit) in found.items():
        print(f"  {name:40s} {value!r} {unit}")
    if op_tail is None:
        print(f"  {'op_s.tail':40s} omitted (fewer than 20 ops)")
    else:
        print(f"  {'op_s.tail':40s} {op_tail['value']!r} s at "
              f"p{op_tail['percentile']:.1f} of {op_tail['ops']} ops")

    record = {"machine": machine, "metrics": found, "op_s.tail": op_tail,
              "setup_s": [s for s, _ in setups],
              "ops": [{k: v for k, v in o.items() if k != "out"} for o in ops],
              "problems": problems}
    if tracer is not None:
        record["trace"] = tracer.dump()
    (out_dir / f"{wl.name}-trace{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": result_names[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

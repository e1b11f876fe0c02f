"""The benchmark's three workloads: their inputs, one operation and a probe each.

Every workload is a closed loop with one client: run.py runs one op,
waits for it, then runs the next. An op returns what the program printed
or rendered, so the output check (check.py) can run after the timed
phase. This module imports only the standard library at load time; the
``pbrsim`` imports happen inside ``load`` so a fresh setup child can charge
them to ``pbrsim`` under ``-X importtime``.

A probe is a fixed piece of work of the same kind as the workload's op,
in benchmark code only, timed between ops. On a shared machine the speed
of the same work drifts by tens of percent over tens of seconds; op time
over probe time cancels most of that drift, and since the probe does not
run the program it reads the same at any commit.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

PAIR_CALIB = "demos/data/adjacent_pair.json"
PAIR_SHOTS = 100_000
FIVE_SHOTS = 200_000
LINE_SHOTS = 2000
# Spans 8 and 9 cost ~19 s and ~83 s at the seed commit; every later check
# runs each workload 22 times, so the sweep stops at span 7. Span 154 is over
# the simulation cap and covers the analytic path.
LINE_SPANS = tuple(range(1, 8)) + (154,)
LINE_WARMUP_SPANS = (1, 2, 154)


@dataclass
class Output:
    """What one op produced: rendered reports keyed for the check."""

    seed: int
    docs: list  # (reference key, rendered JSON text)
    exit_code: int | None = None  # CLI ops only
    rss_kb: int | None = None  # CLI child peak RSS
    spans: tuple | None = None  # sweep ops: the spans asked for, in order
    error: str | None = None


@dataclass
class Context:
    root: Path
    modules: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CPU_PROBE_REPEATS = 3  # one ~37 ms sample is noisy; the median of three is not


def cpu_probe(ctx: "Context") -> float:
    """An interpreter loop plus small numpy contractions, like an in-process op."""
    import numpy as np

    rng = np.random.default_rng(0)
    state = rng.standard_normal((2,) * 10) + 0j
    op = rng.standard_normal((2,) * 4) + 0j
    t0 = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k
    for _ in range(600):
        t = np.tensordot(op, state, axes=((2, 3), (1, 3)))
        t = np.moveaxis(t, (0, 1), (1, 3))
    return time.perf_counter() - t0


def _pair_argv(i: int, seed: int, calib: str) -> list[str]:
    model = "dep" if i % 2 == 0 else "thermo"
    return ["run", "--n", "2", "--calib", calib, "--shots", str(PAIR_SHOTS),
            "--model", model, "--seed", str(seed)]


def _pair_key(i: int) -> str:
    return "pair_cli/" + ("depolarizing" if i % 2 == 0 else "thermodynamical")


class PairCli:
    """One fresh ``python -m pbrsim.cli run --n 2`` per op, dep and thermo in turn."""

    name = "pair_cli"
    inputs_per_op = 4
    cycle = 2  # dep, thermo: traced per-op counts cover whole cycles
    probe_repeats = 1

    def load(self, root: Path) -> Context:
        import pbrsim.cli
        import pbrsim.noise

        ctx = Context(root)
        ctx.modules["cli"] = pbrsim.cli
        # each CLI child reads the file itself; loading it here puts it in setup_s
        ctx.inputs["calibration"] = pbrsim.noise.load_calibration(root / PAIR_CALIB)
        return ctx

    def op(self, ctx: Context, i: int, seed: int) -> tuple[float, Output]:
        cmd = [sys.executable, "-m", "pbrsim.cli", *_pair_argv(i, seed, PAIR_CALIB)]
        err_path = ctx.root / ".bench_out" / "pair_cli.stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ctx.root, env=child_env(ctx.root),
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                text = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = Output(seed, [(_pair_key(i), text.decode())], proc.returncode, usage.ru_maxrss)
        if proc.returncode not in (0, 1):
            out.error = err_path.read_text(errors="replace")[-2000:]
        return elapsed, out

    def inproc_op(self, ctx: Context, i: int, seed: int) -> tuple[float, Output]:
        """The same CLI call through ``pbrsim.cli.main``, for the traced run."""
        argv = _pair_argv(i, seed, str(ctx.root / PAIR_CALIB))
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = ctx.modules["cli"].main(argv)
        elapsed = time.perf_counter() - t0
        return elapsed, Output(seed, [(_pair_key(i), buf.getvalue())], code)

    def probe(self, ctx: Context) -> float:
        """A fresh interpreter that imports numpy: start-up and import, like an op."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ctx.root, check=True)
        return time.perf_counter() - t0

    def warmup(self, ctx: Context, seed: int) -> Output | None:
        return None  # every op is a fresh process; setup children warm the file cache


class FiveQubit:
    """Two in-process ``run_experiment`` calls at n=5, theta_min(5), one per model."""

    name = "five_qubit"
    inputs_per_op = 64
    cycle = 1
    probe_repeats = CPU_PROBE_REPEATS
    probe = staticmethod(cpu_probe)

    def load(self, root: Path) -> Context:
        import pbrsim.harness
        import pbrsim.noise
        import pbrsim.protocol

        ctx = Context(root)
        ctx.modules["harness"] = pbrsim.harness
        ctx.modules["noise"] = pbrsim.noise
        # the five-qubit demo's homogeneous device
        ctx.inputs["calibration"] = pbrsim.noise.uniform_calibration(
            5, t1=192e-6, t2=95e-6, p1=2.1e-4, p2=2.4e-3, p01=0.01, p10=0.01,
            readout=600e-9,
        )
        ctx.inputs["theta"] = pbrsim.protocol.theta_min(5)
        return ctx

    def op(self, ctx: Context, i: int, seed: int) -> tuple[float, Output]:
        harness, noise = ctx.modules["harness"], ctx.modules["noise"]
        docs = []
        t0 = time.perf_counter()
        for model in (noise.DEPOLARIZING, noise.THERMODYNAMICAL):
            cfg = harness.ExperimentConfig(
                n=5, theta=ctx.inputs["theta"], model=model,
                calibration=ctx.inputs["calibration"], shots=FIVE_SHOTS, seed=seed,
            )
            docs.append(("five_qubit/" + model, harness.render_json(harness.run_experiment(cfg))))
        return time.perf_counter() - t0, Output(seed, docs)

    inproc_op = op

    def warmup(self, ctx: Context, seed: int) -> Output:
        return self.op(ctx, -1, seed)[1]


class LineSweep:
    """One in-process ``sweep_distance`` over spans 1..7 and 154 on a 10-qubit line."""

    name = "line_sweep"
    inputs_per_op = 4 * (len(LINE_SPANS) - 1)  # span 154 is analytic: no inputs
    cycle = 1
    probe_repeats = 1

    def probe(self, ctx: Context) -> float:
        """A unit probe of 1 s: this workload's op time is used as measured.

        An op lasts ~7 s, longer than the machine's speed swings, and
        averages them out; a short probe between ops catches one swing and
        only adds noise (ten runs: 7.3% spread as measured, 16.4% probed).
        """
        return 1.0

    def load(self, root: Path) -> Context:
        import pbrsim.harness
        import pbrsim.noise

        n = 10
        noise = pbrsim.noise
        # the line device of acceptance criterion 6
        cal = noise.CalibrationSnapshot(
            tuple(noise.QubitCalibration(q, 173e-6, 172e-6, 2.1e-4, 36e-9, 0.01, 0.01)
                  for q in range(n)),
            tuple(noise.CouplerCalibration(q, q + 1, 2.4e-3, 68e-9) for q in range(n - 1)),
            600e-9,
        )
        ctx = Context(root)
        ctx.modules["harness"] = pbrsim.harness
        ctx.inputs["calibration"] = cal
        ctx.inputs["model"] = noise.DEPOLARIZING
        return ctx

    def _sweep(self, ctx: Context, seed: int, spans) -> tuple[float, Output]:
        harness = ctx.modules["harness"]
        cfg = harness.ExperimentConfig(
            n=2, theta=math.pi / 4, model=ctx.inputs["model"],
            calibration=ctx.inputs["calibration"], shots=LINE_SHOTS, seed=seed,
        )
        t0 = time.perf_counter()
        text = harness.render_sweep_json(harness.sweep_distance(cfg, list(spans)))
        return time.perf_counter() - t0, Output(seed, [("line_sweep", text)], spans=tuple(spans))

    def op(self, ctx: Context, i: int, seed: int) -> tuple[float, Output]:
        return self._sweep(ctx, seed, LINE_SPANS)

    inproc_op = op

    def warmup(self, ctx: Context, seed: int) -> Output:
        return self._sweep(ctx, seed, LINE_WARMUP_SPANS)[1]


WORKLOADS = {w.name: w for w in (PairCli(), FiveQubit(), LineSweep())}

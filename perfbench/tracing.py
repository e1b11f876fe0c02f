"""Spans and counts around pbrsim's layer boundaries, recorded from outside.

``pbrsim`` modules import each other's functions by name (``from .states
import apply_channel``), so a function is wrapped in every ``pbrsim``
module namespace that holds it: the module that calls it sees the wrapper.
Nothing under ``src/`` changes, and ``uninstall`` puts the originals back.
A name a later commit no longer has is recorded as absent.

Each call records a span (name, start, end, parent, op). Self time is a
span's duration minus its direct children's. Counts that depend on the
arguments (Kraus operators applied, state sizes, distinct channels) are
taken at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped, in the namespace of every caller
TRACED = {
    "states": ("apply_channel", "apply_unitary"),
    "simulate": ("simulate_circuit",),
    "noise": ("attach_noise", "depolarizing_channel", "amplitude_damping", "dephasing",
              "apply_readout", "load_calibration"),
    "protocol": ("solve_angles", "discover_forbidden_map", "build_test_circuit"),
    "routing": ("route_linear",),
    "bounds": ("tolerance_report",),
    "harness": ("run_experiment", "analytic_report", "sweep_distance", "sample_counts",
                "wilson_interval", "render_json", "render_sweep_json"),
    "cli": ("main",),
}
CHANNEL_BUILDERS = ("noise.depolarizing_channel", "noise.amplitude_damping", "noise.dephasing")


def _state_size(state) -> tuple[int, int]:
    matrix = getattr(state, "matrix", None)
    return getattr(state, "n_qubits", 0), getattr(matrix, "nbytes", 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.absent: list[str] = []
        self.op = -1
        self.ops = 0
        self.kraus_ops = 0
        self.bytes_computed = 0
        self.peak_qubits = 0
        self.channel_keys: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        targets = []
        self.absent = []
        for layer, names in TRACED.items():
            try:
                home = importlib.import_module(f"pbrsim.{layer}")
            except ImportError:
                home = None
            for fname in names:
                original = getattr(home, fname, None)
                if callable(original):
                    targets.append((f"{layer}.{fname}", original))
                else:
                    self.absent.append(f"{layer}.{fname}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pbrsim" or name.startswith("pbrsim."))]
        for name, original in targets:
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name: str):
        if name == "states.apply_channel":
            def count(args, kwargs):
                n, nbytes = _state_size(args[0])
                kraus = len(getattr(args[1], "operators", ())) or 1
                self.kraus_ops += kraus
                # computed: one read and one write of the state per Kraus operator
                self.bytes_computed += 2 * nbytes * kraus
                self.peak_qubits = max(self.peak_qubits, n)
            return count
        if name == "states.apply_unitary":
            def count(args, kwargs):
                n, nbytes = _state_size(args[0])
                self.bytes_computed += 2 * nbytes
                self.peak_qubits = max(self.peak_qubits, n)
            return count
        if name in CHANNEL_BUILDERS:
            def count(args, kwargs):
                self.channel_keys.add((self.op, name, args, tuple(sorted(kwargs.items()))))
            return count
        return None

    # -- ops ------------------------------------------------------------

    def begin_op(self) -> None:
        self.op = self.ops
        self.ops += 1

    def end_op(self) -> None:
        self.op = -1

    # -- results --------------------------------------------------------

    def per_op(self) -> dict:
        """Totals per layer function, divided by the traced op count."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child.get(i, 0.0)
        ops = max(self.ops, 1)

        def s(name):
            return total[name] / ops

        def self_s(name):
            return self_time[name] / ops

        def n(name):
            return calls[name] / ops

        return {
            "states.apply_channel.calls": n("states.apply_channel"),
            "states.apply_channel.s": s("states.apply_channel"),
            "states.kraus_ops": self.kraus_ops / ops,
            "states.apply_unitary.calls": n("states.apply_unitary"),
            "states.apply_unitary.s": s("states.apply_unitary"),
            "states.bytes_computed": self.bytes_computed / ops,
            "simulate.simulate_circuit.calls": n("simulate.simulate_circuit"),
            "simulate.simulate_circuit.self_s": self_s("simulate.simulate_circuit"),
            "simulate.peak_qubits": self.peak_qubits,
            "noise.attach_noise.self_s": self_s("noise.attach_noise"),
            "noise.channels_built": sum(calls[c] for c in CHANNEL_BUILDERS) / ops,
            "noise.channels_distinct": len(self.channel_keys) / ops,
            "noise.channel_build_s": sum(total[c] for c in CHANNEL_BUILDERS) / ops,
            "noise.apply_readout.s": s("noise.apply_readout"),
            "noise.load_calibration.s": s("noise.load_calibration"),
            "protocol.solve_angles.calls": n("protocol.solve_angles"),
            "protocol.solve_angles.s": s("protocol.solve_angles"),
            "protocol.discover_forbidden_map.self_s": self_s("protocol.discover_forbidden_map"),
            "protocol.build_test_circuit.calls": n("protocol.build_test_circuit"),
            "routing.route_linear.calls": n("routing.route_linear"),
            "routing.route_linear.s": s("routing.route_linear"),
            "bounds.tolerance_report.calls": n("bounds.tolerance_report"),
            "bounds.tolerance_report.s": s("bounds.tolerance_report"),
            "harness.run_experiment.self_s": self_s("harness.run_experiment"),
            "harness.analytic_report.s": s("harness.analytic_report"),
            "harness.sample_counts.s": s("harness.sample_counts"),
            "harness.wilson_interval.s": s("harness.wilson_interval"),
            "harness.render.s": s("harness.render_json") + s("harness.render_sweep_json"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def dump(self) -> dict:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "absent": self.absent,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [[index[n], a, b, p, op] for n, a, b, p, op in self.spans],
        }

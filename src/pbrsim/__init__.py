"""Noise-aware simulator and benchmark harness for the PBR
antidistinguishability test on small density-matrix registers.

Qubit 0 is the most significant bit of every basis-state index, so the
two-qubit state |q0 q1> = |10> sits at index 2.

`import pbrsim` loads no submodule: each public name is imported from the
submodule that owns it on first access, so a command line run pays only
for the layers it uses.
"""

from importlib import import_module

# Each submodule and the public names it exports, listed once.
_EXPORTS = {
    "bounds": (
        "ToleranceReport",
        "epsilon_dec",
        "epsilon_dep",
        "epsilon_tol",
        "noisy_overlap",
        "quantum_trace_distance",
        "tolerance_reports",
    ),
    "circuits": (
        "Circuit",
        "Gate",
        "decompose_swap",
        "gate_counts",
        "gate_unitary",
    ),
    "cli": (),
    "config": (
        "DEFAULT_CONFIDENCE",
        "DEFAULT_SHOTS",
        "SIMULATION_QUBIT_CAP",
        "mcphase_cz_equivalents",
    ),
    "errors": (
        "CalibrationError",
        "CapError",
        "ChannelError",
        "FormatError",
        "KindError",
        "NoSolutionError",
        "PathError",
        "ProtocolError",
        "RangeError",
        "UnitarityError",
        "ValidationError",
    ),
    "harness": (
        "ExperimentConfig",
        "ExperimentReport",
        "InputResult",
        "analytic_report",
        "render_csv",
        "render_json",
        "render_sweep_json",
        "run_experiment",
        "sample_counts",
        "sweep_distance",
        "wilson_interval",
    ),
    "memo": (),
    "noise": (
        "CalibrationSnapshot",
        "CouplerCalibration",
        "DEPOLARIZING",
        "QubitCalibration",
        "THERMODYNAMICAL",
        "amplitude_damping",
        "attach_noise",
        "dephasing",
        "depolarizing_channel",
        "load_calibration",
        "mean_p_from_time",
        "p_from_time",
        "readout_matrix",
        "save_calibration",
        "uniform_calibration",
    ),
    "protocol": (
        "PBRParams",
        "build_entangling_measurement",
        "build_preparation",
        "build_test_circuit",
        "solve_angles",
        "theta_min",
    ),
    "records": (),
    "routing": (
        "CouplingMap",
        "line_map",
        "load_coupling_map",
        "lower",
        "routed_gate_overhead",
        "save_coupling_map",
        "shortest_path",
        "span_distance",
    ),
    "simulate": ("outcome_distribution", "outcome_distributions"),
    "states": ("KrausChannel",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

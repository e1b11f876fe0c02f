"""Central numerical constants and modeling knobs.

Everything tolerance-like lives here so the thresholds used by operator
validation, angle solving and forbidden-outcome discovery stay consistent
across modules instead of drifting as scattered literals.
"""

# Algebraic identities (unitarity, Kraus completeness).
ATOL_ALGEBRAIC = 1e-10

# Default gate/readout timing used when a calibration entry omits them.
DEFAULT_SINGLE_GATE_S = 36e-9
DEFAULT_TWO_QUBIT_GATE_S = 68e-9
DEFAULT_READOUT_S = 1e-6

# Hard cap on total simulated qubits (dense 2^n density matrix).
SIMULATION_QUBIT_CAP = 12

# Largest span a distance sweep accepts. Spans past the cap get analytic
# reports, whose cost grows linearly with the span (~0.04 s at 1000).
MAX_SPAN = 1000

# Forbidden-outcome discovery: an outcome counts as forbidden below this,
# and the next-smallest outcome must exceed the guard band.
FORBIDDEN_PROB_THRESHOLD = 1e-10
FORBIDDEN_GUARD_BAND = 1e-6

# Shot statistics defaults.
DEFAULT_SHOTS = 100_000
DEFAULT_CONFIDENCE = 0.95


def mcphase_cz_equivalents(n_controls: int) -> int:
    """Two-qubit-gate cost charged for an open-controlled phase gate.

    A phase gate with one open control is a CZ up to single-qubit
    conjugation, so it costs 1. Each extra open control is charged two
    more CZ equivalents, a stand-in for device transpilation whose exact
    counts depend on the native set. Used by gate counting, noise
    attachment and duration accounting.
    """
    if n_controls < 1:
        raise ValueError("n_controls must be >= 1")
    return 2 * n_controls - 1

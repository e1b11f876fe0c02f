"""Central numerical constants and modeling knobs.

Everything tolerance-like lives here so the thresholds used by operator
validation, angle solving and the forbidden-outcome check stay consistent
across modules instead of drifting as scattered literals.
"""

# Algebraic identities (unitarity, Kraus completeness).
ATOL_ALGEBRAIC = 1e-10

# The two noise models' names (`noise` exports them). Here, so that the
# command line can list its choices without loading numpy.
DEPOLARIZING = "depolarizing"
THERMODYNAMICAL = "thermodynamical"

# Default gate/readout timing used when a calibration entry omits them.
DEFAULT_SINGLE_GATE_S = 36e-9
DEFAULT_TWO_QUBIT_GATE_S = 68e-9
DEFAULT_READOUT_S = 1e-6

# Largest n the angle solver takes. Its rounding grows about linearly in n
# (residuals up to ~1.8e-15 * n over theta in [theta_min(n), pi/2]), so
# from ~55,000 qubits on some angles fail the ATOL_ALGEBRAIC residual check
# (theta = 1.5 at n = 89125, 1.5685 at n = 72325). Up to this n, 140,000
# sampled (n, theta) pairs all solve, the largest residual 8.3e-11.
MAX_SOLVER_N = 50_000

# Most qubits the density matrix holds at once (its peak live width; a
# qubit is live from its first multi-qubit gate to its last, or to the end
# if it is measured): 4^12 complex entries, 268 MB per state. A circuit on
# more qubits runs when fewer are live at once, as a routed pair does.
SIMULATION_QUBIT_CAP = 12

# Largest span a distance sweep accepts and a placed run routes. Sweep
# spans past the cap get analytic reports, whose cost grows linearly with
# the span: ~9 ms at 1000 (theta = pi/4, depolarizing, the demo pair
# calibration; 2-core Xeon, Python 3.11).
MAX_SPAN = 1000

# Forbidden-outcome check (`protocol.check_forbidden_outcomes`): the
# closed-form probability at Hamming distance 0, and at no other distance,
# must lie below the threshold. Simulated probabilities carry about 1e-16
# absolute error, so the simulated spot-check cannot mistake an outcome at
# or above it for the zero.
FORBIDDEN_PROB_THRESHOLD = 1e-10

# Shot statistics defaults.
DEFAULT_SHOTS = 100_000
DEFAULT_CONFIDENCE = 0.95

# A run with at most this many inputs (n <= 2) and fewer shots than the
# limit draws its counts with a pure-Python copy of numpy's PCG64 and
# binomial sampler (`harness._pure_count`), so a pair run never imports
# numpy.random. Below 2^31 shots every integer the sampler turns into a
# double is exact and every product it forms fits int64, so the copy
# needs no overflow of its own; larger runs use numpy's Generator.
PURE_DRAW_MAX_INPUTS = 4
PURE_DRAW_SHOT_LIMIT = 2**31
# The numpy release the copy was checked against, bit for bit. Older
# releases compute the binomial inversion differently (log(1 - p) where
# 2.4 takes log1p(-p)), so under them every run draws with numpy's
# Generator and keeps its counts.
PURE_DRAW_NUMPY = "2.4.6"


def mcphase_cz_equivalents(n_controls: int) -> int:
    """Two-qubit-gate cost charged for an open-controlled phase gate.

    A phase gate with one open control is a CZ up to single-qubit
    conjugation, so it costs 1. Each extra open control is charged two
    more CZ equivalents, a stand-in for device transpilation whose exact
    counts depend on the native set. Its one consumer is
    `circuits.cz_pairs`, which gate counting, noise attachment and
    duration accounting all read.
    """
    if n_controls < 1:
        raise ValueError("n_controls must be >= 1")
    return 2 * n_controls - 1

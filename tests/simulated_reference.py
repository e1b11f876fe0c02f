"""Test-side helpers built on the simulator's own engine.

`evolve` exposes the final density matrices that `pbrsim.simulate` reads
its distributions from, so tests can check trace, purity and positivity.
`discover_forbidden_map` is the full simulated discovery of each input's
forbidden outcome: it evolves every ideal input's own circuit and locates
its zero, under the package's rule that exactly one outcome lies below the
forbidden threshold. The package states that zero in closed form and
simulates every input from input 0's circuit with Z frames
(`pbrsim.protocol.check_forbidden_outcomes`); this is its reference.
"""

from collections.abc import Iterator

import numpy as np

from pbrsim.circuits import Circuit
from pbrsim.config import FORBIDDEN_PROB_THRESHOLD
from pbrsim.errors import ProtocolError
from pbrsim.protocol import PBRParams, build_test_circuit
from pbrsim.simulate import _apply, _chunks, _walk, outcome_distribution


def evolve(c: Circuit, keep: tuple[int, ...], frames=()) -> Iterator[np.ndarray]:
    """Final states on the `keep` qubits, in that order, from |0...0>.

    State x is that of row x of `outcome_distributions(c, frames)`, every
    row evolved in full: the frames branch at the start. Yields the states
    chunk by chunk in row order, each chunk a (b, 2^m, 2^m) stack with every
    kept qubit's suffix applied.
    """
    frames = tuple(frames)
    for rho, suffix in _chunks(_walk(c, frames), keep, frames):
        for i, op in enumerate(suffix):
            if op is not None:
                rho = _apply(rho, op, (i,), len(keep))
        yield rho


def discover_forbidden_map(params: PBRParams) -> tuple[int, ...]:
    """Simulate every input noise-free and locate its zero-probability outcome.

    Requires exactly one outcome below the forbidden threshold per input,
    the rule `check_forbidden_outcomes` applies, and the collected outcomes
    to form a permutation; anything else signals wrong angles or conventions.
    Returns the forbidden outcome of each input, in input order.
    """
    n = params.n
    mapping = []
    for x in range(2**n):
        probs = outcome_distribution(build_test_circuit(x, params))
        order = np.argsort(probs)
        smallest, runner_up = probs[order[0]], probs[order[1]]
        if smallest >= FORBIDDEN_PROB_THRESHOLD:
            raise ProtocolError(
                f"input {x:0{n}b}: smallest outcome probability {smallest:.3e} "
                "is not a forbidden outcome"
            )
        if runner_up < FORBIDDEN_PROB_THRESHOLD:
            raise ProtocolError(
                f"input {x:0{n}b}: second outcome probability {runner_up:.3e} "
                "below the forbidden threshold; zero outcome is ambiguous"
            )
        mapping.append(int(order[0]))
    if sorted(mapping) != list(range(2**n)):
        raise ProtocolError("forbidden map is not a permutation")
    return tuple(mapping)

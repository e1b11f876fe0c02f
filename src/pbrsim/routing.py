"""Coupling maps and SWAP routing for two-logical-qubit circuits.

Routing walks logical qubit A along a shortest path until it is adjacent
to B, inserting decomposed SWAP chains before the first two-qubit gate.
Measurement bits are relabeled to the final layout instead of swapping
back, which halves the overhead; the recorded layout says where each
logical bit ended up.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .circuits import Circuit, Gate, decompose_swap
from .errors import FormatError, PathError, RangeError, ValidationError
from .noise import json_number


@dataclass(frozen=True)
class CouplingMap:
    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValidationError(f"self-loop on qubit {a}")
            for q in (a, b):
                if not 0 <= q < self.n_qubits:
                    raise ValidationError(f"edge endpoint {q} out of range")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise ValidationError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "_edge_set", frozenset(norm))

    def neighbors(self, q: int) -> tuple[int, ...]:
        out = [b if a == q else a for a, b in self.edges if q in (a, b)]
        return tuple(sorted(out))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._edge_set


def line_map(n_qubits: int) -> CouplingMap:
    """Simple chain 0-1-...-(n-1)."""
    return CouplingMap(n_qubits, tuple((i, i + 1) for i in range(n_qubits - 1)))


def load_coupling_map(path) -> CouplingMap:
    """Read a map from JSON: {"n_qubits": N, "edges": [[a, b], ...]}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"coupling map does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("coupling map document must be an object")
    extra = set(doc) - {"n_qubits", "edges"}
    if extra:
        raise FormatError(f"unknown keys {sorted(extra)} in coupling map")
    try:
        n = json_number(doc["n_qubits"], "n_qubits", integer=True)
        edges = tuple(
            tuple(json_number(q, "edge endpoint", integer=True) for q in (a, b))
            for a, b in doc["edges"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed coupling map: {exc}") from exc
    return CouplingMap(n, edges)


def save_coupling_map(cmap: CouplingMap, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"n_qubits": cmap.n_qubits, "edges": [list(e) for e in cmap.edges]},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")


def shortest_path(cmap: CouplingMap, a: int, b: int) -> list[int]:
    """Breadth-first shortest path from a to b, inclusive."""
    for q in (a, b):
        if not 0 <= q < cmap.n_qubits:
            raise PathError(f"qubit {q} not on the map")
    if a == b:
        return [a]
    adj: dict[int, list[int]] = {}
    for u, v in cmap.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    prev = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in sorted(adj.get(u, ())):
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if b not in prev:
        raise PathError(f"qubits {a} and {b} are not connected")
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def span_distance(cmap: CouplingMap, a: int, b: int) -> int:
    """Shortest-path edge count between two physical qubits."""
    return len(shortest_path(cmap, a, b)) - 1


@dataclass(frozen=True)
class RoutedCircuit:
    circuit: Circuit
    layout: tuple[int, ...]
    swap_count: int
    path: tuple[int, ...]


def route_linear(c: Circuit, cmap: CouplingMap, placement: tuple[int, int]) -> RoutedCircuit:
    """Map a two-logical-qubit circuit onto physical qubits of the map.

    Logical 0 starts at placement[0] and is swapped along the shortest
    path until adjacent to logical 1 at placement[1]; the swap chain (as
    3 CZ + 6 H each) is emitted just before the first two-qubit gate.
    """
    if c.n_qubits != 2:
        raise ValidationError(f"routing handles 2 logical qubits, got {c.n_qubits}")
    qa, qb = placement
    path = shortest_path(cmap, qa, qb)
    if len(path) < 2:
        raise PathError("placement must name two distinct physical qubits")
    pos = {0: path[0], 1: path[-1]}
    swaps_done = False
    out: list[Gate] = []
    for g in c.gates:
        if g.is_unitary and len(g.qubits) == 2 and not swaps_done:
            for i in range(len(path) - 2):
                out.extend(decompose_swap(path[i], path[i + 1]))
            pos[0] = path[-2]
            swaps_done = True
        phys = tuple(pos[q] for q in g.qubits)
        out.append(Gate(g.kind, phys, angle=g.angle, channel=g.channel))
    routed = Circuit(cmap.n_qubits, tuple(out))
    for g in routed.gates:
        if g.is_unitary and len(g.qubits) == 2 and not cmap.has_edge(*g.qubits):
            raise PathError(f"two-qubit gate off the coupling map: {g.qubits}")
    return RoutedCircuit(routed, (pos[0], pos[1]), len(path) - 2, tuple(path))


def routed_gate_overhead(s: int) -> tuple[int, int]:
    """(extra single-qubit, extra two-qubit) gates for a span-s placement."""
    if s < 1:
        raise RangeError(f"span {s} must be >= 1")
    return (s - 1) * 6, (s - 1) * 3

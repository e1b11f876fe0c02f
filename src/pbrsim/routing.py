"""Coupling maps and the lowering of a two-logical-qubit circuit onto one.

`lower` is the one step from a logical circuit to the circuit that runs
on the device. It walks logical qubit 0 along a shortest path until it
is adjacent to logical qubit 1, inserting decomposed SWAP chains before
the first two-qubit gate. Measurements read the qubits where the logical
states ended up instead of swapping back, which halves the overhead.
"""

from __future__ import annotations

from collections import deque

from .circuits import Circuit, Gate, as_integer, check_span, decompose_swap, gate_counts
from .errors import FormatError, PathError, RangeError, ValidationError
from .noise import json_number, load_json_document
from .records import Record, record

_SWAP_GATE_COUNTS = gate_counts(Circuit(2, decompose_swap()))


@record
class CouplingMap(Record):
    """Physical qubit count and the undirected edges two-qubit gates may use.

    The count and every endpoint must be integers (Python or numpy, not
    bools), the count at least 1.
    """

    n_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n_qubits = as_integer(self.n_qubits, "n_qubits")
        if n_qubits < 1:
            raise ValidationError(f"n_qubits={n_qubits} must be >= 1")
        object.__setattr__(self, "n_qubits", n_qubits)
        norm = []
        for a, b in self.edges:
            a, b = as_integer(a, "edge endpoint"), as_integer(b, "edge endpoint")
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

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._edge_set


def line_map(n_qubits: int) -> CouplingMap:
    """Simple chain 0-1-...-(n-1)."""
    return CouplingMap(n_qubits, tuple((i, i + 1) for i in range(n_qubits - 1)))


def load_coupling_map(path) -> CouplingMap:
    """Read a map from JSON: {"n_qubits": N, "edges": [[a, b], ...]}."""
    doc = load_json_document(path, "coupling map")
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
    from .harness import render_doc  # the documents' serializer, loaded on use

    with open(path, "w") as fh:
        fh.write(render_doc({"n_qubits": cmap.n_qubits, "edges": [list(e) for e in cmap.edges]}))


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


def _check_coupler(g: Gate, cmap: CouplingMap) -> None:
    if not cmap.has_edge(*g.qubits):
        raise PathError(f"two-qubit gate off the coupling map: {g.qubits}")


def lower(c: Circuit, cmap: CouplingMap, placement: tuple[int, int]) -> tuple[Circuit, int, int]:
    """A two-logical-qubit circuit as it runs on the map: (circuit, span, swap count).

    Logical 0 starts at placement[0] and is swapped along the shortest
    path until adjacent to logical 1 at placement[1]; the swap chain (as
    3 CZ + 6 H each) is emitted just before the first two-qubit gate. The
    span is the path's edge count; the swap count is the SWAPs emitted,
    0 for a circuit with no two-qubit gate. Every two-qubit gate is
    checked against the map as it is emitted, each SWAP's coupler once
    for its three CZ. A span past MAX_SPAN, the largest a distance sweep
    takes, raises RangeError before any gate is built: the sweep's own
    check, `circuits.check_span`.
    """
    if c.n_qubits != 2:
        raise ValidationError(f"routing handles 2 logical qubits, got {c.n_qubits}")
    qa, qb = placement
    path = shortest_path(cmap, qa, qb)
    if len(path) < 2:
        raise PathError("placement must name two distinct physical qubits")
    check_span(len(path) - 1)
    pos = {0: path[0], 1: path[-1]}
    swap_count = 0
    swaps_done = False
    out: list[Gate] = []
    for g in c.gates:
        two_qubit = g.is_unitary and len(g.qubits) == 2
        if two_qubit and not swaps_done:
            for i in range(len(path) - 2):
                swap = decompose_swap(path[i], path[i + 1])
                _check_coupler(swap[1], cmap)  # the SWAP's CZ
                out.extend(swap)
            pos[0] = path[-2]
            swap_count = len(path) - 2
            swaps_done = True
        phys = Gate(g.kind, tuple(pos[q] for q in g.qubits), angle=g.angle, channel=g.channel)
        if two_qubit:
            _check_coupler(phys, cmap)
        out.append(phys)
    return Circuit(cmap.n_qubits, tuple(out)), len(path) - 1, swap_count


def routed_gate_overhead(s: int) -> tuple[int, int]:
    """(extra single-qubit, extra two-qubit) gates for a span-s placement: s - 1 SWAPs."""
    if s < 1:
        raise RangeError(f"span {s} must be >= 1")
    return tuple((s - 1) * k for k in _SWAP_GATE_COUNTS)

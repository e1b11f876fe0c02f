"""Coupling maps, shortest paths, and lowering two-qubit circuits onto a map."""

import re

import numpy as np
import pytest

from pbrsim.circuits import CZ, Circuit, Gate, H, MEASURE, gate_counts
from pbrsim.config import MAX_SPAN
from pbrsim.errors import FormatError, PathError, RangeError, ValidationError
from pbrsim.protocol import PBRParams, build_test_circuit
from pbrsim.routing import (
    CouplingMap,
    line_map,
    load_coupling_map,
    lower,
    routed_gate_overhead,
    save_coupling_map,
    shortest_path,
    span_distance,
)
from pbrsim.simulate import outcome_distribution


def test_coupling_map_normalization():
    cmap = CouplingMap(4, ((3, 2), (0, 1), (1, 2)))
    assert cmap.edges == ((0, 1), (1, 2), (2, 3))
    assert cmap.has_edge(2, 1)
    assert not cmap.has_edge(0, 3)


def test_coupling_map_validation():
    with pytest.raises(ValidationError):
        CouplingMap(2, ((0, 0),))
    with pytest.raises(ValidationError):
        CouplingMap(2, ((0, 2),))
    with pytest.raises(ValidationError):
        CouplingMap(3, ((0, 1), (1, 0)))


def test_coupling_map_needs_integer_sizes_and_endpoints():
    # A float endpoint was truncated (1.7 to 1) and a float or negative size
    # kept, which `lower` then built a circuit of.
    for size in (3.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match=f"^n_qubits={re.escape(repr(size))} must be an integer$"):
            CouplingMap(size, ((0, 1),))
    for size in (0, -2):
        with pytest.raises(ValueError, match=f"^n_qubits={size} must be >= 1$"):
            CouplingMap(size, ())
    for endpoint in (1.7, 1.0, True, None):
        with pytest.raises(ValueError, match=f"^edge endpoint={re.escape(repr(endpoint))} must be an integer$"):
            CouplingMap(4, ((0, endpoint), (2, 3)))
    # numpy integers are kept as the Python ints they equal.
    cmap = CouplingMap(np.int64(4), ((np.int32(1), np.int64(0)), (2, 3)))
    assert cmap == CouplingMap(4, ((0, 1), (2, 3)))
    assert type(cmap.n_qubits) is int and all(type(q) is int for e in cmap.edges for q in e)


def test_line_map():
    cmap = line_map(5)
    assert cmap.n_qubits == 5
    assert cmap.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_shortest_path_and_span():
    cmap = line_map(6)
    assert shortest_path(cmap, 2, 5) == [2, 3, 4, 5]
    assert shortest_path(cmap, 4, 4) == [4]
    assert span_distance(cmap, 0, 5) == 5
    assert span_distance(cmap, 3, 3) == 0
    with pytest.raises(PathError):
        shortest_path(cmap, 0, 6)
    split = CouplingMap(4, ((0, 1), (2, 3)))
    with pytest.raises(PathError):
        shortest_path(split, 0, 3)


def test_route_adjacent_is_identity_overhead():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    routed, span, swap_count = lower(logical, line_map(4), (1, 2))
    assert (span, swap_count) == (1, 0)
    assert routed.measured_qubits == (1, 2)
    assert gate_counts(routed) == gate_counts(logical)


def test_route_span_inserts_swaps_and_preserves_distribution():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(2, params)
    base = outcome_distribution(logical)
    for span in (1, 2, 3, 4):
        routed, got_span, swap_count = lower(logical, line_map(6), (0, span))
        assert (got_span, swap_count) == (span, span - 1)
        for g in routed.gates:
            if g.is_unitary and len(g.qubits) == 2:
                assert line_map(6).has_edge(*g.qubits)
        got = outcome_distribution(routed)
        assert np.abs(got - base).max() < 1e-12


def test_route_gate_overhead_matches_decomposition():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    g1, g2 = gate_counts(logical)
    cmap = line_map(155)
    for span in range(1, 155):
        routed = lower(logical, cmap, (0, span))[0]
        extra1, extra2 = routed_gate_overhead(span)
        assert gate_counts(routed) == (g1 + extra1, g2 + extra2)


def _reference_lower(c, cmap, placement):
    # The lowering built the plain way: a fresh Gate at every position,
    # then every two-qubit gate of the result checked against the map.
    path = shortest_path(cmap, *placement)
    pos = {0: path[0], 1: path[-1]}
    gates = []
    swapped = False
    for g in c.gates:
        if g.is_unitary and len(g.qubits) == 2 and not swapped:
            for a, b in zip(path, path[1:-1]):
                for kind, qubits in ((H, (b,)), (CZ, (a, b)), (H, (b,)),
                                     (H, (a,)), (CZ, (a, b)), (H, (a,)),
                                     (H, (b,)), (CZ, (a, b)), (H, (b,))):
                    gates.append(Gate(kind, qubits))
            pos[0] = path[-2]
            swapped = True
        gates.append(Gate(g.kind, tuple(pos[q] for q in g.qubits), angle=g.angle, channel=g.channel))
    for g in gates:
        if g.is_unitary and len(g.qubits) == 2:
            assert cmap.has_edge(*g.qubits), g
    return Circuit(cmap.n_qubits, tuple(gates))


def _ring_map(n):
    return CouplingMap(n, tuple((i, (i + 1) % n) for i in range(n)))


def _grid_map(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return CouplingMap(rows * cols, tuple(edges))


def test_lower_matches_reference_on_line_spans_1_to_154():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(3, params)
    cmap = line_map(155)
    for span in range(1, 155):
        for placement in ((0, span), (span, 0)):
            routed, got_span, swap_count = lower(logical, cmap, placement)
            assert routed == _reference_lower(logical, cmap, placement)
            assert (got_span, swap_count) == (span, span - 1)


def test_lower_matches_reference_on_ring_and_grid():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(1, params)
    for cmap in (_ring_map(6), _grid_map(3, 3)):
        for qa in range(cmap.n_qubits):
            for qb in range(cmap.n_qubits):
                if qa == qb:
                    continue
                routed, span, swap_count = lower(logical, cmap, (qa, qb))
                assert routed == _reference_lower(logical, cmap, (qa, qb))
                assert (span, swap_count) == (span_distance(cmap, qa, qb), span - 1)


def test_lower_counts_no_swap_without_a_two_qubit_gate():
    c = Circuit(2, (Gate(H, (0,)), Gate(H, (1,)), Gate(MEASURE, (0, 1))))
    routed, span, swap_count = lower(c, line_map(6), (0, 4))
    assert (span, swap_count) == (4, 0)
    assert gate_counts(routed) == (2, 0)
    assert routed.measured_qubits == (0, 4)


@pytest.mark.parametrize(
    "placement, refused, qubits",
    [
        ((0, 4), (1, 2), "(1, 2)"),  # the second SWAP's coupler
        ((4, 0), (2, 3), "(3, 2)"),
        ((0, 4), (3, 4), "(3, 4)"),  # only the logical pair's coupler
        ((4, 0), (0, 1), "(1, 0)"),
    ],
)
def test_lower_refuses_a_two_qubit_gate_off_the_map(monkeypatch, placement, refused, qubits):
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    cmap = line_map(6)
    has_edge = CouplingMap.has_edge
    monkeypatch.setattr(
        CouplingMap, "has_edge",
        lambda self, a, b: (min(a, b), max(a, b)) != refused and has_edge(self, a, b),
    )
    message = f"two-qubit gate off the coupling map: {qubits}"
    with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
        lower(logical, cmap, placement)


def test_routed_gate_overhead_values():
    assert routed_gate_overhead(1) == (0, 0)
    assert routed_gate_overhead(4) == (18, 9)
    with pytest.raises(RangeError):
        routed_gate_overhead(0)


def test_lower_rejects_bad_inputs():
    c3 = Circuit(3, (Gate(H, (0,)), Gate(MEASURE, (0, 1, 2))))
    with pytest.raises(ValidationError):
        lower(c3, line_map(4), (0, 1))
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    with pytest.raises(PathError):
        lower(logical, line_map(4), (2, 2))


def test_lower_refuses_a_span_past_max_span(monkeypatch):
    # The path is measured before any gate is built: past MAX_SPAN, one
    # RangeError and no SWAP.
    logical = build_test_circuit(0, PBRParams.solve(2, np.pi / 4))
    cmap = line_map(MAX_SPAN + 2)
    assert lower(logical, cmap, (1, MAX_SPAN + 1))[1] == MAX_SPAN

    def never(*args):
        raise AssertionError("a SWAP was built for a refused span")

    monkeypatch.setattr("pbrsim.routing.decompose_swap", never)
    with pytest.raises(RangeError, match=f"^span {MAX_SPAN + 1} is outside 1..{MAX_SPAN}$"):
        lower(logical, cmap, (0, MAX_SPAN + 1))


def test_coupling_map_file_roundtrip(tmp_path):
    cmap = CouplingMap(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    path = tmp_path / "map.json"
    save_coupling_map(cmap, path)
    back = load_coupling_map(path)
    assert back == cmap


def test_coupling_map_file_errors(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"n_qubits": 2, "edges": [[0, 1]], "color": 3}')
    with pytest.raises(FormatError):
        load_coupling_map(path)
    for text in ("[1, 2]", '{"n_qubits": true, "edges": []}',
                 '{"n_qubits": 2, "edges": [[0, 1.9]]}'):
        path.write_text(text)
        with pytest.raises(FormatError):
            load_coupling_map(path)

"""Coupling maps, shortest paths, swap routing for two-qubit circuits."""

import numpy as np
import pytest

from pbrsim.circuits import Circuit, Gate, H, MEASURE, gate_counts
from pbrsim.errors import FormatError, PathError, RangeError, ValidationError
from pbrsim.protocol import PBRParams, build_test_circuit
from pbrsim.routing import (
    CouplingMap,
    line_map,
    load_coupling_map,
    route_linear,
    routed_gate_overhead,
    save_coupling_map,
    shortest_path,
    span_distance,
)
from pbrsim.simulate import outcome_distribution


def test_coupling_map_normalization():
    cmap = CouplingMap(4, ((3, 2), (0, 1), (1, 2)))
    assert cmap.edges == ((0, 1), (1, 2), (2, 3))
    assert cmap.neighbors(1) == (0, 2)
    assert cmap.has_edge(2, 1)
    assert not cmap.has_edge(0, 3)


def test_coupling_map_validation():
    with pytest.raises(ValidationError):
        CouplingMap(2, ((0, 0),))
    with pytest.raises(ValidationError):
        CouplingMap(2, ((0, 2),))
    with pytest.raises(ValidationError):
        CouplingMap(3, ((0, 1), (1, 0)))


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
    routed = route_linear(logical, line_map(4), (1, 2))
    assert routed.swap_count == 0
    assert routed.layout == (1, 2)
    assert routed.path == (1, 2)
    assert gate_counts(routed.circuit) == gate_counts(logical)


def test_route_span_inserts_swaps_and_preserves_distribution():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(2, params)
    base = outcome_distribution(logical)
    for span in (1, 2, 3, 4):
        routed = route_linear(logical, line_map(6), (0, span))
        assert routed.swap_count == span - 1
        for g in routed.circuit.gates:
            if g.is_unitary and len(g.qubits) == 2:
                assert line_map(6).has_edge(*g.qubits)
        got = outcome_distribution(routed.circuit)
        assert np.abs(got - base).max() < 1e-12


def test_route_gate_overhead_matches_decomposition():
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    g1, g2 = gate_counts(logical)
    for span in (2, 3, 5):
        routed = route_linear(logical, line_map(8), (0, span))
        extra1, extra2 = routed_gate_overhead(span)
        assert gate_counts(routed.circuit) == (g1 + extra1, g2 + extra2)


def test_routed_gate_overhead_values():
    assert routed_gate_overhead(1) == (0, 0)
    assert routed_gate_overhead(4) == (18, 9)
    with pytest.raises(RangeError):
        routed_gate_overhead(0)


def test_route_linear_rejects_bad_inputs():
    c3 = Circuit(3, (Gate(H, (0,)), Gate(MEASURE, (0, 1, 2))))
    with pytest.raises(ValidationError):
        route_linear(c3, line_map(4), (0, 1))
    params = PBRParams.solve(2, np.pi / 4)
    logical = build_test_circuit(0, params)
    with pytest.raises(PathError):
        route_linear(logical, line_map(4), (2, 2))


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

"""CLI reports against goldens recorded by `tests/make_golden.py`."""

import json

import pytest

from make_golden import CASES, GOLDEN_PATH, parsed, run_case, write_inputs

GOLDEN = json.loads(GOLDEN_PATH.read_text())
RTOL, ATOL = 1e-12, 1e-15


def _number(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _cells(rows):
    """CSV rows with numeric cells parsed, so floats compare by tolerance."""
    return None if rows is None else [[_number(c) for c in row] for row in rows]


def assert_matches(actual, expected, where="report"):
    """Exact on structure, strings, booleans and ints; floats at RTOL/ATOL."""
    assert type(actual) is type(expected), f"{where}: {actual!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        tol = max(RTOL * max(abs(actual), abs(expected)), ATOL)
        assert abs(actual - expected) <= tol, f"{where}: {actual!r} vs {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def test_golden_cases_are_recorded():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, paths):
    got = parsed(run_case(CASES[name], paths))
    want = GOLDEN[name]
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert_matches(got["stdout"], want["stdout"], f"{name}.stdout")
    assert_matches(_cells(got["csv"]), _cells(want["csv"]), f"{name}.csv")

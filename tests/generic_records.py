"""Records of no package type, checked against their frozen dataclass twins.

They cover what the package's records do not: a record with no fields,
one with a single compared field, and defaults, a field left out of
comparison and a validating `__post_init__` on one supplied `__init__`.
Imports only `pbrsim.records` and the standard library, so the base can be
checked under any supported Python without numpy or pytest:

    PYTHONPATH=src python3.13 tests/generic_records.py
"""

from dataclasses import field

from pbrsim.records import Record, record
from record_twins import check_twin, twin_of


@record
class Span(Record):
    """A step range with an uncompared label."""

    start: int
    stop: int
    step: int = 1
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.step == 0:
            raise ValueError("step must not be 0")


@record
class Single(Record):
    value: object


@record
class Empty(Record):
    pass


# Record, its twin's fields, valid values, other valid values, a refused value.
GENERIC = [
    (
        Span,
        ["start", "stop", ("step", 1), ("label", "", False)],
        {"start": 0, "stop": 10, "step": 2, "label": ""},
        {"stop": 12, "label": "other"},
        {"step": 0},
    ),
    (Single, ["value"], {"value": (1, "a")}, {"value": 2.5}, None),
]


def check_all() -> None:
    for record_type, spec, values, other, broken in GENERIC:
        check_twin(record_type, twin_of(record_type, spec), values, other, broken)
    twin = twin_of(Empty, [])
    assert Empty() == Empty() and Empty() != twin()
    assert hash(Empty()) == hash(()) == hash(twin()) and repr(Empty()) == repr(twin())


if __name__ == "__main__":
    import sys

    check_all()
    print(f"generic records match their twins on Python {sys.version.split()[0]}")

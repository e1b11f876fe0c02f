"""The contract of a frozen record, checked against a frozen dataclass twin.

A twin is a `@dataclass(frozen=True)` with the record's name and a field
list the caller declares. `check_twin` asserts that the record has those
fields, and that it behaves like its twin: construction and its TypeErrors,
equality, hash, repr, the frozen errors, `replace`, `asdict`, `astuple`,
pickle and copies. Only the standard library is imported, so the check runs
under any supported Python, numpy and pytest absent.
"""

import copy
import dataclasses
import pickle
from dataclasses import MISSING, FrozenInstanceError


def twin_of(record_type: type, spec) -> type:
    """A frozen dataclass named like `record_type`, of the fields in `spec`.

    Each entry is a name, (name, default) or (name, default, compare).
    """
    fields = []
    for entry in spec:
        name, default, compare = (entry, MISSING, True) if isinstance(entry, str) else (*entry, True)[:3]
        fields.append((name, object, dataclasses.field(default=default, compare=compare)))
    return dataclasses.make_dataclass(record_type.__name__, fields, frozen=True)


def _raised(call):
    """(type, message) of what `call()` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def check_twin(record_type: type, twin: type, values: dict, other: dict, broken=None) -> None:
    """Assert that `record_type` keeps the frozen dataclass contract of `twin`.

    `values` builds a valid record, its fields in order; `other` changes
    some compared fields to other valid values; `broken` (if any) changes
    one to a value the record's validation refuses.
    """
    spec = [(f.name, f.default, f.compare) for f in dataclasses.fields(record_type)]
    assert spec == [(f.name, f.default, f.compare) for f in dataclasses.fields(twin)]
    assert list(values) == [name for name, _, _ in spec]
    assert dataclasses.is_dataclass(record_type)
    assert record_type.__match_args__ == twin.__match_args__

    r, t = record_type(**values), twin(**values)
    same = record_type(*values.values())
    changed = record_type(**{**values, **other})
    assert r == same and not r != same
    assert r != changed and not r == changed
    assert r != t and not r == t and r.__eq__(t) is NotImplemented
    # Only the same class compares equal: a subclass with equal fields does not.
    sub, twin_sub = type("Sub", (record_type,), {}), type("Sub", (twin,), {})
    assert (r == sub(**values)) is (t == twin_sub(**values)) is False
    compared = tuple(getattr(r, name) for name, _, compare in spec if compare)
    assert hash(r) == hash(compared) == hash(t) == hash(same)
    assert repr(r) == repr(t)
    assert dataclasses.astuple(r) == dataclasses.astuple(t)
    assert dataclasses.asdict(r) == dataclasses.asdict(t)

    name = spec[0][0]
    for act in (lambda o: setattr(o, name, None), lambda o: delattr(o, name)):
        error = _raised(lambda: act(r))
        assert error is not None and error[0] is FrozenInstanceError
        assert error == _raised(lambda: act(t))
    assert getattr(r, name) == values[name]

    assert dataclasses.replace(r, **other) == changed
    # Fields left out take their defaults.
    given = {name: values[name] for name, default, _ in spec if values[name] != default}
    assert repr(record_type(**given)) == repr(twin(**given)) == repr(r)
    if broken is not None:
        assert _raised(lambda: dataclasses.replace(r, **broken)) is not None

    args = tuple(values.values())
    calls = [
        (args + (None,), {}),  # one positional argument too many
        (args, {"no_such_field": None}),  # an unknown keyword
        (args, {name: args[0]}),  # a field given twice
    ]
    if any(default is MISSING for _, default, _ in spec):
        calls.append(((), {}))  # required fields missing
    for call_args, kwargs in calls:
        error = _raised(lambda: record_type(*call_args, **kwargs))
        assert error is not None and error[0] is TypeError
        assert error == _raised(lambda: twin(*call_args, **kwargs))

    for kept in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(kept) is record_type and kept == r

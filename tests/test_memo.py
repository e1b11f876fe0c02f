"""The identity-keyed memo behind the run configurations: tolerance pair and normalized table."""

import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from pbrsim.memo import IdentityMemo


@dataclass(frozen=True)
class Device:
    name: str


def test_keys_are_object_identity_and_values():
    memo, built = IdentityMemo(4, max_bytes=1024), []

    def build(device, label):
        built.append((device, label))
        return (device.name, label)

    a = Device("a")
    assert memo.get(build, (a,), ("x",)) == ("a", "x")
    assert memo.get(build, (a,), ("x",)) is memo.get(build, (a,), ("x",))
    assert len(built) == 1
    # A value-equal new object, or another value, builds afresh.
    equal = Device("a")
    assert equal == a and memo.get(build, (equal,), ("x",)) == ("a", "x")
    memo.get(build, (a,), ("y",))
    assert len(built) == 3
    # Each entry holds its key objects, so no kept id can be reused.
    assert [objects for objects, _ in memo.items()] == [(a,), (equal,), (a,)]
    assert all(objects[0] is a for objects, _ in memo.items()[::2])


def test_only_the_last_entries_used_are_kept():
    memo = IdentityMemo(3, max_bytes=1024)
    devices = [Device(str(i)) for i in range(5)]
    values = [memo.get(lambda d: [d.name], (d,)) for d in devices[:3]]
    assert memo.get(lambda d: [d.name], (devices[0],)) is values[0]  # now the newest
    for d in devices[3:]:
        memo.get(lambda d: [d.name], (d,))
    assert [objects[0] for objects, _ in memo.items()] == [devices[0], devices[3], devices[4]]
    assert memo.get(lambda d: [d.name], (devices[1],)) is not values[1]
    memo.clear()
    assert memo.items() == []


def test_a_build_that_raises_is_not_kept():
    memo, calls = IdentityMemo(4, max_bytes=1024), []

    def failing(device):
        calls.append(device)
        raise KeyError(device.name)

    d = Device("missing")
    for _ in range(3):
        with pytest.raises(KeyError):
            memo.get(failing, (d,))
    assert len(calls) == 3 and memo.items() == []


def test_kept_arrays_are_read_only():
    memo = IdentityMemo(4, max_bytes=1024)
    inner = np.zeros(3)
    value = memo.get(lambda d: (np.ones(2), [inner, (np.eye(2), None)], 5), (Device("d"),))
    arrays = [value[0], value[1][0], value[1][1][0]]
    assert value[1][0] is inner
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        inner[0] = 1.0


def test_values_over_max_bytes_are_returned_read_only_but_not_kept():
    # The bound counts every array of a value, nested ones too: exactly
    # max_bytes is kept, one byte more is built on every call.
    memo, built = IdentityMemo(4, max_bytes=1024), []

    def build(device, size):
        built.append(size)
        return (np.zeros(size - 24, dtype=np.uint8), [np.zeros(3)], "label")

    d = Device("d")
    fits = memo.get(build, (d,), (1024,))
    assert memo.get(build, (d,), (1024,)) is fits and built == [1024]
    over = [memo.get(build, (d,), (1025,)) for _ in range(3)]
    assert built == [1024] + [1025] * 3
    assert over[0] is not over[1] and len(over[0][0]) == 1001
    assert not any(a.flags.writeable for value in over for a in (value[0], value[1][0]))
    with pytest.raises(ValueError):
        over[2][0][0] = 1
    assert [value for _, value in memo.items()] == [fits]


def test_concurrent_gets_share_one_kept_value_per_key():
    # More threads than cores, switching often: every caller of one key gets
    # the one value kept for it, and the memo never holds more than its size.
    memo = IdentityMemo(8, max_bytes=1024)
    devices = [Device(str(i)) for i in range(8)]
    seen = [[] for _ in devices]
    errors = []

    def work(t):
        try:
            for i in range(200):
                k = (t + i) % len(devices)
                seen[k].append(memo.get(lambda d: [d.name], (devices[k],)))
                assert len(memo.items()) <= memo.size
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for k, values in enumerate(seen):
        assert values and all(v is values[0] for v in values)
        assert values[0] == [str(k)]

"""A small, bounded memo keyed on the identity of frozen objects.

Some values depend only on frozen objects a caller passes again and
again: a tolerance pair on its angles, calibration and circuit, a noisy
circuit on its ideal circuit, calibration and model, an evolution plan
on its noisy circuit. Keying on their values would hash a whole
calibration or routed circuit on every call, which costs more than some
of the builds. `IdentityMemo` keys on the objects' ids instead, plus a
few small hashable values, and keeps the last `size` entries used. Each
entry holds its key objects, so no id in a kept key can be reused by a
new object while the entry lives, and a new object, even a value-equal
one, misses and is built afresh. A build that raises is not kept and
raises again on the next call. Every numpy array in a kept value, inside
tuples and lists, is made read-only, since every later call shares it.
One lock guards the entries; builds run outside it, so one slow build
holds up no other call, and of two concurrent builds of one key the
first kept is the one both calls return.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TypeVar

import numpy as np

T = TypeVar("T")


def _read_only(value) -> None:
    # Every array in `value`, through nested tuples and lists.
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _read_only(v)


class IdentityMemo:
    """The last `size` values built, keyed on the identity of their objects."""

    def __init__(self, size: int):
        self.size = size
        self._entries: dict[tuple, tuple[tuple, object]] = {}
        self._lock = threading.Lock()

    def get(self, build: Callable[..., T], objects: tuple, values: tuple = ()) -> T:
        """build(*objects, *values), built once for these objects and values.

        `objects` are keyed by identity and `values` by value (they must be
        hashable). A hit moves its entry to the newest place; a new entry
        evicts the oldest once `size` are kept.
        """
        key = (*map(id, objects), *values)
        with self._lock:
            kept = self._entries.pop(key, None)
            if kept is not None:
                self._entries[key] = kept
                return kept[1]
        value = build(*objects, *values)
        _read_only(value)
        with self._lock:
            kept = self._entries.setdefault(key, (objects, value))
            while len(self._entries) > self.size:
                del self._entries[next(iter(self._entries))]
        return kept[1]

    def items(self) -> list[tuple[tuple, object]]:
        """The kept (objects, value) pairs, oldest first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

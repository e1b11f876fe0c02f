"""A small, bounded memo keyed on the identity of frozen objects.

Some values depend only on frozen objects a caller passes again and
again: a run's tolerance pair and normalized outcome table on its angles,
calibration and circuit. Keying on their values would hash a whole
calibration or routed circuit on every call, which costs more than some
of the builds. `IdentityMemo` keys on the objects' ids instead, plus a
few small hashable values, and keeps the last `size` entries used. Each
entry holds its key objects, so no id in a kept key can be reused by a
new object while the entry lives, and a new object, even a value-equal
one, misses and is built afresh. A build that raises is not kept and
raises again on the next call. Every numpy array in a value, inside
tuples and lists, is made read-only, since a kept value is shared by
every later call. A value whose arrays hold more than `max_bytes` in
total is returned but not kept, so the memo never holds more than
`size * max_bytes` bytes of arrays, and a large value is freed as soon
as its caller drops it.
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


def _read_only(value) -> int:
    # Makes every array in `value`, through nested tuples and lists,
    # read-only; returns the bytes they hold.
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_read_only, value))
    return 0


class IdentityMemo:
    """The last `size` values built, keyed on the identity of their objects.

    Only values whose arrays hold at most `max_bytes` in total are kept.
    """

    def __init__(self, size: int, max_bytes: int):
        self.size = size
        self.max_bytes = max_bytes
        self._entries: dict[tuple, tuple[tuple, object]] = {}
        self._lock = threading.Lock()

    def get(self, build: Callable[..., T], objects: tuple, values: tuple = ()) -> T:
        """build(*objects, *values), built once for these objects and values.

        `objects` are keyed by identity and `values` by value (they must be
        hashable). A hit moves its entry to the newest place; a new entry
        evicts the oldest once `size` are kept. A value over `max_bytes`
        is returned, read-only, and built again on the next call.
        """
        key = (*map(id, objects), *values)
        with self._lock:
            kept = self._entries.pop(key, None)
            if kept is not None:
                self._entries[key] = kept
                return kept[1]
        value = build(*objects, *values)
        if _read_only(value) > self.max_bytes:
            return value
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

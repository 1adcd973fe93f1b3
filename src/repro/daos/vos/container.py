"""VOS container shard: object table → dkey tree → akey tree → values.

One :class:`VosContainer` instance exists per (container, target) pair —
a *shard* of the container. The object layer routes each dkey to exactly
one target (per the object's layout), so a shard holds a disjoint subset
of every object's dkeys.

Values under an akey are either *single values* (with full epoch
history, enabling snapshot reads of metadata — how the real VOS keeps
versioned KV data) or *array values* (byte extent trees, latest view
only).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.daos.vos.btree import BPlusTree
from repro.daos.vos.extent import ExtentTree
from repro.daos.vos.payload import Payload, as_payload
from repro.errors import DerExist, DerInval, DerNonexist

_TOMBSTONE = object()

#: public alias for the rebuild engine, which replays KV history (including
#: punches) onto a returning shard and therefore needs to name the sentinel.
TOMBSTONE = _TOMBSTONE


class EpochClock:
    """Monotonic epoch source shared by every shard of a system.

    Real VOS containers stamp updates with HLC timestamps that are
    globally ordered across engines; sharing one counter per simulated
    system gives the same property — an epoch read from one shard is
    directly comparable with an epoch read from any other, which is what
    lets the rebuild engine use "epoch at exclusion time" as a resync
    watermark. Epoch values never depend on simulated time, so the clock
    adds no timing perturbation.
    """

    __slots__ = ("_epoch",)

    def __init__(self, start: int = 0) -> None:
        self._epoch = int(start)

    def next(self) -> int:
        self._epoch += 1
        return self._epoch

    @property
    def current(self) -> int:
        return self._epoch


class _SingleValue:
    """Epoch history of a single value under an akey."""

    __slots__ = ("history",)

    def __init__(self) -> None:
        self.history: List[Tuple[int, Any]] = []

    def update(self, epoch: int, value: Any) -> None:
        # Keep the history epoch-sorted: rebuild replays values at their
        # original epochs, which may interleave with epochs of writes that
        # landed on this shard while the resync was in flight. Appending is
        # the overwhelmingly common case (live writes use a fresh epoch).
        history = self.history
        if not history or epoch >= history[-1][0]:
            history.append((epoch, value))
            return
        lo, hi = 0, len(history)
        while lo < hi:
            mid = (lo + hi) // 2
            if history[mid][0] <= epoch:
                lo = mid + 1
            else:
                hi = mid
        history.insert(lo, (epoch, value))

    def fetch(self, epoch: Optional[int] = None) -> Any:
        for written_epoch, value in reversed(self.history):
            if epoch is None or written_epoch <= epoch:
                return value
        return _TOMBSTONE  # nothing visible at that epoch

    def punch(self, epoch: int) -> None:
        self.history.append((epoch, _TOMBSTONE))


class VosObject:
    """One object's shard: dkey B+-tree of akey B+-trees."""

    __slots__ = ("oid", "dkeys")

    def __init__(self, oid: Any):
        self.oid = oid
        self.dkeys = BPlusTree()

    def akey_tree(self, dkey: Any, create: bool) -> Optional[BPlusTree]:
        tree = self.dkeys.get(dkey)
        if tree is None and create:
            tree = BPlusTree()
            self.dkeys.insert(dkey, tree)
        return tree


class VosContainer:
    """A container shard on one target."""

    def __init__(self, uuid: str, pool: "object" = None, clock: Optional[EpochClock] = None):
        self.uuid = uuid
        self.pool = pool  # VosPool shard, for capacity accounting
        self.objects: Dict[Any, VosObject] = {}
        if clock is None:
            clock = getattr(pool, "clock", None)
        # standalone shards (unit tests) fall back to a private clock
        self.clock = clock if clock is not None else EpochClock()
        self.snapshots: List[int] = []

    # ------------------------------------------------------------- epochs
    def next_epoch(self) -> int:
        return self.clock.next()

    @property
    def current_epoch(self) -> int:
        return self.clock.current

    def snapshot(self) -> int:
        """Record (and return) a snapshot epoch."""
        epoch = self.current_epoch
        self.snapshots.append(epoch)
        return epoch

    # ------------------------------------------------------------- helpers
    def _object(self, oid: Any, create: bool) -> Optional[VosObject]:
        obj = self.objects.get(oid)
        if obj is None and create:
            obj = self.objects[oid] = VosObject(oid)
        return obj

    def _charge(self, delta: int) -> None:
        if self.pool is not None:
            self.pool.charge(delta)

    # ------------------------------------------------------------- single values
    def update_single(self, oid: Any, dkey: Any, akey: Any, value: Any) -> int:
        """Write a single value; returns the epoch used."""
        epoch = self.next_epoch()
        obj = self._object(oid, create=True)
        akeys = obj.akey_tree(dkey, create=True)
        single = akeys.get(akey)
        if single is None:
            single = _SingleValue()
            akeys.insert(akey, single)
        elif isinstance(single, ExtentTree):
            raise DerInval(f"akey {akey!r} holds an array value")
        single.update(epoch, value)
        self._charge(_value_footprint(value))
        return epoch

    def fetch_single(
        self, oid: Any, dkey: Any, akey: Any, epoch: Optional[int] = None
    ) -> Any:
        obj = self.objects.get(oid)
        if obj is None:
            raise DerNonexist(f"object {oid}")
        akeys = obj.dkeys.get(dkey)
        single = akeys.get(akey) if akeys is not None else None
        if single is None:
            raise DerNonexist(f"dkey/akey {dkey!r}/{akey!r}")
        if isinstance(single, ExtentTree):
            raise DerInval(f"akey {akey!r} holds an array value")
        value = single.fetch(epoch)
        if value is _TOMBSTONE:
            raise DerNonexist(f"{dkey!r}/{akey!r} not visible at epoch {epoch}")
        return value

    def punch_single(self, oid: Any, dkey: Any, akey: Any) -> bool:
        obj = self.objects.get(oid)
        akeys = obj.dkeys.get(dkey) if obj else None
        single = akeys.get(akey) if akeys is not None else None
        if single is None or isinstance(single, ExtentTree):
            return False
        visible = single.fetch() is not _TOMBSTONE
        single.punch(self.next_epoch())
        return visible

    # ------------------------------------------------------------- array values
    def update_array(self, oid: Any, dkey: Any, akey: Any, offset: int, data) -> int:
        """Write bytes into an array akey; returns the epoch used."""
        epoch = self.next_epoch()
        obj = self._object(oid, create=True)
        akeys = obj.akey_tree(dkey, create=True)
        tree = akeys.get(akey)
        if tree is None:
            tree = ExtentTree()
            akeys.insert(akey, tree)
        elif isinstance(tree, _SingleValue):
            raise DerInval(f"akey {akey!r} holds a single value")
        delta = tree.write(offset, data, epoch)
        self._charge(delta)
        return epoch

    def fetch_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, length: int
    ) -> Payload:
        """Read bytes (holes zero-filled); absent keys read as holes."""
        obj = self.objects.get(oid)
        akeys = obj.dkeys.get(dkey) if obj else None
        tree = akeys.get(akey) if akeys is not None else None
        if tree is None:
            from repro.daos.vos.payload import ZeroPayload

            return ZeroPayload(max(0, length))
        if isinstance(tree, _SingleValue):
            raise DerInval(f"akey {akey!r} holds a single value")
        return tree.read(offset, length)

    def punch_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, length: int
    ) -> int:
        obj = self.objects.get(oid)
        akeys = obj.dkeys.get(dkey) if obj else None
        tree = akeys.get(akey) if akeys is not None else None
        if tree is None or isinstance(tree, _SingleValue):
            return 0
        freed = tree.punch(offset, length)
        self._charge(-freed)
        return freed

    # ------------------------------------------------------------- enumeration / punch
    def list_dkeys(self, oid: Any, lo: Any = None, hi: Any = None) -> Iterator[Any]:
        obj = self.objects.get(oid)
        if obj is None:
            return iter(())
        return obj.dkeys.keys(lo, hi)

    def dkey_array_sizes(self, oid: Any, akey: Any) -> Iterator[Tuple[Any, int]]:
        """(dkey, extent-tree size) for every dkey holding ``akey`` arrays."""
        obj = self.objects.get(oid)
        if obj is None:
            return
        for dkey, akeys in obj.dkeys.items():
            tree = akeys.get(akey)
            if isinstance(tree, ExtentTree) and len(tree):
                yield dkey, tree.size

    # ------------------------------------------------------------- rebuild
    def replay_single(self, oid: Any, dkey: Any, akey: Any, epoch: int, value: Any) -> None:
        """Insert a KV history entry at its *original* epoch.

        Used by the rebuild engine when resyncing a returning shard: the
        value keeps the epoch it was written with on the surviving
        replica, so a newer write that raced onto this shard while the
        resync was in flight still wins the visibility scan.
        """
        obj = self._object(oid, create=True)
        akeys = obj.akey_tree(dkey, create=True)
        single = akeys.get(akey)
        if single is None:
            single = _SingleValue()
            akeys.insert(akey, single)
        elif isinstance(single, ExtentTree):
            raise DerInval(f"akey {akey!r} holds an array value")
        if any(e == epoch for e, _ in single.history):
            return  # already present (replica had the write)
        single.update(epoch, value)
        if value is not _TOMBSTONE:
            self._charge(_value_footprint(value))

    def replay_array(
        self, oid: Any, dkey: Any, akey: Any, offset: int, data, epoch: int
    ) -> int:
        """Overlay rebuilt bytes at their original epoch.

        Unlike :meth:`update_array` this never clobbers ranges the shard
        already holds at an equal-or-newer epoch (writes that raced with
        the resync). Returns bytes actually written.
        """
        obj = self._object(oid, create=True)
        akeys = obj.akey_tree(dkey, create=True)
        tree = akeys.get(akey)
        if tree is None:
            tree = ExtentTree()
            akeys.insert(akey, tree)
        elif isinstance(tree, _SingleValue):
            raise DerInval(f"akey {akey!r} holds a single value")
        delta = tree.write_rebuild(offset, data, epoch)
        self._charge(delta)
        return delta

    def rebuild_delta(self, oid: Any, after_epoch: int = 0) -> Iterator[Tuple]:
        """Everything this shard holds for ``oid`` newer than ``after_epoch``.

        Yields, in deterministic (dkey, akey) order:

        - ``("single", dkey, akey, epoch, value)`` — the *latest* KV
          history entry per key (``value`` may be :data:`TOMBSTONE`);
        - ``("extent", dkey, akey, offset, payload, epoch)`` — one entry
          per stored extent.
        """
        obj = self.objects.get(oid)
        if obj is None:
            return
        for dkey, akeys in obj.dkeys.items():
            for akey, value in akeys.items():
                if isinstance(value, _SingleValue):
                    if not value.history:
                        continue
                    epoch, latest = value.history[-1]
                    if epoch > after_epoch:
                        yield ("single", dkey, akey, epoch, latest)
                else:
                    for ext in value:
                        if ext.epoch > after_epoch:
                            yield ("extent", dkey, akey, ext.offset,
                                   ext.payload, ext.epoch)

    def punch_dkey(self, oid: Any, dkey: Any) -> bool:
        obj = self.objects.get(oid)
        if obj is None:
            return False
        akeys = obj.dkeys.get(dkey)
        if akeys is not None:
            for _akey, value in akeys.items():
                if isinstance(value, ExtentTree):
                    self._charge(-value.used_bytes)
        return obj.dkeys.delete(dkey)

    def punch_object(self, oid: Any) -> bool:
        obj = self.objects.pop(oid, None)
        if obj is None:
            return False
        for _dkey, akeys in obj.dkeys.items():
            for _akey, value in akeys.items():
                if isinstance(value, ExtentTree):
                    self._charge(-value.used_bytes)
        return True


def _value_footprint(value: Any) -> int:
    """Approximate media footprint of a single value."""
    if isinstance(value, Payload):
        return value.nbytes
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return 64  # fixed-cost record (inode entries, counters, props)

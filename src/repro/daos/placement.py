"""Algorithmic placement: OID → ordered list of target ids.

DAOS computes object layouts with a pseudo-random algorithmic map over
the pool map (jump consistent hashing in recent versions, ring placement
before that) so that *every* client derives the same layout with no
metadata traffic. We reproduce that property: the layout is a
deterministic pseudo-random selection of ``shard_count`` distinct
targets seeded by the OID, and dkeys are routed to layout groups by a
stable hash — so chunk *i* of a DFS file always lands on the same target
no matter which client touches it.

Randomness quality matters here: S1 "hotspots" in Figure 1 are a
balls-into-bins effect of this very map.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence, Tuple

from repro.daos.objid import ObjId
from repro.errors import DerInval


def _mix64(value: int) -> int:
    """splitmix64 finalizer — cheap, well-distributed 64-bit mixing."""
    value &= 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def jump_hash(key: int, buckets: int) -> int:
    """Lamping & Veach jump consistent hash: key → [0, buckets)."""
    if buckets <= 0:
        raise DerInval("jump_hash needs buckets > 0")
    b, j = -1, 0
    key &= 0xFFFFFFFFFFFFFFFF
    while j < buckets:
        b = j
        key = (key * 2862933555777941757 + 1) & 0xFFFFFFFFFFFFFFFF
        j = int((b + 1) * (float(1 << 31) / float((key >> 33) + 1)))
    return b


def dkey_hash(dkey) -> int:
    """Stable 64-bit hash of a dkey (int chunk indices or byte names)."""
    if isinstance(dkey, int):
        return _mix64(dkey)
    if isinstance(dkey, str):
        dkey = dkey.encode("utf-8")
    if isinstance(dkey, (bytes, bytearray)):
        return int.from_bytes(
            hashlib.blake2b(bytes(dkey), digest_size=8).digest(), "little"
        )
    raise DerInval(f"unhashable dkey type {type(dkey).__name__}")


class Layout:
    """An object's resolved placement.

    ``groups[g]`` lists the target ids of redundancy group *g* (first
    entry is the group leader). A dkey belongs to exactly one group.
    Groups are tuples of ints: layouts live as long as the pool, and the
    cyclic garbage collector untracks tuples of atomics, so a large pool
    of cached layouts adds nothing to its full collections.
    """

    __slots__ = ("oid", "groups", "_probe", "_spares")

    def __init__(self, oid: ObjId, groups: Tuple[Tuple[int, ...], ...],
                 probe: "Tuple[int, int, int]" = None):
        self.oid = oid
        self.groups = groups
        #: (n_targets, start, stride) of the probe sequence that produced
        #: ``groups`` — continuing it yields the deterministic spares used
        #: when a member goes DOWNOUT.
        self._probe = probe
        self._spares = None

    @property
    def spares(self) -> List[int]:
        """Targets outside the layout, in probe order (may be empty).

        Every client derives the same list from the OID alone, so spare
        substitution after a permanent exclusion needs no metadata — the
        same algorithmic-placement property the primary layout has.
        """
        if self._spares is None:
            if self._probe is None:
                self._spares = []
            else:
                n_targets, start, stride = self._probe
                taken = set(self.all_targets)
                seq: List[int] = []
                probe = start
                # the probe is full-cycle (gcd(stride, n) == 1): n steps
                # visit every target exactly once
                for _ in range(n_targets):
                    if probe not in taken:
                        taken.add(probe)
                        seq.append(probe)
                    probe = (probe + stride) % n_targets
                self._spares = seq
        return self._spares

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def all_targets(self) -> List[int]:
        return [t for group in self.groups for t in group]

    def group_of_dkey(self, dkey) -> int:
        return dkey_hash(dkey) % len(self.groups)

    def targets_for_dkey(self, dkey) -> Tuple[int, ...]:
        """All replica targets holding ``dkey`` (leader first)."""
        return self.groups[self.group_of_dkey(dkey)]

    def leader_for_dkey(self, dkey) -> int:
        return self.targets_for_dkey(dkey)[0]


class PlacementMap:
    """Layout computation over a pool's target list."""

    def __init__(self, n_targets: int):
        if n_targets <= 0:
            raise DerInval("pool needs at least one target")
        self.n_targets = n_targets
        self._cache: Dict[Tuple[int, int], Layout] = {}

    def layout(self, oid: ObjId) -> Layout:
        key = (oid.hi, oid.lo)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        oclass = oid.oclass
        groups_nr = oclass.group_count(self.n_targets)
        width = oclass.group_width
        shards = groups_nr * width
        seed = _mix64(oid.hi * 0x9E3779B97F4A7C15 ^ _mix64(oid.lo))
        chosen: List[int] = []
        taken = set()
        # Pseudo-random distinct-target selection: a seeded probe sequence
        # (double hashing) over the target space.
        start = seed % self.n_targets
        if self.n_targets > 1:
            stride = 1 + (_mix64(seed) % (self.n_targets - 1))
            # A full-cycle probe sequence needs gcd(stride, n) == 1.
            while math.gcd(stride, self.n_targets) != 1:
                stride += 1
        else:
            stride = 1
        probe = start
        while len(chosen) < shards:
            if probe not in taken:
                taken.add(probe)
                chosen.append(probe)
            probe = (probe + stride) % self.n_targets
        groups = tuple(
            tuple(chosen[g * width : (g + 1) * width]) for g in range(groups_nr)
        )
        layout = Layout(oid, groups, probe=(self.n_targets, start, stride))
        self._cache[key] = layout
        return layout


def effective_groups(layout: Layout,
                     downout: frozenset) -> Sequence[Sequence[int]]:
    """Substitute DOWNOUT members with deterministic spares.

    Every DOWNOUT slot (group-major order) takes the next spare from the
    layout's probe continuation that is not itself DOWNOUT; slots with no
    spare left keep the dead member (the slot stays degraded forever).
    The result depends only on (layout, downout) — DOWNOUT is terminal,
    so the substitution is stable over time and every client and the
    rebuild engine agree on it without coordination.
    """
    if not downout:
        return layout.groups
    spares = iter(s for s in layout.spares if s not in downout)
    groups: List[List[int]] = []
    for group in layout.groups:
        new_group = []
        for tid in group:
            if tid in downout:
                new_group.append(next(spares, tid))
            else:
                new_group.append(tid)
        groups.append(new_group)
    return groups

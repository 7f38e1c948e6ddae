"""Application-integrated far-memory data structures (AIFM-style).

The paper leans on AIFM/LeanStore-style *remotable* data structures as
prior art for Challenges 1–3: data structures that live in a memory
region wherever the runtime put it, dereference through swizzlable
pointers, feed the hotness tracker, and keep working (just faster)
after the tiering daemon migrates them up.

* :class:`RemoteArray` — fixed-stride elements over one region; random
  ``get``/``set`` plus a sequential ``scan`` that uses the streaming
  interface.
* :class:`RemoteHashMap` — open-addressing hash table over one region;
  every probe is a real (simulated) memory access, so lookups on far
  memory cost what they should and migration visibly speeds them up.

All operations are simulation generators (``yield from``); they go
through :class:`~repro.memory.interfaces.Accessor`, so contention,
granularity amplification, and interface rules all apply.
"""

from __future__ import annotations

import hashlib
import typing

from repro.hardware.cluster import Cluster
from repro.memory.interfaces import AccessPattern, Accessor
from repro.memory.region import MemoryRegion
from repro.obs.telemetry import SampledHotness


class StructureError(Exception):
    """Misuse of a far-memory structure (bounds, capacity, key errors)."""


class _RemoteStructure:
    """Shared plumbing: accessor construction + hotness feed."""

    def __init__(
        self,
        cluster: Cluster,
        region: MemoryRegion,
        observer: str,
        tracker: typing.Optional[SampledHotness] = None,
    ):
        self.cluster = cluster
        self.region = region
        self.observer = observer
        self.tracker = tracker
        self.accesses = 0

    def _accessor(self) -> Accessor:
        self.region.check_alive()
        owner = next(iter(self.region.ownership.owners))
        return Accessor(self.cluster, self.region.handle(owner), self.observer)

    def _note(self, nbytes: float) -> None:
        self.accesses += 1
        if self.tracker is not None:
            self.tracker.record(self.region.id, nbytes, self.cluster.engine.now)

    @property
    def backing_device(self) -> str:
        return self.region.device.name


class RemoteArray(_RemoteStructure):
    """A fixed-stride array in a (possibly far) memory region."""

    def __init__(
        self,
        cluster: Cluster,
        region: MemoryRegion,
        observer: str,
        element_size: int,
        tracker: typing.Optional[SampledHotness] = None,
    ):
        super().__init__(cluster, region, observer, tracker)
        if element_size <= 0:
            raise ValueError(f"element size must be positive, got {element_size}")
        if element_size > region.size:
            raise ValueError("element larger than the backing region")
        self.element_size = element_size
        self.length = region.size // element_size
        #: Local element cache (the Python-visible values; the simulated
        #: cost is charged by the accessor calls).
        self._values: typing.Dict[int, object] = {}

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise StructureError(
                f"index {index} out of range [0, {self.length})"
            )

    def get(self, index: int):
        """Generator: read element ``index``; returns its value (or None)."""
        self._check_index(index)
        self._note(self.element_size)
        yield from self._accessor().read(
            self.element_size, pattern=AccessPattern.RANDOM,
            access_size=self.element_size,
        )
        return self._values.get(index)

    def set(self, index: int, value):
        """Generator: write element ``index``."""
        self._check_index(index)
        self._note(self.element_size)
        yield from self._accessor().write(
            self.element_size, pattern=AccessPattern.RANDOM,
            access_size=self.element_size,
        )
        self._values[index] = value

    def scan(self, start: int = 0, count: typing.Optional[int] = None):
        """Generator: stream ``count`` elements sequentially; returns them."""
        if count is None:
            count = self.length - start
        self._check_index(start)
        if count < 0 or start + count > self.length:
            raise StructureError(f"scan [{start}, {start + count}) out of range")
        if count == 0:
            return []
        nbytes = count * self.element_size
        self._note(nbytes)
        yield from self._accessor().read(
            nbytes, pattern=AccessPattern.SEQUENTIAL,
        )
        return [self._values.get(i) for i in range(start, start + count)]


class RemoteHashMap(_RemoteStructure):
    """Open-addressing (linear probing) hash map over a region.

    Each slot is ``slot_size`` bytes; every probe during ``put``/``get``
    issues one simulated random access, so the structure's cost scales
    with load factor and with the backing device's round trip — which is
    the entire point of placing it well.
    """

    def __init__(
        self,
        cluster: Cluster,
        region: MemoryRegion,
        observer: str,
        slot_size: int = 64,
        tracker: typing.Optional[SampledHotness] = None,
    ):
        super().__init__(cluster, region, observer, tracker)
        if slot_size <= 0:
            raise ValueError(f"slot size must be positive, got {slot_size}")
        self.slot_size = slot_size
        self.capacity = region.size // slot_size
        if self.capacity < 1:
            raise ValueError("region too small for even one slot")
        self._slots: typing.List[typing.Optional[typing.Tuple]] = (
            [None] * self.capacity
        )
        self.size = 0
        self.total_probes = 0

    @property
    def load_factor(self) -> float:
        return self.size / self.capacity

    def _slot_of(self, key) -> int:
        # Not ``hash()``: string hashes are salted per process, and the
        # slot decides the probe count, so the simulated latencies.  Not
        # a CRC either: its low bits barely collide on sequential keys,
        # so probe costs would not grow with load as they should.
        digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") % self.capacity

    def _probe_access(self, is_write: bool):
        self._note(self.slot_size)
        self.total_probes += 1
        accessor = self._accessor()
        op = accessor.write if is_write else accessor.read
        yield from op(
            self.slot_size, pattern=AccessPattern.RANDOM,
            access_size=self.slot_size,
        )

    def put(self, key, value):
        """Generator: insert/update; raises when the table is full."""
        start = self._slot_of(key)
        for step in range(self.capacity):
            index = (start + step) % self.capacity
            yield from self._probe_access(is_write=False)
            slot = self._slots[index]
            if slot is None or slot[0] == key:
                yield from self._probe_access(is_write=True)
                if slot is None:
                    self.size += 1
                self._slots[index] = (key, value)
                return index
        raise StructureError("hash map is full")

    def get(self, key):
        """Generator: look up ``key``; raises KeyError when absent."""
        start = self._slot_of(key)
        for step in range(self.capacity):
            index = (start + step) % self.capacity
            yield from self._probe_access(is_write=False)
            slot = self._slots[index]
            if slot is None:
                raise KeyError(key)
            if slot[0] == key:
                return slot[1]
        raise KeyError(key)

    def contains(self, key):
        """Generator: membership test without raising."""
        try:
            yield from self.get(key)
        except KeyError:
            return False
        return True

"""Remotable pointers that feed hotness tracking.

The paper (§3, Challenges 1–3) points at pointer tagging and pointer
swizzling — LeanStore, AIFM, TPP, Carbink — as the mechanism for
tracking hot objects and referencing memory that may be local or
remote.  We reproduce both ideas at region granularity:

* :class:`RemotePointer` is a fat pointer ``(region, offset)`` that can
  be *swizzled*: when the target region currently lives on a device the
  observer can load/store directly, it dereferences in "direct" mode;
  otherwise it is "remote" and dereferencing goes through the async
  interface.  Each dereference bumps the tag's access counter.
* hotness is tracked by :class:`~repro.obs.telemetry.SampledHotness`
  (``rate=1`` counts every access): exponentially-decayed access
  frequencies per region, which the tiering daemon
  (:mod:`repro.memory.tiering`) uses for promotion/demotion decisions.
"""

from __future__ import annotations

import typing

from repro.hardware.cluster import Cluster
from repro.memory.region import MemoryRegion
from repro.obs.telemetry import SampledHotness


class RemotePointer:
    """A swizzlable fat pointer into a region.

    The ``mode`` property answers "would a dereference by ``observer``
    be a direct load or a remote fetch *right now*", which changes as
    the tiering daemon migrates the region — exactly the
    local-vs-remote pointer distinction of AIFM/Carbink.
    """

    def __init__(
        self,
        cluster: Cluster,
        region: MemoryRegion,
        offset: int = 0,
        tracker: typing.Optional[SampledHotness] = None,
    ):
        if offset < 0 or offset >= region.size:
            raise ValueError(
                f"offset {offset} outside region of {region.size} B"
            )
        self.cluster = cluster
        self.region = region
        self.offset = offset
        self.tracker = tracker
        self.dereferences = 0

    def mode(self, observer: str) -> str:
        """'direct' when the observer can load/store the backing device."""
        if self.cluster.topology.addressable(observer, self.region.device.name):
            return "direct"
        return "remote"

    def dereference(self, observer: str, nbytes: int = 64):
        """Generator: touch ``nbytes`` at the pointer via the right mode.

        Records the access in the hotness tracker.  Returns the access
        duration in ns.
        """
        from repro.memory.interfaces import AccessMode, Accessor, AccessPattern

        self.region.check_alive()
        owner = next(iter(self.region.ownership.owners))
        handle = self.region.handle(owner)
        accessor = Accessor(self.cluster, handle, observer)
        mode = AccessMode.SYNC if self.mode(observer) == "direct" else AccessMode.ASYNC
        self.dereferences += 1
        if self.tracker is not None:
            self.tracker.record(self.region.id, nbytes, self.cluster.engine.now)
        duration = yield from accessor.read(
            min(nbytes, self.region.size), pattern=AccessPattern.RANDOM, mode=mode,
            access_size=min(nbytes, self.region.size),
        )
        return duration

    def __repr__(self) -> str:
        return (
            f"<RemotePointer {self.region.name}+{self.offset} "
            f"on {self.region.device.name}>"
        )

"""Hotness-driven tiering: TPP-style promotion and demotion.

The runtime "must know or predict the resource utilization of memory
and compute devices" and optimize placement continuously (§3,
Challenges 1–3).  The :class:`TieringDaemon` is that background
optimizer for memory: it periodically consults the
:class:`~repro.obs.telemetry.SampledHotness` tracker and migrates

* **hot** regions stuck on slow tiers up to the fastest device with
  room (promotion), and
* **cold** regions hogging a tier that is above its occupancy watermark
  down a tier (demotion),

never violating a region's declared properties (persistence, latency
class) in the process.
"""

from __future__ import annotations

import typing

from repro.hardware.cluster import Cluster
from repro.hardware.devices import MemoryDevice
from repro.memory.manager import MemoryManager, PlacementError
from repro.memory.properties import LatencyClass
from repro.memory.region import MemoryRegion, RegionState
from repro.obs.telemetry import SampledHotness


class TieringPolicy:
    """Decides which regions should move where."""

    def __init__(
        self,
        cluster: Cluster,
        manager: MemoryManager,
        tracker: SampledHotness,
        observer: str,
        hot_bytes_threshold: float = 1024.0,
        cold_bytes_threshold: float = 64.0,
        watermark: float = 0.9,
        allowed_devices: typing.Optional[typing.Iterable[str]] = None,
    ):
        self.cluster = cluster
        self.manager = manager
        self.tracker = tracker
        self.observer = observer
        self.hot_bytes_threshold = hot_bytes_threshold
        self.cold_bytes_threshold = cold_bytes_threshold
        self.watermark = watermark
        #: Restrict tiering to these devices (None = all byte-addressable).
        #: Lets deployments keep e.g. on-chip caches out of the region pool.
        self.allowed_devices = set(allowed_devices) if allowed_devices else None

    # -- device ranking ----------------------------------------------------

    def rtt(self, device: MemoryDevice) -> float:
        """Round-trip latency from the policy's observer to a device."""
        return (
            2.0 * self.cluster.topology.path_latency(self.observer, device.name)
            + device.spec.latency
        )

    def tier_order(self) -> typing.List[MemoryDevice]:
        """Byte-addressable devices, fastest first, as seen by the observer."""
        devices = [
            d for d in self.cluster.memory_devices()
            if d.spec.byte_addressable
            and (self.allowed_devices is None or d.name in self.allowed_devices)
        ]
        devices.sort(key=self.rtt)
        return devices

    def _allowed(self, region: MemoryRegion, device: MemoryDevice) -> bool:
        if region.properties.persistent and not device.spec.persistent:
            return False
        offered = LatencyClass.classify(self.rtt(device))
        return offered <= region.properties.latency

    # -- decisions -------------------------------------------------------

    def decide(
        self, time: float, max_moves: int = 4
    ) -> typing.List[typing.Tuple[MemoryRegion, str]]:
        """Plan up to ``max_moves`` migrations for the current instant."""
        tiers = self.tier_order()
        if not tiers:
            return []
        rank = {d.name: i for i, d in enumerate(tiers)}
        planned_free = {d.name: self.allocator_free(d.name) for d in tiers}
        moves: typing.List[typing.Tuple[MemoryRegion, str]] = []

        regions = [
            r for r in self.manager.live_regions() if r.state is RegionState.ACTIVE
        ]
        hotness = {r.id: self.tracker.hotness(r.id, time) for r in regions}

        # Promotions: hottest first.
        for region in sorted(regions, key=lambda r: -hotness[r.id]):
            if len(moves) >= max_moves:
                return moves
            if hotness[region.id] < self.hot_bytes_threshold:
                break
            current = rank.get(region.device.name)
            if current in (None, 0):
                continue
            for device in tiers[:current]:
                if not self._allowed(region, device):
                    continue
                if planned_free[device.name] >= region.size:
                    planned_free[device.name] -= region.size
                    moves.append((region, device.name))
                    break

        # Demotions: over-watermark tiers shed their coldest regions.
        for tier_index, device in enumerate(tiers[:-1]):
            if device.utilization < self.watermark:
                continue
            residents = [r for r in regions if r.device.name == device.name]
            residents.sort(key=lambda r: hotness[r.id])
            for region in residents:
                if len(moves) >= max_moves:
                    return moves
                if hotness[region.id] > self.cold_bytes_threshold:
                    break
                if any(r is region for r, _ in moves):
                    continue
                for target in tiers[tier_index + 1:]:
                    if not self._allowed(region, target):
                        continue
                    if planned_free[target.name] >= region.size:
                        planned_free[target.name] -= region.size
                        moves.append((region, target.name))
                        break
        return moves

    def allocator_free(self, device_name: str) -> int:
        """Largest allocatable extent on a device (migration headroom)."""
        return self.manager.allocators[device_name].largest_free_extent


class TieringDaemon:
    """Background simulation process applying the policy periodically."""

    def __init__(
        self,
        policy: TieringPolicy,
        interval_ns: float = 100_000.0,
        max_moves_per_round: int = 4,
    ):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.policy = policy
        self.interval_ns = interval_ns
        self.max_moves = max_moves_per_round
        self.promotions = 0
        self.demotions = 0
        self.rounds = 0
        self._stop = False

    def stop(self) -> None:
        """Ask the background loop to exit at its next wakeup."""
        self._stop = True

    def run(self):
        """Simulation generator; start with ``engine.process(daemon.run())``."""
        cluster = self.policy.cluster
        manager = self.policy.manager
        while not self._stop:
            yield cluster.engine.timeout(self.interval_ns)
            if self._stop:
                return
            self.rounds += 1
            moves = self.policy.decide(cluster.engine.now, self.max_moves)
            rank = {d.name: i for i, d in enumerate(self.policy.tier_order())}
            for region, target in moves:
                if region.state is not RegionState.ACTIVE:
                    continue
                was = rank.get(region.device.name, len(rank))
                goes = rank.get(target, len(rank))
                source = region.device.name
                try:
                    yield from manager.migrate(region, target)
                except PlacementError:
                    continue  # capacity raced away; retry next round
                if goes < was:
                    self.promotions += 1
                else:
                    self.demotions += 1
                trace = cluster.trace
                if trace.wants("tiering"):
                    trace.emit(
                        cluster.engine.now, "tiering",
                        "promote" if goes < was else "demote",
                        region=region.name, nbytes=region.size,
                        src=source, dst=target,
                    )

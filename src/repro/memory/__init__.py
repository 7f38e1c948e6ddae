"""Memory substrate: typed regions, ownership, and access interfaces.

This package implements the paper's central abstractions (§2.2):

* **Properties, not locations** (:mod:`repro.memory.properties`):
  applications request memory by declaring required properties — latency
  and bandwidth classes, persistence, coherence, confidentiality — and
  never name a physical device.
* **Memory Regions** (:mod:`repro.memory.region`,
  :mod:`repro.memory.regions`): logical, typed views onto physical
  devices, including the paper's three predefined regions
  (Table 2): Private Scratch, Global State, Global Scratch.
* **Ownership** (:mod:`repro.memory.ownership`): every region is
  exclusively owned or explicitly shared; exclusive ownership can be
  *transferred* like a C++ move, invalidating stale handles.
* **Shared-region reuse** (:mod:`repro.memory.sharing`): a keyed cache
  of refcounted read-only shared regions with deferred eviction — the
  substrate LLM serving uses for KV-cache prefix blocks.
* **Access interfaces** (:mod:`repro.memory.interfaces`): synchronous
  load/store for near memory, asynchronous batched access for far
  memory.
* **Bookkeeping** (:mod:`repro.memory.allocator`,
  :mod:`repro.memory.manager`): offset-level allocation on each device
  and the logical→physical mapping table.
* **Placement feedback** (:mod:`repro.memory.pointers`,
  :mod:`repro.memory.tiering`): pointer tagging for hotness tracking and
  a TPP-style tiering daemon that migrates regions between tiers.
"""

from repro.memory.properties import (
    BandwidthClass,
    LatencyClass,
    MemoryProperties,
    OfferedProperties,
)
from repro.memory.allocator import Allocation, AllocationError, FreeListAllocator
from repro.memory.ownership import (
    NotOwnerError,
    OwnershipError,
    OwnershipMode,
    OwnershipRecord,
    UseAfterTransferError,
)
from repro.memory.region import MemoryRegion, RegionHandle, RegionState
from repro.memory.regions import (
    CustomRegionType,
    RegionType,
    define_region_type,
    lookup_region_type,
    region_properties,
)
from repro.memory.manager import MemoryManager, PlacementError
from repro.memory.sharing import CacheEntry, SharedRegionCache, SharedRegionError
from repro.memory.interfaces import AccessMode, AccessPattern, InterfaceError
from repro.memory.pointers import RemotePointer
from repro.memory.tiering import TieringPolicy, TieringDaemon
from repro.memory.addressing import (
    AddressError,
    PageTableEntry,
    VirtualAddressSpace,
)
from repro.memory.coherence import CoherenceModel
from repro.memory.dsl import (
    PropertySyntaxError,
    parse_properties,
    parse_task_card,
)
from repro.memory.structures import RemoteArray, RemoteHashMap, StructureError

__all__ = [
    "AccessMode",
    "AccessPattern",
    "AddressError",
    "Allocation",
    "AllocationError",
    "BandwidthClass",
    "CacheEntry",
    "CoherenceModel",
    "CustomRegionType",
    "FreeListAllocator",
    "InterfaceError",
    "LatencyClass",
    "MemoryManager",
    "MemoryProperties",
    "MemoryRegion",
    "NotOwnerError",
    "OfferedProperties",
    "OwnershipError",
    "OwnershipMode",
    "OwnershipRecord",
    "PageTableEntry",
    "PlacementError",
    "PropertySyntaxError",
    "RegionHandle",
    "RegionState",
    "RegionType",
    "RemoteArray",
    "RemoteHashMap",
    "RemotePointer",
    "SharedRegionCache",
    "SharedRegionError",
    "StructureError",
    "TieringDaemon",
    "TieringPolicy",
    "UseAfterTransferError",
    "VirtualAddressSpace",
    "define_region_type",
    "lookup_region_type",
    "parse_properties",
    "parse_task_card",
    "region_properties",
]

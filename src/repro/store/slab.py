"""Slab-class memory allocator with LRU eviction (Memcached's heart).

Memory is carved into fixed-size *pages* assigned on demand to *slab
classes* of geometrically growing chunk sizes.  An item occupies one chunk
of the smallest class that fits ``key + value + item header``.  When the
page pool is exhausted, a class evicts its own least-recently-used items
to make room — and when even that cannot produce a slot, the store drops
the write, which is exactly the "data loss" the paper reports for
Async-Rep at 40 clients in Figure 10.

Payloads (with their bytes, when present) are kept alongside the
accounting so Get returns real data; accounting itself is byte-accurate
regardless.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.common.payload import Payload
from repro.obs.metrics import MetricsRegistry
from repro.store.protocol import EMPTY_META

#: Per-item metadata overhead (memcached's item header + CAS).
ITEM_HEADER = 56

# One slab page.  Stock memcached uses 1 MB, which cannot hold a 1 MB
# *value* once the item header and key are added; the paper stores 1 MB
# values, so (like RDMA-Memcached's raised -I limit) pages get 8 KB of
# headroom.
DEFAULT_PAGE_SIZE = 1024 * 1024 + 8192
DEFAULT_MIN_CHUNK = 96
DEFAULT_GROWTH = 1.25


class StoredItem:
    """One cache entry — slotted, and metaless items share EMPTY_META,
    because a million-key cluster holds a million of these."""

    __slots__ = ("key", "value_len", "data", "meta", "class_id", "_payload")

    def __init__(
        self,
        key: str,
        value_len: int,
        value: Optional[Payload],
        meta: Optional[dict] = None,
        class_id: int = 0,
    ):
        self.key = key
        self.value_len = value_len
        #: the stored bytes (None when size-only); rot replaces the object
        self.data = None if value is None else value.data
        self.meta = EMPTY_META if meta is None else meta
        self.class_id = class_id
        self._payload = value

    def payload(self) -> Payload:
        """The stored value as a :class:`Payload`.

        While ``data`` is still the very bytes object the item was stored
        from, this is the Payload it was stored from, whose CRC was
        memoized at ingest — a verify or a response check then costs no
        pass over the bytes.  Every path that changes the bytes (rot,
        ``corrupt_item``, a direct assignment) installs a new object, so
        the identity check fails and a fresh wrap pays a real CRC.
        """
        payload = self._payload
        if payload is None or payload.data is not self.data:
            payload = self._payload = Payload(self.value_len, self.data)
        return payload

    def __repr__(self) -> str:
        return "StoredItem(key=%r, value_len=%r, class_id=%r)" % (
            self.key,
            self.value_len,
            self.class_id,
        )


class SlabClass:
    """One chunk-size class: its pages, free slots, and LRU order."""

    def __init__(self, class_id: int, chunk_size: int, page_size: int):
        self.class_id = class_id
        self.chunk_size = chunk_size
        self.slots_per_page = max(1, page_size // chunk_size)
        self.pages = 0
        self.free_slots = 0
        self.lru: "OrderedDict[str, StoredItem]" = OrderedDict()


class SlabCache:
    """Bounded key-value cache with slab allocation and LRU eviction."""

    def __init__(
        self,
        memory_limit: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        growth_factor: float = DEFAULT_GROWTH,
        item_max: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_prefix: str = "slab",
    ):
        if memory_limit < page_size:
            raise ValueError("memory_limit smaller than one page")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1.0")
        self.memory_limit = memory_limit
        self.page_size = page_size
        self.item_max = item_max or page_size
        self.classes: List[SlabClass] = []
        size = min_chunk
        class_id = 0
        while size < self.item_max:
            self.classes.append(SlabClass(class_id, size, page_size))
            size = int(size * growth_factor) + 1
            class_id += 1
        self.classes.append(SlabClass(class_id, self.item_max, page_size))
        #: ascending chunk sizes, one per class, for the bisect in class_for
        self._chunk_sizes = [c.chunk_size for c in self.classes]
        self._index: Dict[str, StoredItem] = {}
        self.pages_allocated = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.failed_stores = 0
        self.failed_bytes = 0
        self.total_sets = 0
        self.total_gets = 0
        self.hits = 0
        registry = metrics or MetricsRegistry()
        self._evictions_counter = registry.counter(
            "%s.evictions" % metric_prefix
        )
        self._evicted_bytes_counter = registry.counter(
            "%s.evicted_bytes" % metric_prefix
        )
        self._failed_stores_counter = registry.counter(
            "%s.failed_stores" % metric_prefix
        )

    # -- sizing --------------------------------------------------------------
    def item_footprint(self, key: str, value_len: int) -> int:
        """Bytes one item occupies: header + key + value."""
        return ITEM_HEADER + len(key) + value_len

    def class_for(self, key: str, value_len: int) -> Optional[SlabClass]:
        """Smallest slab class that fits the item, or None if oversized."""
        need = ITEM_HEADER + len(key) + value_len  # item_footprint
        if need > self.item_max:
            return None
        # the last class is item_max wide, so a fitting item always lands
        return self.classes[bisect_left(self._chunk_sizes, need)]

    # -- accounting ------------------------------------------------------------
    @property
    def used_memory(self) -> int:
        """Bytes of memory committed to pages (what an operator sees)."""
        return self.pages_allocated * self.page_size

    @property
    def stored_bytes(self) -> int:
        """Sum of live item footprints (logical occupancy)."""
        return sum(
            self.item_footprint(item.key, item.value_len)
            for item in self._index.values()
        )

    @property
    def item_count(self) -> int:
        """Live items stored."""
        return len(self._index)

    def utilization(self) -> float:
        """Fraction of the memory limit committed to pages."""
        return self.used_memory / self.memory_limit

    # -- operations ---------------------------------------------------------
    def set(
        self,
        key: str,
        value_len: int,
        value: Optional[Payload] = None,
        meta: Optional[dict] = None,
    ) -> bool:
        """Store an item; returns ``False`` when the write had to be dropped.

        ``value`` carries the bytes, if any; the item keeps it (see
        :meth:`StoredItem.payload`).  Accounting uses ``value_len`` only.
        Follows memcached: replace frees the old slot first; a full cache
        evicts LRU items *of the same class*; a class that cannot get its
        first page (pool exhausted, nothing evictable) drops the write.
        """
        self.total_sets += 1
        slab_class = self.class_for(key, value_len)
        if slab_class is None:
            self.failed_stores += 1
            self.failed_bytes += value_len
            self._failed_stores_counter.inc()
            return False

        existing = self._index.pop(key, None)
        if existing is not None:
            old_class = self.classes[existing.class_id]
            del old_class.lru[key]
            old_class.free_slots += 1

        if not self._ensure_slot(slab_class):
            self.failed_stores += 1
            self.failed_bytes += value_len
            self._failed_stores_counter.inc()
            return False

        # non-empty metas are copied (the caller's dict may alias a live
        # request); empty ones collapse onto the shared sentinel
        item = StoredItem(
            key=key,
            value_len=value_len,
            value=value,
            meta=dict(meta) if meta else None,
            class_id=slab_class.class_id,
        )
        slab_class.free_slots -= 1
        slab_class.lru[key] = item
        self._index[key] = item
        return True

    def get(self, key: str) -> Optional[StoredItem]:
        """Fetch an item, refreshing its LRU recency."""
        self.total_gets += 1
        item = self._index.get(key)
        if item is None:
            return None
        self.hits += 1
        slab_class = self.classes[item.class_id]
        slab_class.lru.move_to_end(key)
        return item

    def keys(self) -> List[str]:
        """Live item keys, in insertion order (fault injection targets)."""
        return list(self._index)

    def peek(self, key: str) -> Optional[StoredItem]:
        """Read without touching LRU recency or hit statistics."""
        return self._index.get(key)

    def delete(self, key: str) -> bool:
        """Remove an item; returns False when absent."""
        item = self._index.pop(key, None)
        if item is None:
            return False
        slab_class = self.classes[item.class_id]
        del slab_class.lru[key]
        slab_class.free_slots += 1
        return True

    def flush(self) -> None:
        """Drop all items (keeps allocated pages, like memcached flush_all)."""
        for slab_class in self.classes:
            slab_class.free_slots += len(slab_class.lru)
            slab_class.lru.clear()
        self._index.clear()

    def wipe(self) -> None:
        """Simulate node memory loss: everything — items and pages — gone."""
        for slab_class in self.classes:
            slab_class.lru.clear()
            slab_class.free_slots = 0
            slab_class.pages = 0
        self._index.clear()
        self.pages_allocated = 0

    # -- internals ----------------------------------------------------------
    def _ensure_slot(self, slab_class: SlabClass) -> bool:
        if slab_class.free_slots > 0:
            return True
        if (self.pages_allocated + 1) * self.page_size <= self.memory_limit:
            self.pages_allocated += 1
            slab_class.pages += 1
            slab_class.free_slots += slab_class.slots_per_page
            return True
        if slab_class.lru:
            victim_key, victim = slab_class.lru.popitem(last=False)
            del self._index[victim_key]
            slab_class.free_slots += 1
            self.evictions += 1
            self.evicted_bytes += victim.value_len
            self._evictions_counter.inc()
            self._evicted_bytes_counter.inc(victim.value_len)
            return True
        return False

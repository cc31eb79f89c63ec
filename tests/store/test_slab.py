"""Slab allocator: accounting, eviction, and data-loss semantics."""

import pytest

from repro.common.payload import Payload
from repro.store.slab import DEFAULT_PAGE_SIZE, ITEM_HEADER, SlabCache

MIB = 1024 * 1024


@pytest.fixture
def cache():
    return SlabCache(memory_limit=16 * MIB)


class TestBasicOps:
    def test_set_get_roundtrip(self, cache):
        assert cache.set("k1", 100, value=Payload.from_bytes(b"x" * 100))
        item = cache.get("k1")
        assert item.value_len == 100
        assert item.data == b"x" * 100

    def test_get_missing(self, cache):
        assert cache.get("nope") is None

    def test_meta_stored(self, cache):
        cache.set("k1", 10, meta={"chunk": 3})
        assert cache.get("k1").meta == {"chunk": 3}

    def test_delete(self, cache):
        cache.set("k1", 10)
        assert cache.delete("k1")
        assert cache.get("k1") is None
        assert not cache.delete("k1")

    def test_replace_frees_old_slot(self, cache):
        cache.set("k1", 100)
        cache.set("k1", 200)
        assert cache.item_count == 1
        assert cache.get("k1").value_len == 200

    def test_peek_does_not_touch_lru_or_stats(self, cache):
        cache.set("k1", 10)
        gets_before = cache.total_gets
        assert cache.peek("k1") is not None
        assert cache.total_gets == gets_before

    def test_hit_statistics(self, cache):
        cache.set("k1", 10)
        cache.get("k1")
        cache.get("missing")
        assert cache.total_gets == 2
        assert cache.hits == 1

    def test_flush_keeps_pages(self, cache):
        cache.set("k1", 1000)
        pages = cache.pages_allocated
        cache.flush()
        assert cache.item_count == 0
        assert cache.pages_allocated == pages

    def test_wipe_clears_everything(self, cache):
        cache.set("k1", 1000)
        cache.wipe()
        assert cache.item_count == 0
        assert cache.pages_allocated == 0
        assert cache.used_memory == 0


class TestSizing:
    def test_footprint_includes_header_and_key(self, cache):
        assert cache.item_footprint("abcd", 100) == ITEM_HEADER + 4 + 100

    def test_class_selection_smallest_fit(self, cache):
        small = cache.class_for("k", 10)
        large = cache.class_for("k", 10_000)
        assert small.chunk_size < large.chunk_size
        assert small.chunk_size >= cache.item_footprint("k", 10)

    def test_oversized_item_rejected(self, cache):
        assert not cache.set("k", cache.item_max + 1)
        assert cache.failed_stores == 1
        assert cache.failed_bytes == cache.item_max + 1

    def test_one_mib_value_fits(self, cache):
        """The paper's largest key-value pair must be storable."""
        assert cache.set("a" * 16, MIB)

    def test_memory_limit_validation(self):
        with pytest.raises(ValueError):
            SlabCache(memory_limit=100)

    def test_growth_factor_validation(self):
        with pytest.raises(ValueError):
            SlabCache(memory_limit=16 * MIB, growth_factor=1.0)


class TestAccounting:
    def test_used_memory_counts_pages(self, cache):
        assert cache.used_memory == 0
        cache.set("k1", 100)
        assert cache.used_memory == DEFAULT_PAGE_SIZE

    def test_stored_bytes_tracks_footprints(self, cache):
        cache.set("k1", 100)
        cache.set("k2", 200)
        expected = cache.item_footprint("k1", 100) + cache.item_footprint(
            "k2", 200
        )
        assert cache.stored_bytes == expected

    def test_utilization_fraction(self, cache):
        cache.set("k1", 100)
        assert cache.utilization() == pytest.approx(
            DEFAULT_PAGE_SIZE / (16 * MIB)
        )


class TestEviction:
    def make_full_cache(self, value_len=700_000):
        # 2-page cache, 1 item per page for this class
        cache = SlabCache(memory_limit=2 * DEFAULT_PAGE_SIZE)
        assert cache.set("k0", value_len)
        assert cache.set("k1", value_len)
        return cache, value_len

    def test_lru_item_evicted_when_full(self):
        cache, value_len = self.make_full_cache()
        assert cache.set("k2", value_len)  # evicts k0 (oldest)
        assert cache.get("k0") is None
        assert cache.get("k1") is not None
        assert cache.evictions == 1
        assert cache.evicted_bytes == value_len

    def test_get_refreshes_lru_order(self):
        cache, value_len = self.make_full_cache()
        cache.get("k0")  # k0 is now most-recent; k1 becomes LRU
        cache.set("k2", value_len)
        assert cache.get("k0") is not None
        assert cache.get("k1") is None

    def test_small_class_cannot_get_first_page_drops_write(self):
        cache = SlabCache(memory_limit=2 * DEFAULT_PAGE_SIZE)
        cache.set("k0", 700_000)
        cache.set("k1", 700_000)
        # pool exhausted; a different class with no pages must drop
        assert not cache.set("tiny", 10)
        assert cache.failed_stores == 1

    def test_eviction_is_per_class(self):
        cache = SlabCache(memory_limit=2 * DEFAULT_PAGE_SIZE)
        cache.set("small", 10)  # class A gets page 0
        cache.set("big0", 700_000)  # class B gets page 1
        assert not cache.set("big1", 700_000) or cache.evictions >= 1
        # the small item must survive: class B evicts its own items
        assert cache.get("small") is not None

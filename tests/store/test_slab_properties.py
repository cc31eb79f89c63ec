"""Property-based tests: slab cache invariants under random op sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.store.slab import SlabCache

MIB = 1024 * 1024

keys = st.sampled_from(["k%d" % i for i in range(12)])
sizes = st.sampled_from([10, 500, 5_000, 60_000, 400_000, 900_000])


class SlabCacheMachine(RuleBasedStateMachine):
    """Random set/get/delete sequences must preserve accounting."""

    def __init__(self):
        super().__init__()
        self.cache = SlabCache(memory_limit=4 * MIB)
        self.model = {}  # our own view of what *should* be present

    @rule(key=keys, size=sizes)
    def do_set(self, key, size):
        stored = self.cache.set(key, size)
        if stored:
            self.model[key] = size
        else:
            # a failed replace removes the old entry (slot already freed)
            self.model.pop(key, None)

    @rule(key=keys)
    def do_get(self, key):
        item = self.cache.get(key)
        if item is not None:
            assert key in self.model
            assert item.value_len == self.model[key]

    @rule(key=keys)
    def do_delete(self, key):
        removed = self.cache.delete(key)
        assert removed == (key in self.model)
        self.model.pop(key, None)

    @invariant()
    def memory_never_exceeds_limit(self):
        assert self.cache.used_memory <= self.cache.memory_limit

    @invariant()
    def index_consistent_with_classes(self):
        total_in_classes = sum(len(c.lru) for c in self.cache.classes)
        assert total_in_classes == self.cache.item_count

    @invariant()
    def model_is_subset_of_cache(self):
        # the cache may have evicted keys we think exist, so sync first
        for key in list(self.model):
            if self.cache.peek(key) is None:
                del self.model[key]  # evicted: legal
        for key, size in self.model.items():
            item = self.cache.peek(key)
            assert item is not None and item.value_len == size

    @invariant()
    def slot_accounting_balances(self):
        for slab_class in self.cache.classes:
            capacity = slab_class.pages * slab_class.slots_per_page
            assert slab_class.free_slots + len(slab_class.lru) == capacity


TestSlabCacheStateMachine = SlabCacheMachine.TestCase
TestSlabCacheStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class TestEvictionProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(sizes, min_size=1, max_size=60))
    def test_writes_never_corrupt_accounting(self, write_sizes):
        cache = SlabCache(memory_limit=3 * MIB)
        stored = 0
        for index, size in enumerate(write_sizes):
            if cache.set("key%d" % index, size):
                stored += 1
        assert cache.total_sets == len(write_sizes)
        assert cache.item_count <= stored
        assert (
            cache.item_count + cache.evictions + cache.failed_stores
            >= len({("key%d" % i) for i in range(len(write_sizes))})
            - (len(write_sizes) - stored)
        )
        assert cache.used_memory <= cache.memory_limit

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_eviction_order_is_lru(self, extra):
        """Whatever gets evicted must be older than what survives."""
        cache = SlabCache(memory_limit=2 * MIB)
        order = []
        for i in range(extra + 4):
            key = "k%03d" % i
            if cache.set(key, 700_000):
                order.append(key)
        survivors = [k for k in order if cache.peek(k) is not None]
        # survivors must be a suffix of the insertion order
        assert survivors == order[len(order) - len(survivors):]


def _scan_class_for(cache, key, value_len):
    """The reference: the linear scan ``class_for`` used before its bisect."""
    need = cache.item_footprint(key, value_len)
    if need > cache.item_max:
        return None
    for slab_class in cache.classes:
        if slab_class.chunk_size >= need:
            return slab_class
    return None


class TestClassForMatchesScan:
    """``class_for`` bisects a chunk-size list; it must pick the very
    class the linear scan picks, at every class edge, at ``item_max``
    and past it."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([None, 4096, 100_000]),
        st.sampled_from([1.07, 1.25, 2.0]),
        st.text(max_size=40),
        st.integers(min_value=0, max_value=1_100_000),
    )
    def test_same_class_as_scan(self, item_max, growth, key, value_len):
        cache = SlabCache(
            memory_limit=4 * MIB, growth_factor=growth, item_max=item_max
        )
        assert cache.class_for(key, value_len) is _scan_class_for(
            cache, key, value_len
        )

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([None, 4096, 100_000]), st.integers(-2, 2))
    def test_edges(self, item_max, nudge):
        cache = SlabCache(memory_limit=4 * MIB, item_max=item_max)
        key = "edge"
        footprints = [c.chunk_size for c in cache.classes] + [cache.item_max]
        for footprint in footprints:
            value_len = footprint - cache.item_footprint(key, 0) + nudge
            if value_len >= 0:
                assert cache.class_for(key, value_len) is _scan_class_for(
                    cache, key, value_len
                )
        oversized = cache.item_max - cache.item_footprint(key, 0) + 1
        assert cache.class_for(key, oversized) is None

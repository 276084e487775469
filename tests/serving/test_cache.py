"""Tests for the TTL + LRU cache and the fleet selection cache."""

import pytest

from repro.clock import ManualClock
from repro.core import OpenEI
from repro.core.alem import ALEMRequirement, OptimizationTarget
from repro.exceptions import ConfigurationError
from repro.serving import SelectionCache
from repro.serving.cache import TTLLRUCache


# -- TTLLRUCache ----------------------------------------------------------------

def test_cache_hit_miss_and_stats():
    cache = TTLLRUCache(max_size=4, ttl_s=None)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert "a" in cache and "b" not in cache
    assert len(cache) == 1


def test_cache_lru_eviction_order():
    cache = TTLLRUCache(max_size=2, ttl_s=None)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh "a": "b" is now least recently used
    cache.put("c", 3)       # evicts "b"
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.stats.evictions == 1


def test_cache_ttl_expiry_with_injected_clock():
    clock = ManualClock()
    cache = TTLLRUCache(max_size=4, ttl_s=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(9.0)
    assert cache.get("a") == 1
    clock.advance(2.0)      # entry is now 11 s old
    assert cache.get("a") is None
    assert cache.stats.expirations == 1
    assert "a" not in cache


def test_cache_put_refreshes_value_and_ttl():
    clock = ManualClock()
    cache = TTLLRUCache(max_size=4, ttl_s=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(8.0)
    cache.put("a", 2)       # refresh resets the TTL
    clock.advance(8.0)
    assert cache.get("a") == 2


def test_cache_clear_and_validation():
    cache = TTLLRUCache(max_size=2, ttl_s=None)
    cache.put("a", 1)
    cache.clear()
    assert len(cache) == 0
    with pytest.raises(ConfigurationError):
        TTLLRUCache(max_size=0)
    with pytest.raises(ConfigurationError):
        TTLLRUCache(ttl_s=0.0)


# -- SelectionCache keying -------------------------------------------------------

def test_selection_key_distinguishes_all_inputs():
    base = SelectionCache.make_key(
        "pi", "vision", ("a", "b"), ALEMRequirement(), OptimizationTarget.LATENCY
    )
    assert base == SelectionCache.make_key(
        "pi", "vision", ("a", "b"), ALEMRequirement(), OptimizationTarget.LATENCY
    )
    variants = [
        SelectionCache.make_key("jetson", "vision", ("a", "b"), ALEMRequirement(),
                                OptimizationTarget.LATENCY),
        SelectionCache.make_key("pi", None, ("a", "b"), ALEMRequirement(),
                                OptimizationTarget.LATENCY),
        SelectionCache.make_key("pi", "vision", ("a",), ALEMRequirement(),
                                OptimizationTarget.LATENCY),
        SelectionCache.make_key("pi", "vision", ("a", "b"), ALEMRequirement(min_accuracy=0.5),
                                OptimizationTarget.LATENCY),
        SelectionCache.make_key("pi", "vision", ("a", "b"), ALEMRequirement(),
                                OptimizationTarget.ENERGY),
    ]
    for variant in variants:
        assert variant != base


# -- OpenEI hot-path integration -------------------------------------------------

@pytest.fixture()
def cached_openei(trained_image_models):
    # A fresh zoo per test: one test below mutates it to invalidate the cache,
    # which must not leak into the session-scoped image_zoo fixture.
    from repro.core.model_zoo import ModelZoo

    zoo = ModelZoo()
    for name, model in trained_image_models.items():
        zoo.register(name, model, task="image-classification", input_shape=(16, 16, 1),
                     scenario="safety")
    return OpenEI(
        device_name="raspberry-pi-4", zoo=zoo, selection_cache=SelectionCache(ttl_s=300.0)
    )


def test_select_model_skips_reevaluation_on_hit(cached_openei, monkeypatch):
    calls = {"count": 0}
    original = cached_openei.evaluate_capability

    def counting(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cached_openei, "evaluate_capability", counting)
    first = cached_openei.select_model(task="image-classification")
    second = cached_openei.select_model(task="image-classification")
    assert calls["count"] == 1
    # the hit is a defensive copy of the same ranking (see aliasing test below)
    assert second is not first
    assert second.selected is first.selected
    assert second.feasible == first.feasible
    assert cached_openei.selection_cache.stats.hits == 1


def test_select_model_different_requirements_miss(cached_openei):
    cached_openei.select_model(task="image-classification")
    cached_openei.select_model(
        task="image-classification", requirement=ALEMRequirement(max_memory_mb=1e6)
    )
    cached_openei.select_model(
        task="image-classification", target=OptimizationTarget.ENERGY
    )
    assert cached_openei.selection_cache.stats.hits == 0
    assert cached_openei.selection_cache.stats.misses == 3


def test_set_accuracy_invalidates_cached_selection(cached_openei):
    cached_openei.select_model(
        task="image-classification", requirement=ALEMRequirement(min_accuracy=None)
    )
    cached_openei.capability_evaluator.set_accuracy("lenet", 0.123)
    cached_openei.select_model(
        task="image-classification", requirement=ALEMRequirement(min_accuracy=None)
    )
    # the accuracy fingerprint changed, so the second call must re-evaluate
    assert cached_openei.selection_cache.stats.hits == 0
    assert cached_openei.selection_cache.stats.misses == 2


def test_same_device_different_package_do_not_share_entries(trained_image_models):
    from repro.core.model_zoo import ModelZoo
    from repro.hardware.profiler import make_profiler

    zoo = ModelZoo()
    for name, model in trained_image_models.items():
        zoo.register(name, model, task="image-classification", input_shape=(16, 16, 1))
    shared = SelectionCache(ttl_s=300.0)
    lite = OpenEI(device_name="raspberry-pi-4", zoo=zoo, selection_cache=shared)
    full = OpenEI(device_name="raspberry-pi-4", zoo=zoo, selection_cache=shared)
    full.capability_evaluator.profiler = make_profiler("openei-lite-quantized")
    lite.select_model(task="image-classification")
    full.select_model(task="image-classification")
    # same device name, different package: the second call must not reuse
    # the first instance's profile-dependent result
    assert shared.stats.hits == 0 and shared.stats.misses == 2


def test_cache_is_thread_safe_under_concurrent_expiry():
    import threading

    cache = TTLLRUCache(max_size=8, ttl_s=0.0005)
    errors = []

    def worker(seed: int) -> None:
        try:
            for n in range(400):
                key = (seed + n) % 4
                cache.put(key, n)
                cache.get(key)
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_cached_result_mutation_does_not_corrupt_future_hits(cached_openei):
    # regression: cached SelectionResult lists used to be returned by
    # reference, so one caller truncating the ranking corrupted every
    # future hit for the same key
    first = cached_openei.select_model(task="image-classification")
    assert first.feasible
    first.feasible.clear()
    first.infeasible.append("garbage")
    second = cached_openei.select_model(task="image-classification")
    assert cached_openei.selection_cache.stats.hits == 1
    assert second.feasible and "garbage" not in second.infeasible
    assert second.selected.model_name == first.selected.model_name


def test_selection_cache_targeted_invalidation(cached_openei):
    from repro.core.alem import ALEMRequirement

    cache = cached_openei.selection_cache
    cached_openei.select_model(task="image-classification")
    cached_openei.select_model(
        task="image-classification", requirement=ALEMRequirement(max_memory_mb=1e6)
    )
    assert len(cache) == 2
    # a different device's entries are untouched
    assert cache.invalidate(device_name="jetson-tx2") == 0
    assert cache.invalidate(device_name=None, task=None) == 0
    assert len(cache) == 2
    removed = cache.invalidate(device_name="raspberry-pi-4", task="image-classification")
    assert removed == 2 and len(cache) == 0
    assert cache.stats.invalidations == 2
    # the next selection is a fresh miss, not a stale hit
    cached_openei.select_model(task="image-classification")
    assert cache.stats.misses >= 3


def test_zoo_change_invalidates_cached_selection(cached_openei, trained_mlp):
    first = cached_openei.select_model(task="image-classification")
    cached_openei.zoo.register(
        "late-arrival", trained_mlp, task="tabular", input_shape=(10,)
    )
    second = cached_openei.select_model(task="image-classification")
    # the zoo fingerprint changed, so this must be a fresh evaluation (a miss)
    assert cached_openei.selection_cache.stats.misses == 2
    assert second is not first


def test_select_model_with_eval_data_bypasses_cache(cached_openei, images_dataset):
    cached_openei.select_model(
        task="image-classification",
        x_test=images_dataset.x_test,
        y_test=images_dataset.y_test,
    )
    assert cached_openei.selection_cache.stats.lookups == 0


def test_selection_cache_ttl_expiry_with_injected_clock():
    """SelectionCache-level TTL: an expired selection is a miss, not a stale hit."""
    from repro.core.model_selector import SelectionResult

    clock = ManualClock()
    cache = SelectionCache(max_size=4, ttl_s=10.0, clock=clock)
    key = SelectionCache.make_key(
        "pi", "vision", ("a",), ALEMRequirement(), OptimizationTarget.LATENCY
    )
    result = SelectionResult(
        selected=None, target=OptimizationTarget.LATENCY, requirement=ALEMRequirement()
    )
    cache.put(key, result)
    clock.advance(9.0)
    assert cache.get(key) is not None
    clock.advance(2.0)  # the entry is now 11 s old: past the 10 s TTL
    assert cache.get(key) is None
    assert cache.stats.expirations == 1
    assert len(cache) == 0
    # re-populating after expiry works and restarts the clock
    cache.put(key, result)
    assert cache.get(key) is not None


def test_remove_where_under_concurrent_get_put_invalidate():
    """remove_where must stay consistent while readers and writers hammer
    the same cache: no exceptions, no resurrected keys, exact accounting."""
    import threading

    cache = TTLLRUCache(max_size=64, ttl_s=None)
    errors = []
    removed_total = [0]
    removed_lock = threading.Lock()
    stop = threading.Event()

    def is_doomed(key):
        return key[1] % 2 == 0

    def churn(seed: int) -> None:
        try:
            for n in range(600):
                key = ("device", (seed + n) % 16)
                cache.put(key, n)
                cache.get(key)
        except Exception as exc:  # noqa: BLE001 - any escape fails the test
            errors.append(exc)
        finally:
            stop.set()  # first finished writer releases the invalidators

    def invalidate() -> None:
        try:
            while not stop.is_set():
                count = cache.remove_where(is_doomed)
                with removed_lock:
                    removed_total[0] += count
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    writers = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    invalidators = [threading.Thread(target=invalidate) for _ in range(2)]
    for thread in writers + invalidators:
        thread.start()
    for thread in writers + invalidators:
        thread.join()
    assert errors == []

    # final sweep: whatever even keys the writers left behind go now, and
    # the stats ledger matches every removal that ever happened
    removed_total[0] += cache.remove_where(is_doomed)
    survivors = [("device", i) for i in range(16) if ("device", i) in cache]
    assert survivors and all(not is_doomed(key) for key in survivors)
    assert cache.stats.invalidations == removed_total[0]
    # odd keys survived the sweeps untouched by remove_where
    assert len(cache) > 0

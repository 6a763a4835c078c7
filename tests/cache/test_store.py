"""Unit tests for the cache store tiers: LRU, disk, tiering, robustness."""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache import (
    CheckCache,
    DiskStore,
    MemoryStore,
    TieredStore,
    count_by_kind,
    default_cache_dir,
)
from repro.cache.store import decode_entry, encode_entry


class TestFraming:
    def test_roundtrip(self):
        assert decode_entry(encode_entry(b"payload")) == b"payload"

    def test_empty_payload_roundtrip(self):
        assert decode_entry(encode_entry(b"")) == b""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:-1],            # truncated payload
            lambda raw: raw[: len(raw) // 2],  # torn write
            lambda raw: b"junk" + raw,       # wrong magic
            lambda raw: raw + b"tail",       # trailing garbage
            lambda raw: raw[:-1] + b"X",     # flipped byte
            lambda raw: b"",                 # empty file
        ],
    )
    def test_damage_reads_as_none(self, damage):
        raw = encode_entry(b"some cached payload")
        assert decode_entry(damage(raw)) is None


class TestMemoryStore:
    def test_roundtrip_and_miss(self):
        store = MemoryStore()
        assert store.get("k") is None
        store.put("k", b"v")
        assert store.get("k") == b"v"

    def test_lru_eviction_order(self):
        """get() refreshes recency; eviction removes the *least* recent."""
        store = MemoryStore(max_entries=2)
        store.put("a", b"1")
        store.put("b", b"2")
        assert store.get("a") == b"1"  # a is now most-recently-used
        store.put("c", b"3")           # evicts b, not a
        assert store.get("b") is None
        assert store.get("a") == b"1"
        assert store.get("c") == b"3"
        assert store.stats().evictions == 1

    def test_put_refreshes_recency(self):
        store = MemoryStore(max_entries=2)
        store.put("a", b"1")
        store.put("b", b"2")
        store.put("a", b"1*")  # rewrite refreshes a
        store.put("c", b"3")   # evicts b
        assert store.get("a") == b"1*"
        assert store.get("b") is None

    def test_max_bytes_eviction(self):
        store = MemoryStore(max_entries=100, max_bytes=10)
        store.put("a", b"x" * 6)
        store.put("b", b"y" * 6)   # 12 bytes total -> evict a
        assert store.get("a") is None
        assert store.get("b") is not None

    def test_clear_and_prune(self):
        store = MemoryStore()
        for i in range(4):
            store.put(f"k{i}", b"x" * 10)
        assert store.prune(25) == 2  # oldest two go
        assert store.keys() == ["k2", "k3"]
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryStore(max_entries=0)


class TestDiskStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("plan-abc", b"payload")
        assert store.get("plan-abc") == b"payload"
        # a second store over the same directory sees the entry
        assert DiskStore(tmp_path).get("plan-abc") == b"payload"

    def test_miss_on_empty_dir(self, tmp_path):
        store = DiskStore(tmp_path / "never-created")
        assert store.get("plan-abc") is None
        assert store.stats().entries == 0
        assert store.clear() == 0

    def test_corrupt_entry_reads_as_miss_and_self_heals(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("plan-abc", b"payload")
        [blob] = list(tmp_path.rglob("*.blob"))
        blob.write_bytes(blob.read_bytes()[:10])  # truncate
        assert store.get("plan-abc") is None
        assert not blob.exists()  # damaged entry dropped
        store.put("plan-abc", b"payload")  # slot is writable again
        assert store.get("plan-abc") == b"payload"

    def test_garbage_entry_reads_as_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("plan-abc", b"payload")
        [blob] = list(tmp_path.rglob("*.blob"))
        blob.write_bytes(b"\x00\xff" * 100)
        assert store.get("plan-abc") is None

    def test_unpicklable_garbage_survives_adapters(self, tmp_path):
        """A validly framed but non-pickle payload must read as a plan
        miss, not an exception (version-skew simulation)."""
        from repro.cache import PlanCache, plan_key, structure_fingerprint
        from repro.core.miter import alg2_trace_network
        from repro.library import qft
        from repro.noise import insert_random_noise

        ideal = qft(2)
        net = alg2_trace_network(insert_random_noise(ideal, 1, seed=0), ideal)
        store = DiskStore(tmp_path)
        cache = PlanCache(store)
        key = plan_key(structure_fingerprint(net), "min_fill", None)
        store.put(key, b"not a pickle at all")
        assert cache.get(key) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(5):
            store.put(f"plan-{i:02d}", b"x" * 100)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []

    def test_write_failure_is_swallowed(self, tmp_path):
        # An unusable cache path (a *file* where the directory should
        # be — robust even when tests run as root, unlike chmod):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = DiskStore(blocker / "cache")
        store.put("plan-abc", b"payload")  # must not raise
        assert store.get("plan-abc") is None

    def test_prune_evicts_oldest_first(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(3):
            store.put(f"plan-{i}", b"x" * 100)
        # make plan-0 the oldest and plan-1 the freshest explicitly
        times = {0: 1000, 2: 2000, 1: 3000}
        for i, stamp in times.items():
            [path] = list(tmp_path.rglob(f"plan-{i}.blob"))
            os.utime(path, (stamp, stamp))
        removed = store.prune(2 * (100 + 46))  # keep two framed entries
        assert removed == 1
        assert store.get("plan-0") is None  # oldest went first
        assert store.get("plan-1") is not None
        assert store.get("plan-2") is not None

    def test_clear_removes_everything(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(4):
            store.put(f"result-{i}", b"data")
        assert store.clear() == 4
        assert store.stats().entries == 0

    def test_orphaned_temp_files_are_reaped(self, tmp_path):
        """A writer killed mid-put leaves a .tmp-* file; clear removes
        it outright and prune reaps it once it is stale."""
        store = DiskStore(tmp_path)
        store.put("plan-abc", b"payload")
        shard = next(p for p in tmp_path.iterdir() if p.is_dir())
        fresh_orphan = shard / ".tmp-orphan-fresh"
        fresh_orphan.write_bytes(b"half-written")
        stale_orphan = shard / ".tmp-orphan-stale"
        stale_orphan.write_bytes(b"half-written")
        os.utime(stale_orphan, (1000, 1000))
        store.prune(10**9)  # budget keeps every real entry
        assert not stale_orphan.exists()   # stale orphan reaped
        assert fresh_orphan.exists()       # in-flight write untouched
        assert store.get("plan-abc") == b"payload"
        store.clear()
        assert not fresh_orphan.exists()   # clear wipes unconditionally

    def test_env_var_sets_default_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        store = DiskStore()
        store.put("plan-x", b"1")
        assert (tmp_path / "env-cache").is_dir()

    def test_default_directory_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"


class TestTieredStore:
    def test_put_writes_through_and_get_promotes(self, tmp_path):
        memory = MemoryStore()
        disk = DiskStore(tmp_path)
        tiered = TieredStore([memory, disk])
        tiered.put("k", b"v")
        assert memory.get("k") == b"v"
        assert disk.get("k") == b"v"
        # a fresh memory tier warms itself from disk on first get
        cold = TieredStore([MemoryStore(), DiskStore(tmp_path)])
        assert cold.get("k") == b"v"
        assert cold.tiers[0].get("k") == b"v"  # promoted

    def test_directory_comes_from_persistent_tier(self, tmp_path):
        tiered = TieredStore([MemoryStore(), DiskStore(tmp_path)])
        assert tiered.directory == str(tmp_path)
        assert TieredStore([MemoryStore()]).directory is None

    def test_stats_reports_tiers(self, tmp_path):
        tiered = TieredStore([MemoryStore(), DiskStore(tmp_path)])
        tiered.put("k", b"v")
        stats = tiered.stats()
        assert stats.entries == 1
        assert [tier.store for tier in stats.tiers] == ["memory", "disk"]

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError):
            TieredStore([])


def _hammer_store(directory, key, payload, repeats):
    """Worker: rewrite the same key many times (concurrent-writer test)."""
    store = DiskStore(directory)
    for _ in range(repeats):
        store.put(key, payload)
    return True


class TestConcurrentWriters:
    def test_two_processes_same_key_leave_a_readable_store(self, tmp_path):
        """Interleaved writers of one key must never produce a state a
        reader can crash on or misread — the os.replace guarantee."""
        payload_a = pickle.dumps({"writer": "a", "data": list(range(200))})
        payload_b = pickle.dumps({"writer": "b", "data": list(range(300))})
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_hammer_store, str(tmp_path), "result-shared",
                            payload_a, 50),
                pool.submit(_hammer_store, str(tmp_path), "result-shared",
                            payload_b, 50),
            ]
            for future in futures:
                assert future.result() is True
        raw = DiskStore(tmp_path).get("result-shared")
        assert raw in (payload_a, payload_b)  # one write won, intact
        assert pickle.loads(raw)["writer"] in ("a", "b")
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []


class TestCheckCacheFacade:
    def test_open_builds_two_tiers(self, tmp_path):
        cache = CheckCache.open(tmp_path)
        assert cache.directory == str(tmp_path)
        tiers = cache.stats().tiers
        assert [tier.store for tier in tiers] == ["memory", "disk"]

    def test_clear_and_prune_passthrough(self, tmp_path):
        cache = CheckCache.open(tmp_path)
        cache.store.put("plan-1", b"x" * 50)
        cache.store.put("result-1", b"y" * 50)
        assert cache.stats().entries == 2
        # entries live in both tiers; the count is logical, not summed
        assert cache.prune(0) == 2
        assert cache.stats().entries == 0
        cache.store.put("plan-2", b"z")
        assert cache.clear() == 1

    def test_count_by_kind(self):
        counts = count_by_kind(["plan-a", "plan-b", "result-c", "weird"])
        assert counts == {"plans": 2, "results": 1, "other": 1}

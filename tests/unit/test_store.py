"""Unit tests for the blob store, its remote transport and the shard tiers.

The store contract is written once: every blob is digest-checked on
``get``, and a corrupt one is deleted and read as a miss.  On top of it,
a shard's tiered store reads local-then-remote and publishes
best-effort, so a second shard's read-through skips codegen entirely and
a remote outage degrades to local caching.
"""

import os
import pickle

import pytest

from repro.blobstore import LocalStore, StoreError
from repro.native.sharedlib import pack_native, unpack_native
from repro.serve.cache import (ArtifactCache, artifact_key, pack_artifact,
                               unpack_artifact)
from repro.serve.store import (HeatStore, RemoteStore, StoreServer,
                               TieredStore)
from tests.unit.test_serve_cache import _make_artifact

#: Each stored file carries the payload's sha256 in front of it.
DIGEST = 32


@pytest.fixture()
def store_server(tmp_path):
    server = StoreServer(tmp_path / "store")
    server.start()
    yield server
    server.stop()


@pytest.fixture()
def remote(store_server):
    return RemoteStore.parse(store_server.address)


class TestLocalStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = LocalStore(tmp_path)
        assert store.get("artifact", "ab" * 16) is None
        store.put("artifact", "ab" * 16, b"payload")
        assert store.get("artifact", "ab" * 16) == b"payload"
        assert store.path("artifact", "ab" * 16) == \
            tmp_path / "artifact" / "ab" / f"{'ab' * 16}.blob"
        assert store.stat()["artifact"] == {"count": 1,
                                            "bytes": DIGEST + 7}

    def test_rejects_bad_kind_and_key(self, tmp_path):
        store = LocalStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("sneaky", "ab" * 16, b"x")
        with pytest.raises(StoreError):
            store.put("artifact", "../../etc/passwd", b"x")
        with pytest.raises(StoreError):
            store.get("artifact", "UPPER" * 8)

    def test_kinds_are_separate_namespaces(self, tmp_path):
        store = LocalStore(tmp_path)
        store.put("artifact", "cd" * 16, b"one")
        assert store.get("native", "cd" * 16) is None

    @pytest.mark.parametrize("damage", ["truncate", "flip", "empty",
                                        "no_digest"])
    def test_corrupt_blob_is_a_miss_and_removed(self, tmp_path, damage):
        store = LocalStore(tmp_path)
        key = "ef" * 16
        store.put("native", key, b"\x7fELF" + bytes(range(256)) * 4)
        path = store.path("native", key)
        data = path.read_bytes()
        damaged = {
            "truncate": data[:len(data) // 3],
            "flip": data[:-1] + bytes([data[-1] ^ 1]),
            "empty": b"",
            "no_digest": data[DIGEST:],  # a payload written without one
        }[damage]
        path.write_bytes(damaged)
        assert store.get("native", key) is None
        assert not path.exists()
        # The caller's rebuild replaces it.
        store.put("native", key, b"fresh")
        assert store.get("native", key) == b"fresh"


class TestRemoteStore:
    def test_roundtrip_over_tcp(self, remote):
        key = "12" * 16
        assert remote.get("artifact", key) is None
        remote.put("artifact", key, b"\x00\x01binary\xff")
        assert remote.get("artifact", key) == b"\x00\x01binary\xff"
        assert remote.stat()["kinds"]["artifact"]["count"] == 1

    def test_parse(self):
        store = RemoteStore.parse("127.0.0.1:7777")
        assert (store.host, store.port) == ("127.0.0.1", 7777)

    def test_server_counts(self, store_server, remote):
        remote.put("artifact", "ef" * 16, b"x")
        remote.get("artifact", "ef" * 16)
        remote.get("artifact", "00" * 16)
        assert store_server.counts["put"] == 1
        assert store_server.counts["get"] == 2
        assert store_server.counts["get_hit"] == 1

    def test_unreachable_raises_store_error(self):
        dead = RemoteStore("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(StoreError):
            dead.get("artifact", "ab" * 16)


class TestPacking:
    def test_artifact_roundtrip(self):
        _, artifact = _make_artifact()
        blob = pack_artifact(artifact)
        back = unpack_artifact(blob)
        assert back is not None
        assert back.model_fingerprint == artifact.model_fingerprint
        assert back.model_name == artifact.model_name

    def test_artifact_corrupt_is_none(self):
        assert unpack_artifact(b"junk") is None
        assert unpack_artifact(pickle.dumps((999, "wrong"))) is None

    def test_native_roundtrip(self):
        blob = pack_native(b"\x7fELF...", "int main(){}", "{\"flags\": []}")
        bundle = unpack_native(blob)
        assert bundle is not None
        assert bundle["so"] == b"\x7fELF..."
        assert bundle["c"] == "int main(){}"
        assert bundle["info"] == "{\"flags\": []}"

    def test_native_corrupt_is_none(self):
        assert unpack_native(b"nope") is None
        assert unpack_native(pickle.dumps((999, {"so": b""}))) is None


class TestSharedArtifactCache:
    """An :class:`ArtifactCache` over a shard's tiered store."""

    def _key(self, artifact):
        return artifact_key(artifact.model_fingerprint,
                            artifact.generator, artifact.backend)

    def _shard(self, root, remote):
        return ArtifactCache(TieredStore(LocalStore(root), remote))

    def test_put_publishes_and_second_shard_reads_through(
            self, tmp_path, store_server, remote):
        """Shard A's put lands in the store, and shard B (its own local
        tier) serves the artifact without any codegen of its own — its
        first ``get`` is a hit."""
        _, artifact = _make_artifact()
        key = self._key(artifact)
        shard_a = self._shard(tmp_path / "a", remote)
        shard_b = self._shard(tmp_path / "b", remote)

        assert shard_a.get(key) is None  # genuinely cold fleet-wide
        shard_a.put(key, artifact)
        assert store_server.store.get("artifact", key) is not None

        fetched = shard_b.get(key)
        assert fetched is not None
        assert fetched.model_fingerprint == artifact.model_fingerprint
        # Read-through copied the blob into B's local tier: the next get
        # never leaves the shard.
        assert LocalStore(tmp_path / "b").get("artifact", key) is not None
        shard_b.store.remote = RemoteStore("127.0.0.1", 1, timeout=0.2)
        assert shard_b.get(key) is not None

    def test_corrupt_remote_artifact_never_served(self, tmp_path, remote):
        """A store blob that does not decode is a miss (the caller
        recompiles locally), and the recompile republishes a good copy."""
        _, artifact = _make_artifact()
        key = self._key(artifact)
        remote.put("artifact", key, b"corrupted bytes, not a pickle")
        cache = self._shard(tmp_path / "shard", remote)
        assert cache.get(key) is None
        cache.put(key, artifact)
        assert unpack_artifact(remote.get("artifact", key)) is not None
        assert cache.get(key) is not None

    def test_remote_outage_degrades_to_local(self, tmp_path):
        _, artifact = _make_artifact()
        key = self._key(artifact)
        cache = self._shard(tmp_path,
                            RemoteStore("127.0.0.1", 1, timeout=0.2))
        assert cache.get(key) is None
        cache.put(key, artifact)  # publish fails softly
        assert cache.get(key) is not None  # the local tier still serves


class TestHeatStore:
    def test_roundtrip_local(self, tmp_path):
        heat = HeatStore(LocalStore(tmp_path))
        assert heat.load("f" * 32) is None
        heat.save("f" * 32, {"heat": 12.5, "invocations": 3})
        record = heat.load("f" * 32)
        assert record == {"heat": 12.5, "invocations": 3}

    def test_roundtrip_remote(self, remote):
        heat = HeatStore(remote)
        heat.save("a" * 32, {"heat": 1.0})
        assert heat.load("a" * 32) == {"heat": 1.0}

    def test_failures_are_soft(self):
        heat = HeatStore(RemoteStore("127.0.0.1", 1, timeout=0.2))
        assert heat.load("b" * 32) is None
        assert heat.save("b" * 32, {"heat": 1.0}) is False

    def test_cluster_shards_keep_heat_on_the_shared_store(
            self, tmp_path, store_server):
        """Heat is mutable, so shards read and write it on the shared
        store: shard A's newer record is what shard B loads, even after B
        once held an older one."""
        from repro.serve.pool import PoolConfig, _build_cache, _heat_store
        shard = [_build_cache(PoolConfig(cache_dir=str(tmp_path / name),
                                         store=store_server.address))
                 for name in ("a", "b")]
        heat_a, heat_b = (_heat_store(cache) for cache in shard)
        heat_b.save("c" * 32, {"heat": 1.0})
        assert heat_b.load("c" * 32) == {"heat": 1.0}
        heat_a.save("c" * 32, {"heat": 9.0})
        assert heat_b.load("c" * 32) == {"heat": 9.0}
        assert not os.path.exists(tmp_path / "b" / "heat")

"""The one blob store under artifacts, ``.so`` bundles and heat, end to end.

* A corrupt blob never kills a process: the store's digest check turns
  it into a miss, and the request is answered as before.  The check runs
  in fresh child processes, because an unchecked truncated ``.so``
  dies with SIGBUS inside ``dlopen`` and would take pytest with it.
* Cluster shards share native builds through the store: the fleet runs
  gcc once per program.
* Every cache directory holds one layout, ``<kind>/<aa>/<key>.blob``.
* The native loader stays a leaf: building a native VM over a path
  store loads no serve-layer module.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blobstore import LocalStore
from repro.ir.interp import clear_vm_cache
from repro.native import (clear_shared_program_cache, find_compiler,
                          shared_program_stats)
from repro.serve.pool import PoolConfig, WorkerPool
from repro.serve.store import StoreServer

needs_cc = pytest.mark.skipif(find_compiler() is None,
                              reason="no C compiler")

#: One request through a fresh worker-shaped process: the pool's inline
#: path builds the cache and the adaptive tier exactly as a worker does.
CHILD = """
import json, sys
from repro.serve.adaptive import AdaptiveConfig
from repro.serve.pool import PoolConfig, WorkerPool
config = PoolConfig(workers=0, cache_dir=sys.argv[1],
                    adaptive=AdaptiveConfig(threshold_ms=1e12))
with WorkerPool(config) as pool:
    result, meta = pool.execute(json.loads(sys.argv[2]))
print(json.dumps({"output_sha256": result["output_sha256"],
                  "artifact_cache": meta["artifact_cache"]}))
"""

BLOB_PATH = re.compile(r"^(artifact|native|heat)/[0-9a-f]{2}/[0-9a-f]+\.blob$")


def _request(backend: str) -> dict:
    return {"op": "run", "model": "Motivating", "generator": "frodo",
            "backend": backend, "steps": 2, "seed": 3}


def _python(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter; its last stdout line."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert proc.returncode == 0, (
        f"child exited with {proc.returncode}\n{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _run_child(cache_dir: Path, req: dict) -> dict:
    return json.loads(_python(CHILD, str(cache_dir), json.dumps(req)))


def _layout(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("kind", [
    pytest.param("native", marks=[pytest.mark.native, needs_cc]),
    "artifact",
    "heat",
])
def test_corrupt_blob_never_kills_a_process(kind, tmp_path):
    req = _request("native" if kind == "native" else "auto")
    first = _run_child(tmp_path, req)
    [blob] = (tmp_path / kind).glob("*/*.blob")
    size = blob.stat().st_size
    # Truncate to a third through an atomic replace, as a torn copy or a
    # half-synced disk would leave it.
    torn = blob.with_suffix(".torn")
    torn.write_bytes(blob.read_bytes()[:size // 3])
    os.replace(torn, blob)

    second = _run_child(tmp_path, req)
    assert second["output_sha256"] == first["output_sha256"]
    # The bad blob was dropped and rewritten with good bytes.
    assert LocalStore(tmp_path).get(kind, blob.name[:-len(".blob")]) \
        is not None
    assert blob.stat().st_size > size // 3
    assert all(BLOB_PATH.match(p) for p in _layout(tmp_path))


@pytest.mark.native
@needs_cc
def test_fleet_compiles_a_native_program_once(tmp_path):
    """Shard B finds shard A's ``.so`` bundle in the shared store: no gcc
    run, same answer, and every directory holds only blobs."""
    server = StoreServer(tmp_path / "store").start()
    pools = [WorkerPool(PoolConfig(workers=0,
                                   cache_dir=str(tmp_path / name),
                                   store=server.address))
             for name in ("a", "b")]
    try:
        clear_vm_cache()
        clear_shared_program_cache()
        first, _ = pools[0].execute(_request("native"))
        clear_vm_cache()
        clear_shared_program_cache()
        builds = shared_program_stats()["builds"]
        second, meta = pools[1].execute(_request("native"))
        assert shared_program_stats()["builds"] == builds
        assert second["output_sha256"] == first["output_sha256"]
        assert meta["artifact_cache"] == "hit"
        pools[1].execute(_request("auto"))
    finally:
        for pool in pools:
            pool.close()
        server.stop()
        # Later serve tests fork workers from this process: leave their
        # VM caches cold.
        clear_vm_cache()
        clear_shared_program_cache()
    for root in ("a", "b", "store"):
        files = _layout(tmp_path / root)
        assert {f.split("/")[0] for f in files} == {"artifact", "native"}
        assert all(BLOB_PATH.match(f) for f in files), files


@pytest.mark.native
@needs_cc
def test_native_vm_over_a_path_store_imports_no_serve_module(tmp_path):
    script = """
import sys
from repro.codegen import make_generator
from repro.ir.interp import VirtualMachine
from repro.zoo import build_model
code = make_generator("frodo").generate(build_model("Motivating"))
VirtualMachine(code.program, backend="native", so_cache_dir=sys.argv[1])
print(sorted(m for m in sys.modules if m.startswith("repro.serve")))
"""
    assert _python(script, str(tmp_path)) == "[]"
    assert [f.split("/")[0] for f in _layout(tmp_path)] == ["native"]

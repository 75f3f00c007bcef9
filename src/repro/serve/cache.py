"""Persistent content-addressed artifact cache for generated programs.

A served ``compile`` or ``run`` request costs model construction +
dataflow analysis + range determination + code generation + loop fusion
before a single element is executed.  All of that is a pure function of
``(model, generator, fuse)``, so the service stores the result — the
program that runs (fused when ``fuse`` is on) plus its inport/outport
buffer maps and summary statistics — as an ``artifact`` blob of
:mod:`repro.blobstore`::

    <cache_dir>/artifact/<aa>/<key>.blob

where ``key = sha256(model_fingerprint : generator : - : fuse)`` (no
backend: every backend runs the same stored program) and the model
fingerprint is the sha256 of the model's canonical ``.mdl``
text (so the same model uploaded as ``.slx`` or referenced as a zoo name
shares one artifact).  A restarted server therefore skips code generation
entirely for every model it has seen before — the SLNET observation that
corpus-scale workloads re-invoke the generator over the same models far
more often than models change.

:class:`ArtifactCache` is only the codec: a pickle plus an
:data:`ARTIFACT_VERSION` check over a blob store.  The store owns the
layout, atomic writes and the digest check that turns a corrupt file
into a miss; a version-skewed entry is a miss too, and the caller's
recompile overwrites it.  Artifacts are pickled — the store is a
private, server-written cache, not an interchange format.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from dataclasses import dataclass, field
from typing import Optional

from repro.blobstore import open_store
from repro.ir.ops import Program

#: Bump when the artifact payload's layout or meaning changes (2: the
#: program is stored fused); older entries become cache misses instead
#: of deserialization errors or unfused programs run as fused ones.
ARTIFACT_VERSION = 2


@dataclass
class Artifact:
    """One cached compilation result: the program every backend runs.

    With ``fuse`` on, ``program`` is already fused and ``stats["fusion"]``
    holds its :class:`~repro.ir.fuse.FusionStats`; consumers execute,
    emit or promote it as it is (``fuse=False`` on the VM).
    """

    model_fingerprint: str
    model_name: str
    generator: str
    #: ``"-"`` for served artifacts: they do not depend on the backend.
    backend: str
    program: Program
    #: Inport block name -> program input buffer name.
    input_buffers: dict[str, str] = field(default_factory=dict)
    #: Outport block name -> program output buffer name.
    output_buffers: dict[str, str] = field(default_factory=dict)
    #: Cheap summary stats (static_bytes, eliminated elements, ...).
    stats: dict = field(default_factory=dict)


def _canonical_model_lines(model, out: list) -> None:
    """Order-independent serialization of a model's semantic content.

    Blocks are sorted by (unique) name and connections by endpoint, so two
    models that differ only in insertion order — e.g. a zoo build versus
    its ``.slx`` round-trip, whose ``<Line>`` elements are regrouped —
    fingerprint identically.  Parameter values go through the ``.slx``
    encoder, which already canonicalizes numpy arrays and scalars.
    """
    from repro.model.slx import encode_param
    out.append(f"model:{model.name};")
    for name in sorted(model.blocks):
        block = model.blocks[name]
        out.append(f"block:{name}:{block.block_type}(")
        for key in sorted(block.params):
            tag, text = encode_param(block.params[key])
            out.append(f"{key}={tag}:{text},")
        out.append(");")
    for conn in sorted(model.connections, key=lambda c: (
            c.src, c.src_port, c.dst, c.dst_port)):
        out.append(f"line:{conn.src}:{conn.src_port}"
                   f"->{conn.dst}:{conn.dst_port};")
    for name in sorted(model.subsystems):
        out.append(f"subsystem:{name}{{")
        _canonical_model_lines(model.subsystems[name], out)
        out.append("}")


def model_fingerprint(model) -> str:
    """Stable content hash of a model's canonical serialized form."""
    out: list = []
    _canonical_model_lines(model, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


def artifact_key(model_fp: str, generator: str, backend: str = "-",
                 fuse: bool = True) -> str:
    """Content address for one (model, generator, backend, fuse) cell.

    ``fuse`` participates in the key so a ``fuse: false`` request can
    never be served an artifact whose program was rewritten by the
    IR-level loop-fusion pass (and vice versa).  The serve layer leaves
    ``backend`` at ``"-"``: one artifact serves every backend.
    """
    return hashlib.sha256(
        f"{model_fp}:{generator}:{backend}:fuse={int(bool(fuse))}"
        .encode()).hexdigest()


def pack_artifact(artifact: Artifact) -> bytes:
    """Serialize an artifact exactly as the store holds it."""
    buf = io.BytesIO()
    pickle.dump((ARTIFACT_VERSION, artifact), buf,
                protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getvalue()


def unpack_artifact(blob: bytes) -> Optional[Artifact]:
    """Deserialize and validate; None for malformed or version-skewed bytes."""
    try:
        version, artifact = pickle.loads(blob)
        if version != ARTIFACT_VERSION or not isinstance(artifact, Artifact):
            return None
    except Exception:  # noqa: BLE001 — any bad bytes are a miss
        return None
    return artifact


class ArtifactCache:
    """Artifacts over a blob store shared by every worker of a server.

    ``store`` is a cache directory path or a store object: a
    :class:`~repro.blobstore.LocalStore`, or a cluster shard's
    :class:`~repro.serve.store.TieredStore`.  Native ``.so`` bundles
    live in the same store (the serve layer hands it to the VM as its
    ``so_cache_dir``).
    """

    def __init__(self, store):
        self.store = open_store(store)

    def get(self, key: str) -> Optional[Artifact]:
        """The artifact at ``key``, or None (absent, corrupt, or skewed)."""
        blob = self.store.get("artifact", key)
        return unpack_artifact(blob) if blob is not None else None

    def put(self, key: str, artifact: Artifact) -> None:
        self.store.put("artifact", key, pack_artifact(artifact))

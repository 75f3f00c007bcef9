"""In-process replay of the compile-and-serve pipeline over a workload's
models, timing each public call the served path makes and counting what
the generated code does.

Layers with no span are measured here: model resolution, fingerprints,
input generation, response encoding, and each compiler phase.  The
shared-store calls run a ``RemoteStore`` against a ``StoreServer``
started for the replay.
"""

from __future__ import annotations

import base64
import time
from pathlib import Path

from perfbench.catalog import KERNEL_MODELS
from perfbench.common import median
from perfbench.serving import ProbeClock


class Timer:
    """Collects per-call wall times (ms) under layer names, probing the
    host's speed between calls."""

    def __init__(self, host):
        self.probe = ProbeClock(host)
        self.samples: dict[str, list[float]] = {}

    def time(self, name: str, fn, *args, **kwargs):
        self.probe.tick()
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        self.samples.setdefault(name, []).append(
            (time.perf_counter() - t0) * 1e3)
        return value

    def medians(self) -> dict[str, float]:
        return {name: median(v) for name, v in self.samples.items()}


def replay(entries, tmp: Path, host) -> tuple[dict, dict]:
    """Replay ``entries`` — ``(request_fields, input_seed)`` pairs, where
    the fields name a zoo model or carry a base64 ``.slx`` payload.

    Returns ``(values, samples)``: per-layer medians in ms plus exact
    counts summed over the entries, and the sample count per metric.
    """
    from repro.codegen import emit_c, make_generator
    from repro.core.analysis import analyze
    from repro.core.ranges import determine_ranges
    from repro.ir.batch import lift_reject
    from repro.ir.fuse import fuse_program
    from repro.ir.interp import VirtualMachine
    from repro.ir.vectorize import fingerprint
    from repro.model.slx import load_slx, save_slx
    from repro.serve.cache import (Artifact, artifact_key,
                                   model_fingerprint)
    from repro.serve.handlers import handle_request, resolve_model
    from repro.serve.protocol import encode, ok_response
    from repro.serve.store import RemoteStore, StoreServer, pack_artifact
    from repro.sim.simulator import random_inputs

    timer = Timer(host)
    counts = {"core.eliminated_elements": 0, "ir.fuse.loops_after": 0,
              "codegen.element_ops": 0, "codegen.static_bytes": 0,
              "native.c_bytes": 0, "ir.batch.lift_rejects": 0}
    ratios: dict[str, float] = {}
    slx_dir = tmp / "replay-slx"
    slx_dir.mkdir(parents=True, exist_ok=True)
    store = StoreServer(tmp / "replay-store").start()
    remote = RemoteStore("127.0.0.1", store.port, timeout=30.0)
    try:
        for i, (fields, input_seed) in enumerate(entries):
            model, model_fp = timer.time(
                "serve.handlers.resolve_model_ms", resolve_model, fields)
            timer.time("serve.cache.model_fingerprint_ms",
                       model_fingerprint, model)
            path = slx_dir / f"m{i}.slx"
            if "model_payload" in fields:
                path.write_bytes(base64.b64decode(fields["model_payload"]))
            else:
                save_slx(model, path)
            timer.time("model.load_slx_ms", load_slx, path)
            analyzed = timer.time("core.analyze_ms", analyze, model)
            ranges = timer.time("core.ranges_ms", determine_ranges,
                                analyzed)
            code = timer.time("codegen.generate_ms",
                              make_generator("frodo").generate, model)
            fused, fstats = timer.time("ir.fuse_ms", fuse_program,
                                       code.program)
            vm = timer.time("ir.interp.build_ms", VirtualMachine,
                            code.program, backend="auto")
            timer.time("ir.vectorize.fingerprint_ms", fingerprint,
                       code.program)
            named = timer.time("sim.random_inputs_ms", random_inputs,
                               model, seed=input_seed)
            source = timer.time("codegen.emit_c_ms", emit_c, fused)
            ops = vm.run(code.map_inputs(named),
                         steps=1).counts.total.total_element_ops

            counts["core.eliminated_elements"] += \
                ranges.eliminated_elements(analyzed)
            counts["ir.fuse.loops_after"] += fstats.loops_after
            counts["codegen.element_ops"] += ops
            counts["codegen.static_bytes"] += code.program.static_bytes
            counts["native.c_bytes"] += len(source.encode())
            counts["ir.batch.lift_rejects"] += \
                lift_reject(fused) is not None
            if fields.get("model") in KERNEL_MODELS:
                baseline = make_generator("simulink").generate(model)
                base_ops = VirtualMachine(
                    baseline.program, backend="auto").run(
                        baseline.map_inputs(named),
                        steps=1).counts.total.total_element_ops
                ratios[f"codegen.ops_ratio_vs_simulink.{model.name}"] = \
                    base_ops / ops

            request = {"op": "run", "backend": "auto", "steps": 1,
                       "seed": input_seed, **fields}
            result, meta = handle_request(request, None)
            timer.time("serve.protocol.encode_ms", encode,
                       ok_response(i, result, meta))

            artifact = Artifact(
                model_fingerprint=model_fp, model_name=model.name,
                generator="frodo", backend="auto", program=code.program,
                input_buffers=dict(code.input_buffers),
                output_buffers=dict(code.output_buffers))
            key = artifact_key(model_fp, "frodo", "auto", True)
            timer.time("serve.store.put_ms", remote.put, "artifact", key,
                       pack_artifact(artifact))
            blob = timer.time("serve.store.get_ms", remote.get,
                              "artifact", key)
            if blob is None:
                raise RuntimeError("store lost a blob it just accepted")
    finally:
        remote.close()
        store.stop()
    values = {**timer.medians(), **counts, **ratios}
    samples = {name: len(v) for name, v in timer.samples.items()}
    return values, samples

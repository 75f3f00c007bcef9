"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` lists the same names (a test keeps the two equal).
Every workload reports every end-to-end metric (tracing off) and every
per-layer metric (tracing on).  A per-layer metric of a layer that a
workload's traffic never enters reads 0 on that workload.
"""

from __future__ import annotations

#: Table 1 of the paper plus the extended-zoo ImagePipeline: the models
#: whose generated code the ``kernel`` workload runs.
KERNEL_MODELS = ("AudioProcess", "Decryption", "HighPass", "HT", "Kalman",
                 "Back", "Maintenance", "Maunfacture", "RunningDiff",
                 "Simpson", "ImagePipeline")

#: Execution backends of the kernel cells and the served ``run`` mix.
BACKENDS = ("auto", "native")

#: (name, unit, better) — tracing off.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("step_us.auto", "us", "lower"),
    ("step_us.all", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SPAN_LAYERS = (
    ("serve.client.outside_worker_ms", "ms", "lower"),
    ("serve.batching.queue_wait_ms", "ms", "lower"),
    ("serve.pool.ipc_ms", "ms", "lower"),
    ("serve.handlers.service_ms", "ms", "lower"),
    ("serve.cache.lookup_ms", "ms", "lower"),
    ("ir.interp.acquire_ms", "ms", "lower"),
    ("ir.interp.run_ms", "ms", "lower"),
    ("serve.router.overhead_ms", "ms", "lower"),
    ("serve.handlers.codegen_ms", "ms", "lower"),
    ("serve.cache.store_ms", "ms", "lower"),
    ("native.build_ms", "ms", "lower"),
    ("serve.vm_cache_hit_ratio", "ratio", "higher"),
    ("serve.artifact_cache_hit_ratio", "ratio", "higher"),
    ("serve.store.compiles", "count", "lower"),
    ("obs.tracing_overhead_ms", "ms", "lower"),
    ("serve.unattributed_ms", "ms", "lower"),
)

_REPLAY_LAYERS = (
    ("serve.handlers.resolve_model_ms", "ms", "lower"),
    ("serve.cache.model_fingerprint_ms", "ms", "lower"),
    ("ir.vectorize.fingerprint_ms", "ms", "lower"),
    ("sim.random_inputs_ms", "ms", "lower"),
    ("serve.protocol.encode_ms", "ms", "lower"),
    ("model.load_slx_ms", "ms", "lower"),
    ("core.analyze_ms", "ms", "lower"),
    ("core.ranges_ms", "ms", "lower"),
    ("codegen.generate_ms", "ms", "lower"),
    ("ir.fuse_ms", "ms", "lower"),
    ("ir.interp.build_ms", "ms", "lower"),
    ("codegen.emit_c_ms", "ms", "lower"),
    ("serve.store.put_ms", "ms", "lower"),
    ("serve.store.get_ms", "ms", "lower"),
    ("core.eliminated_elements", "count", "higher"),
    ("ir.fuse.loops_after", "count", "lower"),
    ("codegen.element_ops", "count", "lower"),
    ("codegen.static_bytes", "bytes", "lower"),
    ("native.c_bytes", "bytes", "lower"),
    ("ir.batch.lift_rejects", "count", "lower"),
)

_KERNEL_LAYERS = (
    ("ir.interp.step_us.auto", "us", "lower"),
    ("ir.interp.step_us.native", "us", "lower"),
    ("ir.interp.batch_step_us.auto", "us", "lower"),
    ("ir.interp.batch_step_us.native", "us", "lower"),
    *((f"ir.interp.step_us.{m}.{b}", "us", "lower")
      for m in KERNEL_MODELS for b in BACKENDS),
    *((f"ir.interp.batch_step_us.{m}.{b}", "us", "lower")
      for m in KERNEL_MODELS for b in BACKENDS),
    *((f"codegen.ops_ratio_vs_simulink.{m}", "ratio", "higher")
      for m in KERNEL_MODELS),
)

#: (name, unit, better) — tracing on.
PER_LAYER = (*_SPAN_LAYERS, *_REPLAY_LAYERS, *_KERNEL_LAYERS)

UNITS = {name: unit for name, unit, _ in (*END_TO_END, *PER_LAYER)}


def fill_report(report, values: dict, names, samples: dict) -> None:
    """Add ``names`` to ``report`` in catalogue order; a name the run did
    not measure reads 0 (its layer is outside the workload)."""
    for name, unit, _ in names:
        report.add(name, values.get(name, 0.0), unit, samples.get(name))

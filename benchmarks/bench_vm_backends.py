"""Closure-vs-vector-vs-native VM backend benchmark (`BENCH_vm.json`).

Times the per-step cost of each generated program under every execution
backend (``closure``, ``vector``, ``auto``, and — when a C toolchain is
present — ``native``, the emitted C compiled into an in-process shared
object; the native column times runs of ``NATIVE_STEPS`` steps, see
below), cross-checks that outputs and ``ContextCounts`` stay bit-identical,
measures the program-cache hit path and the native cold-compile vs
warm-``.so`` gap, and records everything to ``BENCH_vm.json`` at the
repo root so successive PRs can track the perf trajectory.

Run directly (not collected by the tier-1 pytest config)::

    PYTHONPATH=src python benchmarks/bench_vm_backends.py          # full
    PYTHONPATH=src python benchmarks/bench_vm_backends.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codegen import make_generator            # noqa: E402
from repro.ir.interp import VirtualMachine, cached_vm, clear_vm_cache  # noqa: E402
from repro.native import clear_shared_program_cache, find_compiler  # noqa: E402
from repro.obs import profile_vm                    # noqa: E402
from repro.sim.simulator import random_inputs       # noqa: E402
from repro.zoo import build_model                   # noqa: E402

DEFAULT_MODELS = ("ImagePipeline", "AudioProcess")
DEFAULT_GENERATORS = ("simulink", "dfsynth", "hcg", "frodo")
INTERP_BACKENDS = ("closure", "vector", "auto")
#: Steps per timed native run.  A native step is microseconds of C, so a
#: one-step run times mostly the Python around the call and sits under
#: any useful noise floor; the native column times runs of this many
#: steps and reports milliseconds per step.  256 keeps the fastest cell
#: (AudioProcess × frodo, under 1 µs per step) at least 4× above
#: ``tools/perf_gate.py``'s 0.05 ms floor, so every native cell is gated.
NATIVE_STEPS = 256


def best_of(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-N wall-clock seconds (min filters scheduler noise)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cell(model_name: str, generator: str, steps: int,
               repeats: int, so_cache_dir: Path | None = None) -> dict:
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))

    timings: dict[str, float] = {}
    unfused: dict[str, float] = {}
    results = {}
    fusion_stats: dict | None = None
    stages: dict[str, dict] = {}
    for backend in INTERP_BACKENDS:
        vm = VirtualMachine(code.program, backend=backend)  # fuse=True
        if fusion_stats is None and vm.fusion_stats is not None:
            fusion_stats = vm.fusion_stats.as_dict()
        results[backend] = vm.run(inputs, steps=steps)  # also warms compile
        timings[backend] = best_of(lambda: vm.run(inputs, steps=steps),
                                   repeats)
        with profile_vm() as prof:
            vm.run(inputs, steps=steps)
        stages[backend] = prof.as_dict()
        plain = VirtualMachine(code.program, backend=backend, fuse=False)
        base = plain.run(inputs, steps=steps)
        for name, expected in base.outputs.items():
            assert np.asarray(expected).tobytes() == \
                np.asarray(results[backend].outputs[name]).tobytes(), (
                f"{model_name}/{generator}: fused {backend} output "
                f"{name!r} diverges from unfused")
        unfused[backend] = best_of(lambda: plain.run(inputs, steps=steps),
                                   repeats)

    native: dict = {}
    timed_steps = {backend: steps for backend in INTERP_BACKENDS}
    if so_cache_dir is not None:
        timed_steps["native"] = NATIVE_STEPS
        # cold: code generation + C compiler + dlopen, all on one timer
        clear_shared_program_cache()
        t0 = time.perf_counter()
        vm = VirtualMachine(code.program, backend="native",
                            so_cache_dir=so_cache_dir)
        cold_s = time.perf_counter() - t0
        results["native"] = vm.run(inputs, steps=steps)
        timings["native"] = best_of(
            lambda: vm.run(inputs, steps=NATIVE_STEPS), repeats)
        with profile_vm() as prof:
            vm.run(inputs, steps=NATIVE_STEPS)
        stages["native"] = prof.as_dict()
        plain = VirtualMachine(code.program, backend="native",
                               so_cache_dir=so_cache_dir, fuse=False)
        base = plain.run(inputs, steps=steps)
        for name, expected in base.outputs.items():
            assert np.asarray(expected).tobytes() == \
                np.asarray(results["native"].outputs[name]).tobytes(), (
                f"{model_name}/{generator}: fused native output "
                f"{name!r} diverges from unfused")
        unfused["native"] = best_of(
            lambda: plain.run(inputs, steps=NATIVE_STEPS), repeats)
        # warm: the .so is on disk — a fresh process image (simulated by
        # dropping the in-process registry) skips codegen and cc entirely
        clear_shared_program_cache()
        t0 = time.perf_counter()
        VirtualMachine(code.program, backend="native",
                       so_cache_dir=so_cache_dir)
        warm_s = time.perf_counter() - t0
        native = {
            "cold_build_ms": round(cold_s * 1e3, 3),
            "warm_load_ms": round(warm_s * 1e3, 3),
            "counts_exact": vm.counts_exact,
        }

    ref = results["closure"]
    for backend in results:
        if backend == "closure":
            continue
        if backend != "native" or native.get("counts_exact"):
            assert ref.counts == results[backend].counts, (
                f"{model_name}/{generator}: counts diverge under {backend}")
        for name, expected in ref.outputs.items():
            assert np.asarray(expected).tobytes() == \
                np.asarray(results[backend].outputs[name]).tobytes(), (
                f"{model_name}/{generator}: output {name!r} diverges "
                f"under {backend}")

    ms = {b: timings[b] * 1e3 / timed_steps[b] for b in timings}
    ms_unfused = {b: unfused[b] * 1e3 / timed_steps[b] for b in unfused}
    cell = {
        "model": model_name,
        "generator": generator,
        "steps": steps,
        "timed_steps": timed_steps,
        # Native steps are microseconds: keep nanosecond resolution.
        "ms_per_step": {b: round(v, 6) for b, v in ms.items()},
        "ms_per_step_unfused": {b: round(v, 6)
                                for b, v in ms_unfused.items()},
        "fusion_speedup": {b: round(ms_unfused[b] / ms[b], 2)
                           for b in ms_unfused},
        "fusion": fusion_stats,
        "stages": stages,
        "speedup_vector": round(ms["closure"] / ms["vector"], 2),
        "speedup_auto": round(ms["closure"] / ms["auto"], 2),
        "identical_outputs_and_counts": True,
    }
    if native:
        cell["speedup_native"] = round(ms["closure"] / ms["native"], 2)
        cell["native"] = native
    return cell


def bench_program_cache(model_name: str = "AudioProcess",
                        generator: str = "frodo",
                        repeats: int = 20) -> dict:
    """Cold VM construction vs content-hash cache hit."""
    code = make_generator(generator).generate(build_model(model_name))
    cold = best_of(lambda: VirtualMachine(code.program), repeats, warmup=0)
    clear_vm_cache()
    cached_vm(code.program)
    hit = best_of(lambda: cached_vm(code.program), repeats)
    return {
        "model": model_name,
        "generator": generator,
        "cold_construct_ms": round(cold * 1e3, 4),
        "cache_hit_ms": round(hit * 1e3, 4),
        "hit_speedup": round(cold / hit, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: frodo generator only, fewer repeats")
    parser.add_argument("--models", nargs="*", default=list(DEFAULT_MODELS))
    parser.add_argument("--generators", nargs="*",
                        default=list(DEFAULT_GENERATORS))
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("-o", "--output", default=None,
                        help="write JSON here (default: BENCH_vm.json at the "
                             "repo root; --quick skips writing)")
    args = parser.parse_args(argv)

    generators = ["frodo"] if args.quick else args.generators
    repeats = args.repeats if args.repeats is not None \
        else (2 if args.quick else 7)

    compiler = find_compiler()
    if compiler is None:
        print("note: no C compiler on PATH; native column skipped")

    cells = []
    print(f"{'model':14s} {'generator':9s} {'closure':>9s} {'vector':>9s} "
          f"{'auto':>9s} {'native':>9s} {'speedup':>8s}")
    with tempfile.TemporaryDirectory(prefix="bench_so_") as so_dir:
        for model_name in args.models:
            for generator in generators:
                cell = bench_cell(
                    model_name, generator, args.steps, repeats,
                    so_cache_dir=Path(so_dir) if compiler else None)
                cells.append(cell)
                ms = cell["ms_per_step"]
                native_ms = (f"{ms['native']:8.2f}ms" if "native" in ms
                             else f"{'-':>10s}")
                print(f"{model_name:14s} {generator:9s} "
                      f"{ms['closure']:8.2f}ms {ms['vector']:8.2f}ms "
                      f"{ms['auto']:8.2f}ms {native_ms} "
                      f"{cell['speedup_vector']:7.1f}x")
                if "native" in cell:
                    n = cell["native"]
                    print(f"{'':24s} native cold {n['cold_build_ms']:.1f}ms "
                          f"-> warm .so {n['warm_load_ms']:.1f}ms, "
                          f"{cell['speedup_native']:.1f}x vs closure")
                fs = cell["fusion_speedup"]
                fusion = cell["fusion"] or {}
                print(f"{'':24s} fusion ({fusion.get('loops_before', '?')}"
                      f"->{fusion.get('loops_after', '?')} loops): "
                      + " ".join(f"{b} {v:.2f}x" for b, v in fs.items()))

    cache = bench_program_cache(repeats=repeats * 3)
    print(f"program cache: cold {cache['cold_construct_ms']:.2f}ms -> hit "
          f"{cache['cache_hit_ms']:.4f}ms ({cache['hit_speedup']:.0f}x)")

    report = {
        "benchmark": "vm_backends",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": compiler,
        "config": {"steps": args.steps, "native_steps": NATIVE_STEPS,
                   "repeats": repeats,
                   "quick": args.quick},
        "cells": cells,
        "program_cache": cache,
    }
    if not args.quick or args.output:
        out = Path(args.output) if args.output else REPO_ROOT / "BENCH_vm.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")

    slow = [c for c in cells
            if c["generator"] == "frodo" and c["speedup_vector"] < 10.0
            and c["model"] in ("ImagePipeline", "AudioProcess")]
    for cell in slow:
        print(f"WARNING: {cell['model']}/frodo vector speedup "
              f"{cell['speedup_vector']}x below the 10x target")
    return 1 if (slow and not args.quick) else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``kernel``: the generated code's run time, with no serve layer.

FRODO-generated programs for the Table-1 models plus ImagePipeline run
in-process on the ``auto`` and ``native`` backends, singly
(``VirtualMachine.run`` over many steps) and batched (``run_batch`` at
B = 32).  The 44 cells are visited in interleaved rounds, each round in
an order permuted from the seed, so host noise spreads over every cell
instead of landing on a few; the host's speed is probed at the start of
each round.
"""

from __future__ import annotations

import gc
import os
import random
import time

import numpy as np

from perfbench.catalog import BACKENDS, KERNEL_MODELS
from perfbench.common import RunContext, geomean, median, percentile, \
    vm_hwm_kb
from perfbench.oracle import ZOO_TOLERANCE, mismatches

#: Steps per timed single run; native steps are cheap, so it runs more
#: of them to stay well above timer resolution.
SINGLE_STEPS = {"auto": 8, "native": 64}
BATCH = 32
BATCH_STEPS = {"auto": 1, "native": 4}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: End-to-end metrics quoted as measured (all are CPU-bound here, so
#: every time is quoted at reference host speed).
RAW_METRICS: frozenset = frozenset()


class Cell:
    """One (model, backend, single|batch) measurement cell."""

    def __init__(self, model: str, backend: str, batch: bool, steps: int,
                 code, vm, inputs, references):
        self.model = model
        self.backend = backend
        self.batch = batch
        self.steps = steps
        self.code = code
        self.vm = vm
        self.inputs = inputs          # mapped inputs (list when batched)
        self.references = references  # named outputs (list when batched)
        self.first = None             # outputs of the first checked call
        self.first_ok = False

    @property
    def name(self) -> str:
        kind = "batch_step_us" if self.batch else "step_us"
        return f"ir.interp.{kind}.{self.model}.{self.backend}"

    def call(self):
        if self.batch:
            return self.vm.run_batch(self.inputs, steps=self.steps).outputs
        return self.vm.run(self.inputs, steps=self.steps).outputs

    def check(self, raw) -> str | None:
        """Judge one call's outputs: the first against the simulator, every
        later one for bitwise equality with the first."""
        named = ([self.code.map_outputs(o) for o in raw] if self.batch
                 else [self.code.map_outputs(raw)])
        if self.first is None:
            want = self.references if self.batch else [self.references]
            problems = [f"instance {i}: {p}"
                        for i, (g, w) in enumerate(zip(named, want))
                        for p in mismatches(g, w, ZOO_TOLERANCE)]
            self.first = [{k: np.array(v) for k, v in inst.items()}
                          for inst in named]
            self.first_ok = not problems
            return "; ".join(problems[:3]) or None
        for got, first in zip(named, self.first):
            for key, value in first.items():
                if not np.array_equal(got[key], value, equal_nan=True):
                    return f"output {key!r} differs from the first call"
        return None if self.first_ok else "repeats a wrong output"


def _input_seeds(seed: int) -> dict[str, tuple[int, list[int]]]:
    """Per model: the single run's input seed and the batch's 32."""
    seeds = {}
    for index, model in enumerate(KERNEL_MODELS):
        rng = np.random.default_rng([seed, index])
        drawn = [int(s) for s in rng.integers(0, 2 ** 31, size=BATCH + 1)]
        seeds[model] = (drawn[0], drawn[1:])
    return seeds


def _references(models: dict, seeds: dict):
    """Simulator outputs at every timed step count (before any timer)."""
    from repro.sim.simulator import Simulator, random_inputs
    single_steps = max(SINGLE_STEPS.values())
    batch_steps = max(BATCH_STEPS.values())
    refs = {}
    for name, model in models.items():
        sim = Simulator(model)
        single_seed, batch_seeds = seeds[name]
        named = random_inputs(sim.analyzed, seed=single_seed)
        hist = sim.run(named, steps=single_steps,
                       record_history=True).history
        batch_named = [random_inputs(sim.analyzed, seed=s)
                       for s in batch_seeds]
        batch_hist = [sim.run(n, steps=batch_steps,
                              record_history=True).history
                      for n in batch_named]
        for backend in BACKENDS:
            refs[name, backend, False] = (
                named, hist[SINGLE_STEPS[backend] - 1])
            refs[name, backend, True] = (
                batch_named,
                [h[BATCH_STEPS[backend] - 1] for h in batch_hist])
    return refs


def _setup(ctx: RunContext, models: dict, refs: dict, index: int,
           build_ms: list | None) -> tuple[float, list[Cell], list]:
    """Generate code, build every VM (gcc for native) in a fresh ``.so``
    directory, and run each batch cell once (the batch lift verifies
    itself on first use).  Returns the elapsed seconds, the cells, and
    the outputs of those first batch calls."""
    from repro.codegen import make_generator
    from repro.ir.fuse import fuse_program, lower_windows
    from repro.ir.interp import VirtualMachine
    from repro.native.sharedlib import (clear_shared_program_cache,
                                        load_shared_program)
    so_dir = ctx.tmp / f"kernel-so-{index}"
    clear_shared_program_cache()
    gc.collect()
    cells: list[Cell] = []
    first_batches = []
    t0 = time.perf_counter()
    for name, model in models.items():
        code = make_generator("frodo").generate(model)
        if build_ms is not None:
            # Traced runs time the cold native build on its own; the VM
            # below then finds the loaded image in the registry.
            fused, _ = fuse_program(code.program)
            t = time.perf_counter()
            load_shared_program(lower_windows(fused), cache_dir=so_dir)
            build_ms.append((time.perf_counter() - t) * 1e3)
        for backend in BACKENDS:
            vm = VirtualMachine(code.program, backend=backend,
                                so_cache_dir=so_dir)
            for batch in (False, True):
                named, want = refs[name, backend, batch]
                inputs = ([code.map_inputs(n) for n in named] if batch
                          else code.map_inputs(named))
                steps = (BATCH_STEPS if batch else SINGLE_STEPS)[backend]
                cell = Cell(name, backend, batch, steps, code, vm, inputs,
                            want)
                if batch:
                    first_batches.append((cell, cell.call()))
                cells.append(cell)
    return time.perf_counter() - t0, cells, first_batches


def run(ctx: RunContext) -> tuple[dict, dict]:
    from repro.zoo import build_model
    models = {name: build_model(name) for name in KERNEL_MODELS}
    seeds = _input_seeds(ctx.seed)
    refs = _references(models, seeds)
    outcome = ctx.outcome

    setups = 1 if ctx.trace or ctx.smoke else SETUPS
    setup_seconds = []
    build_ms: list[float] | None = [] if ctx.trace else None
    cells: list[Cell] = []
    for index in range(setups):
        cells = []  # release the previous set-up's VMs and images
        elapsed, cells, first_batches = _setup(ctx, models, refs, index,
                                               build_ms)
        setup_seconds.append(elapsed)
        for cell, raw in first_batches:
            problem = cell.check(raw)
            outcome.record(problem is None, f"set-up {cell.name}: {problem}")
            cell.first = None  # the timed calls are judged afresh
        del first_batches

    # One untimed pass: each cell's first call is judged against the
    # simulator here, and first-call effects stay out of the rounds.
    for cell in cells:
        problem = cell.check(cell.call())
        outcome.record(problem is None, f"{cell.name}: {problem}")

    rng = random.Random(ctx.seed)
    rounds: list[dict[Cell, float]] = []
    gc.collect()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    while True:
        ctx.host.sample()
        order = list(cells)
        rng.shuffle(order)
        timed: dict[Cell, float] = {}
        for cell in order:
            t = time.perf_counter()
            raw = cell.call()
            dt = time.perf_counter() - t
            problem = cell.check(raw)
            if outcome.record(problem is None, f"{cell.name}: {problem}"):
                timed[cell] = dt
        rounds.append(timed)
        if time.perf_counter() >= deadline or ctx.smoke:
            break
    ctx.report.note(f"kernel: {len(rounds)} interleaved rounds over "
                    f"{len(cells)} cells in "
                    f"{time.perf_counter() - start:.2f} s")
    calls = [dt for r in rounds for dt in r.values()]
    per_cell, samples = {}, {}
    for cell in cells:
        times = [r[cell] for r in rounds if cell in r]
        if times:
            lanes = BATCH if cell.batch else 1
            per_cell[cell.name] = median(times) * 1e6 / (cell.steps * lanes)
            samples[cell.name] = len(times)

    def geomean_of(backends, batch):
        picked = [per_cell[c.name] for c in cells
                  if c.backend in backends and c.batch == batch
                  and c.name in per_cell]
        return geomean(picked), len(picked)

    if not ctx.trace:
        auto, n_auto = geomean_of(("auto",), False)
        every = geomean(per_cell.values())
        values = {
            "setup_s": median(setup_seconds),
            "latency_p50_ms": percentile(calls, 50) * 1e3,
            "latency_p90_ms": percentile(calls, 90) * 1e3,
            "throughput_rps": len(calls) / sum(calls),
            "step_us.auto": auto,
            "step_us.all": every,
            "peak_rss_mb": vm_hwm_kb(os.getpid()) / 1024.0,
        }
        return values, {"setup_s": len(setup_seconds),
                        "latency_p50_ms": len(calls),
                        "latency_p90_ms": len(calls),
                        "throughput_rps": len(calls),
                        "step_us.auto": n_auto,
                        "step_us.all": len(per_cell),
                        "peak_rss_mb": 1}

    from perfbench.replay import replay
    values = dict(per_cell)
    for backend in BACKENDS:
        for batch, kind in ((False, "step_us"), (True, "batch_step_us")):
            name = f"ir.interp.{kind}.{backend}"
            values[name], samples[name] = geomean_of((backend,), batch)
    singles = [dt for r in rounds for c, dt in r.items() if not c.batch]
    values["ir.interp.run_ms"] = median(singles) * 1e3
    samples["ir.interp.run_ms"] = len(singles)
    values["native.build_ms"] = median(build_ms)
    samples["native.build_ms"] = len(build_ms)
    entries = [({"model": name}, seeds[name][0]) for name in KERNEL_MODELS]
    replayed, replay_samples = replay(entries, ctx.tmp, ctx.host)
    values.update(replayed)
    samples.update(replay_samples)
    return values, samples

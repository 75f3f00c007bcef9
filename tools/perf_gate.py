"""Performance-regression smoke gate (`python tools/perf_gate.py`).

Runs a fresh ``benchmarks/bench_vm_backends.py`` sweep and compares
every per-cell ``ms_per_step`` number (and the fused-vs-unfused
speedups) against the committed ``BENCH_vm.json`` baseline at the repo
root.  A cell that regresses by more than ``--threshold`` (default 30%)
fails the gate; cells missing from either side are reported but do not
fail (the baseline machine may lack a compiler, or a new backend may
not be in the baseline yet).

Timing noise guard: cells whose baseline *timed run* is below
``--floor-ms`` (default 0.05 ms) are informational only — at that scale
scheduler jitter swamps any real regression.  A timed run is
``ms_per_step × timed_steps``: the native column times runs of many
steps (``NATIVE_STEPS`` in the benchmark), so its microsecond steps are
gated on a run well above the floor.

The gate also re-asserts the fusion acceptance floors: ImagePipeline ×
frodo must keep an at-least-5× fused-vs-unfused per-step win on the
vector or native backend, and native alone must stay at parity or
better (``NATIVE_FUSION_FLOOR`` — fusion must never pessimize the
compiled code).

Usage::

    PYTHONPATH=src python tools/perf_gate.py            # full gate
    PYTHONPATH=src python tools/perf_gate.py --quick    # frodo-only smoke
    PYTHONPATH=src python tools/perf_gate.py --fresh out.json  # keep run
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

FUSION_FLOOR_MODEL = ("ImagePipeline", "frodo")
#: Best-of-vector/native fused-vs-unfused floor.  Deeper fusion (PR 9:
#: flag-aware merging + nested merges + contraction) holds the vector
#: win at 6.1-9.1x across clean runs (fewer planned nests = fewer numpy
#: dispatches, which is what bounds the Python vector backend), so the
#: floor moves up from the original 2x to lock the new win in.
FUSION_FLOOR = 5.0
#: Native fused-vs-unfused floor on the same cell — a *no-pessimization*
#: guard, not a speedup claim.  gcc -O2 compiles the fused and unfused
#: programs to equally fast code on the zoo models (they fit in L1, so
#: fusion's memory-traffic win has nothing to save natively); interleaved
#: clean measurements put the true ratio at 0.92-1.01x, and an earlier
#: 1.27x in the baseline was a scheduler-noise draw.  Per-run native
#: times are tens of microseconds, so best-of-N draws span roughly
#: 0.7-1.3x; the floor sits below that band and only catches gross
#: pessimization — a lowering change that genuinely defeats gcc's
#: auto-vectorization shows up as 2x+, far under 0.6.
NATIVE_FUSION_FLOOR = 0.6


def cell_key(cell: dict) -> tuple:
    return (cell["model"], cell["generator"])


def timed_steps(cell: dict, backend: str) -> int:
    """Steps per timed run of one backend column (baselines without
    ``timed_steps`` timed every column at the cell's ``steps``)."""
    return cell.get("timed_steps", {}).get(backend, cell.get("steps", 1))


def compare(baseline: dict, fresh: dict, threshold: float,
            floor_ms: float) -> tuple[list[str], list[str]]:
    """Return (failures, notes)."""
    failures: list[str] = []
    notes: list[str] = []
    base_cells = {cell_key(c): c for c in baseline.get("cells", [])}
    for cell in fresh.get("cells", []):
        key = cell_key(cell)
        base = base_cells.get(key)
        if base is None:
            notes.append(f"{key}: not in baseline (skipped)")
            continue
        for column in ("ms_per_step", "ms_per_step_unfused"):
            for backend, got in cell.get(column, {}).items():
                want = base.get(column, {}).get(backend)
                if want is None:
                    notes.append(
                        f"{key} {column}[{backend}]: no baseline (skipped)")
                    continue
                if want * timed_steps(base, backend) < floor_ms:
                    notes.append(
                        f"{key} {column}[{backend}]: baseline {want}ms "
                        f"per step, timed run below noise floor "
                        f"(informational)")
                    continue
                ratio = got / want
                line = (f"{key} {column}[{backend}]: "
                        f"{want:.6f}ms -> {got:.6f}ms ({ratio:.2f}x)")
                if ratio > 1.0 + threshold:
                    failures.append(line)
                else:
                    notes.append(line)
    return failures, notes


def check_fusion_floor(fresh: dict) -> list[str]:
    failures: list[str] = []
    for cell in fresh.get("cells", []):
        if cell_key(cell) != FUSION_FLOOR_MODEL:
            continue
        speedups = cell.get("fusion_speedup", {})
        candidates = {b: speedups[b] for b in ("vector", "native")
                      if b in speedups}
        if not candidates:
            failures.append(
                f"{FUSION_FLOOR_MODEL}: no vector/native fusion_speedup "
                "recorded")
            return failures
        best = max(candidates.values())
        if best < FUSION_FLOOR:
            failures.append(
                f"{FUSION_FLOOR_MODEL}: best fused-vs-unfused speedup "
                f"{best:.2f}x (over {sorted(candidates)}) is below the "
                f"{FUSION_FLOOR:.0f}x acceptance floor")
        native = candidates.get("native")
        if native is not None and native < NATIVE_FUSION_FLOOR:
            failures.append(
                f"{FUSION_FLOOR_MODEL}: native fused-vs-unfused ratio "
                f"{native:.2f}x is below the {NATIVE_FUSION_FLOOR:.2f}x "
                "no-pessimization floor")
        return failures
    failures.append(f"{FUSION_FLOOR_MODEL}: cell missing from fresh run")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "BENCH_vm.json"))
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fail on per-cell regressions beyond this "
                             "fraction (default 0.30 = +30%%)")
    parser.add_argument("--floor-ms", type=float, default=0.05,
                        help="baseline cells whose timed run is faster "
                             "than this are informational only")
    parser.add_argument("--quick", action="store_true",
                        help="frodo generator only, fewer repeats")
    parser.add_argument("--fresh", default=None,
                        help="also write the fresh run's JSON here")
    parser.add_argument("--skip-fusion-floor", action="store_true",
                        help="skip the ImagePipeline 2x fusion check")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"perf gate: no baseline at {baseline_path}; nothing to "
              "compare against")
        return 1
    baseline = json.loads(baseline_path.read_text())

    from benchmarks.bench_vm_backends import main as bench_main

    with tempfile.TemporaryDirectory(prefix="perf_gate_") as tmp:
        fresh_path = Path(args.fresh) if args.fresh \
            else Path(tmp) / "fresh.json"
        bench_argv = ["--output", str(fresh_path)]
        if args.quick:
            # --quick trims the generator grid, but keep enough repeats
            # that best-of-N actually filters scheduler noise — a flaky
            # gate is worse than a slightly slower one.
            bench_argv += ["--quick", "--repeats", "5"]
        # bench_main returns non-zero on its own vector-speedup warning;
        # the gate applies its own thresholds instead.
        bench_main(bench_argv)
        fresh = json.loads(fresh_path.read_text())
        failures, notes = compare(baseline, fresh, args.threshold,
                                  args.floor_ms)
        # Up to two retries: a shared/1-core runner can stall a single
        # cell by 30%+ from scheduler noise alone.  Re-measure and keep
        # the per-cell best across runs; only a regression that survives
        # three independent sweeps fails the gate (a real 30% regression
        # does — noise draws don't repeat three times on the same cell).
        for attempt in (1, 2):
            if not failures:
                break
            print(f"perf gate: {len(failures)} cell(s) over threshold; "
                  f"re-measuring (attempt {attempt}) to rule out "
                  "scheduler noise")
            retry_path = Path(tmp) / f"fresh_retry{attempt}.json"
            bench_main(["--output", str(retry_path)]
                       + (["--quick", "--repeats", "5"]
                          if args.quick else []))
            retry = json.loads(retry_path.read_text())
            by_key = {cell_key(c): c for c in retry.get("cells", [])}
            for cell in fresh.get("cells", []):
                other = by_key.get(cell_key(cell))
                if other is None:
                    continue
                for column in ("ms_per_step", "ms_per_step_unfused"):
                    for backend, got in cell.get(column, {}).items():
                        again = other.get(column, {}).get(backend)
                        if again is not None:
                            cell[column][backend] = min(got, again)
                # Re-derive the fused-vs-unfused ratios from the merged
                # best-of timings so the fusion-floor check sees the
                # least noisy draw too (single-run ratios of ~50us
                # native cells are coin tosses).
                fused_ms = cell.get("ms_per_step", {})
                for backend, um in cell.get("ms_per_step_unfused",
                                            {}).items():
                    fm = fused_ms.get(backend)
                    if fm:
                        cell.setdefault("fusion_speedup", {})[backend] = \
                            round(um / fm, 2)
            failures, notes = compare(baseline, fresh, args.threshold,
                                      args.floor_ms)

    if not args.skip_fusion_floor:
        failures += check_fusion_floor(fresh)

    for line in notes:
        print(f"  ok   {line}")
    for line in failures:
        print(f"  FAIL {line}")
    if failures:
        print(f"perf gate: {len(failures)} regression(s) beyond "
              f"+{args.threshold:.0%} (or below the fusion floor)")
        return 1
    print(f"perf gate: {len(notes)} cells within +{args.threshold:.0%} "
          "of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

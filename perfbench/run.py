"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``serve-hot``, ``serve-cold`` and ``kernel`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that reports
the per-layer metrics.  ``--smoke`` makes a short run for tests.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A run that is still going after this many seconds is broken: it stops
#: its servers and exits non-zero instead of hanging.
ALARM_SECONDS = 175

WORKLOADS = ("serve-hot", "serve-cold", "kernel")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run: one set-up, a handful of "
                             "operations")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class RunTimeout(Exception):
    """The run overran :data:`ALARM_SECONDS` (not an ``OSError``, so no
    request-level handler mistakes it for a failed request)."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {ALARM_SECONDS} s")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import catalog, common

    strays = common.serve_processes()
    if strays:
        print(f"error: frodo serve processes already running {strays}; "
              "they would skew every timing", file=sys.stderr)
        return 3

    tmp = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # Everything the program writes (artifact caches, .so builds, gcc
    # temporaries, uploads) stays inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    import tempfile
    tempfile.tempdir = None
    env = dict(os.environ, PYTHONPATH=str(src))

    ctx = common.RunContext(root=ROOT, tmp=tmp, env=env, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace),
                            smoke=args.smoke)
    # A shell that starts this run in the background leaves SIGINT
    # ignored, and servers would inherit that and shrug off the SIGINT
    # teardown relies on; a handled SIGINT is reset to default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_SECONDS)
    cpu_before = common.cpu_times()
    t0 = time.perf_counter()
    try:
        if args.workload == "kernel":
            from perfbench import kernel as workload
        elif args.workload == "serve-hot":
            from perfbench import serve_hot as workload
        else:
            from perfbench import serve_cold as workload
        values, samples = workload.run(ctx)
    except Exception:  # noqa: BLE001 — a broken run reports and exits
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    steal = common.steal_share(cpu_before, common.cpu_times())
    slow = ctx.host.slowdowns
    factor = ctx.host.factor()
    ctx.report.note(
        f"host: steal {steal * 100:.3f}% of CPU time over "
        f"{time.perf_counter() - t0:.1f} s; probe slowdown {factor:.4f} "
        f"(median of {len(slow)}, min {min(slow):.3f}, max {max(slow):.3f})")
    if not ctx.trace:
        # End-to-end times are quoted at reference host speed; per-layer
        # times stay as measured.
        values = common.at_reference_speed(values, catalog.UNITS, factor,
                                           raw=workload.RAW_METRICS)
        ctx.report.note("end-to-end times below are the measured ones "
                        "divided by the probe slowdown, except "
                        + (", ".join(sorted(workload.RAW_METRICS))
                           or "none"))
    survivors = common.serve_processes()
    if survivors:
        ctx.outcome.fail(f"frodo serve processes survived: {survivors}")

    if ctx.trace:
        catalog.fill_report(ctx.report, values, catalog.PER_LAYER, samples)
    else:
        missing = [n for n, _, _ in catalog.END_TO_END if n not in values]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        catalog.fill_report(ctx.report, values, catalog.END_TO_END, samples)
    ctx.report.emit(ctx.outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Unit tests for the analytic op-count analysis (:mod:`repro.ir.staticcount`).

These run without a C toolchain: the static counts are checked directly
against the closure interpreter's dynamic bookkeeping, which is the
exactness contract the native backend relies on.
"""

import gc

from repro.codegen import make_generator
from repro.ir.interp import ContextCounts, OpCounts, VirtualMachine
from repro.ir.ops import Expr
from repro.ir.staticcount import StaticCounts, _Analyzer, analyze_counts
from repro.sim.simulator import random_inputs
from repro.zoo import build_model

# Generators that emit CallStmt specializations (substitute_buffers
# produces ephemeral trees per call site) plus the plain variant.
GENERATORS = ("frodo", "frodo-fn", "frodo-fn-coalesce", "hcg")
MODELS = ("Motivating", "Kalman", "Decryption")


def _expected_counts(static: StaticCounts, steps: int) -> ContextCounts:
    """``init + steps × step``, summed field by field here rather than by
    the VM's own count arithmetic (``ContextCounts.assign``)."""
    init, step = static.init.as_dict(), static.step.as_dict()
    return ContextCounts(**{
        bucket: OpCounts(**{name: init[bucket][name]
                            + steps * step[bucket][name]
                            for name in init[bucket]})
        for bucket in init})


def _closure_counts(program, model, code, steps: int) -> ContextCounts:
    # fuse=False: the contract is static-vs-dynamic agreement on the
    # *same* program; default execution-time fusion would shrink the
    # dynamic loop counters relative to this unfused analysis.
    inputs = code.map_inputs(random_inputs(model, seed=7))
    return VirtualMachine(program, backend="closure", fuse=False).run(
        inputs, steps=steps).counts


def test_exact_counts_match_closure_across_generators():
    """When the analysis claims exactness, init + N*step must equal the
    closure backend's dynamic counts, bucket by bucket."""
    checked = 0
    for model_name in MODELS:
        model = build_model(model_name)
        for gen in GENERATORS:
            code = make_generator(gen).generate(model)
            static = analyze_counts(code.program)
            if not static.exact:
                continue
            got = _closure_counts(code.program, model, code, steps=3)
            assert got == _expected_counts(static, steps=3), (
                f"{model_name} x {gen}: static counts claim exactness "
                f"but diverge from the closure interpreter")
            checked += 1
    assert checked >= 6, "exactness contract barely exercised"


def test_memo_entries_pin_their_nodes():
    """Regression: the analyzer's memos are keyed by id(node).  Every
    entry must hold a strong reference to the node it is keyed by —
    otherwise ephemeral substitute_buffers trees (CallStmt
    specializations) can be garbage-collected mid-analysis, CPython
    reuses their ids, and a later call site silently inherits another
    expression's cached (type, counts, exact) or deps."""
    model = build_model("Motivating")
    code = make_generator("frodo-fn").generate(model)
    analyzer = _Analyzer(code.program)
    analyzer.body_counts(code.program.init)
    analyzer.body_counts(code.program.step)
    gc.collect()  # would free unpinned ephemeral trees
    assert analyzer._cmemo, "analysis populated no cost memo"
    for key, entry in analyzer._cmemo.items():
        assert isinstance(entry[0], Expr) and id(entry[0]) == key, (
            "cost-memo entry does not pin the node it is keyed by")
    for key, entry in analyzer._dmemo.items():
        assert isinstance(entry[0], Expr) and id(entry[0]) == key, (
            "deps-memo entry does not pin the node it is keyed by")


def test_reanalysis_is_deterministic_under_gc_pressure():
    """Analyzing structurally identical programs repeatedly — with
    collections in between to maximize id reuse — must always produce
    the same counts (the observable symptom of the stale-memo bug was
    memory-layout-dependent drift)."""
    model = build_model("Motivating")

    def one():
        code = make_generator("frodo-fn-coalesce").generate(model)
        result = analyze_counts(code.program)
        return result.step.as_dict(), result.init.as_dict(), result.exact

    reference = one()
    for _ in range(5):
        gc.collect()
        assert one() == reference


def test_inexact_flag_survives_memo_hits():
    """A memoized inexact sub-expression must re-flag inexactness on
    every hit (the If-arm probe resets ``exact`` temporarily)."""
    from repro.ir.ops import Call, Const
    model = build_model("Motivating")
    code = make_generator("frodo").generate(model)
    analyzer = _Analyzer(code.program)
    # fmin over mixed int/float types is the documented inexact case
    e = Call("fmin", (Const(1), Const(2.0)))
    analyzer._count_expr(e)
    assert not analyzer.exact
    analyzer.exact = True
    analyzer._count_expr(e)  # memo hit must re-apply the flag
    assert not analyzer.exact


def test_counts_scale_linearly_with_steps():
    """The per-invocation split (init vs step) must be right, not just
    the 1-step sum: check two different step counts against closures."""
    model = build_model("Kalman")
    code = make_generator("frodo").generate(model)
    static = analyze_counts(code.program)
    if not static.exact:
        return
    for steps in (1, 4):
        got = _closure_counts(code.program, model, code, steps=steps)
        assert got == _expected_counts(static, steps=steps)

"""Unit tests for the adaptive tier: heat, thresholds, promotion state.

Covers the :mod:`repro.serve.adaptive` controller (decay, cost-seeded
and fixed thresholds, state transitions, demotion permanence, tracked-
entry bound, event draining) and the :mod:`repro.ir.interp` promotion
overlay it drives (``promote_fingerprint`` / ``demote_fingerprint`` /
``install_cached_vm`` / ``set_vm_cache_limit``).
"""

import time

import numpy as np
import pytest

from repro.ir.build import add, const, load, var
from repro.ir.interp import (VirtualMachine, cached_vm, clear_promotions,
                             clear_vm_cache, demote_fingerprint,
                             install_cached_vm, promote_fingerprint,
                             promotion_state, set_vm_cache_limit,
                             vm_cache_limit, vm_cache_stats)
from repro.ir.ops import Assign, For, Program
from repro.ir.vectorize import fingerprint
from repro.native import find_compiler
from repro.serve import adaptive
from repro.serve.adaptive import (CALIBRATION_FACTOR_BOUNDS,
                                  CALIBRATION_MIN_SAMPLES,
                                  VECTOR_OVERHEAD_FACTOR, AdaptiveConfig,
                                  AdaptiveController, calibrate_from_spans,
                                  estimate_compile_ns, estimate_step_ns,
                                  modeled_step_ns, span_overhead_ratios)


def make_program(name="adapt", n=8):
    p = Program(name)
    p.declare("x", (n,), "float64", "input")
    p.declare("y", (n,), "float64", "output")
    p.step.append(For("i", 0, n,
                      [Assign("y", var("i"),
                              add(load("x", var("i")), const(1.0)))],
                      vectorizable=True))
    return p


@pytest.fixture(autouse=True)
def clean_state():
    previous = vm_cache_limit()
    yield
    adaptive.configure(None)
    clear_promotions()
    clear_vm_cache()
    set_vm_cache_limit(previous)


class TestEstimates:
    def test_step_estimate_positive_and_scales(self):
        small = estimate_step_ns(make_program(n=4))
        large = estimate_step_ns(make_program(n=4096))
        assert small > 0
        assert large > small

    def test_compile_estimate_grows_with_statements(self):
        p = make_program()
        base = estimate_compile_ns(p)
        for k in range(5):
            p.step.append(Assign("y", const(0), const(float(k))))
        assert estimate_compile_ns(p) > base


class TestHeatTracking:
    def test_heat_accumulates_steps_times_batch(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12))
        p = make_program()
        ctl.observe(p, steps=10, batch=3)
        status = ctl.observe(p, steps=5, batch=1)
        assert status["heat"] == pytest.approx(35.0, rel=0.01)

    def test_heat_decays_with_half_life(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12,
                                                half_life_seconds=0.05))
        p = make_program()
        first = ctl.observe(p, steps=100)
        time.sleep(0.12)
        second = ctl.observe(p, steps=1)
        # Two-plus half-lives: the original 100 units decayed below ~30.
        assert second["heat"] < first["heat"] * 0.4

    def test_tracked_entries_bounded_lru(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12,
                                                max_tracked=3))
        for i in range(6):
            ctl.observe(make_program(name=f"m{i}", n=4 + i), steps=1)
        counts = ctl.state_counts()
        assert sum(counts.values()) == 3


def _vm_run_span(program="adapt", backend="vector", steps=10, wall=1e-3):
    """One exported ``vm.run`` span, shaped like ``Span.as_dict()``."""
    return {"name": "vm.run", "trace_id": "t" * 16, "span_id": "s" * 16,
            "parent_id": "p" * 16, "start_unix": 0.0,
            "wall_seconds": wall, "cpu_seconds": wall, "pid": 1, "tid": 1,
            "attrs": {"backend": backend, "program": program,
                      "steps": steps}}


class TestOverheadCalibration:
    def test_constant_fallback_without_enough_samples(self):
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span()
                 for _ in range(CALIBRATION_MIN_SAMPLES - 1)]
        assert calibrate_from_spans(spans, modeled) \
            == VECTOR_OVERHEAD_FACTOR
        assert calibrate_from_spans([], {}) == VECTOR_OVERHEAD_FACTOR

    def test_median_ratio_from_recorded_fixture(self):
        # Four recorded 10-step vector runs whose measured/modeled
        # ratios are 10, 20, 30, 40 — the calibrated factor is their
        # median, not the (outlier-sensitive) mean.
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span(steps=10, wall=r * 1000.0 * 10 / 1e9)
                 for r in (10.0, 20.0, 30.0, 40.0)]
        assert calibrate_from_spans(spans, modeled) == pytest.approx(25.0)

    def test_foreign_or_unusable_spans_are_skipped(self):
        modeled = {"adapt": 1000.0}
        spans = [
            _vm_run_span(backend="closure"),      # wrong backend
            _vm_run_span(backend="native"),
            _vm_run_span(program="unknown"),      # no modeled baseline
            {"name": "codegen", "wall_seconds": 1.0, "attrs": {}},
            _vm_run_span(steps=0),                # unusable timing
            _vm_run_span(wall=0.0),
        ]
        assert span_overhead_ratios(spans, modeled) == []

    def test_absurd_ratio_is_clamped(self):
        modeled = {"adapt": 1000.0}
        spans = [_vm_run_span(steps=1, wall=10.0)
                 for _ in range(CALIBRATION_MIN_SAMPLES)]
        assert calibrate_from_spans(spans, modeled) \
            == CALIBRATION_FACTOR_BOUNDS[1]

    def test_controller_calibrates_threshold_factor(self):
        ctl = AdaptiveController(AdaptiveConfig(min_runs=2))
        ctl._submit = lambda entry, program: None
        p = make_program()
        ctl.observe(p, steps=1, model_name="adapt")
        ctl.observe(p, steps=1, model_name="adapt")  # estimates step_ns
        assert ctl.overhead_factor is None            # constant still rules
        entry = next(iter(ctl._entries.values()))
        assert entry.step_ns == pytest.approx(modeled_step_ns(p))
        target = 7.0
        wall = target * entry.step_ns * 10 / 1e9
        spans = [_vm_run_span(steps=10, wall=wall)
                 for _ in range(CALIBRATION_MIN_SAMPLES)]
        ctl.record_vm_run_spans(spans)
        assert ctl.overhead_factor == pytest.approx(target, rel=1e-6)
        assert ctl._factor() == ctl.overhead_factor

    def test_untraced_requests_do_not_calibrate(self):
        ctl = AdaptiveController(AdaptiveConfig(min_runs=2))
        ctl.record_vm_run_spans([])
        assert ctl.overhead_factor is None


class TestPromotionPolicy:
    def test_fixed_threshold_promotes_at_min_runs(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=3))
        ctl._submit = lambda entry, program: None  # policy only, no compile
        p = make_program()
        assert ctl.observe(p, steps=1)["state"] == "cold"
        assert ctl.observe(p, steps=1)["state"] == "cold"
        assert ctl.observe(p, steps=1)["state"] == "compiling"

    def test_cost_seeded_threshold_needs_enough_work(self):
        ctl = AdaptiveController(AdaptiveConfig())  # seeded from cost model
        ctl._submit = lambda entry, program: None
        p = make_program()
        step_ns = estimate_step_ns(p)
        compile_ns = estimate_compile_ns(p)
        cheap_steps = 1
        assert cheap_steps * 2 * step_ns < compile_ns, "fixture too hot"
        assert ctl.observe(p, steps=cheap_steps)["state"] == "cold"
        assert ctl.observe(p, steps=cheap_steps)["state"] == "cold"
        # Enough served work to pay for the compile: promotes.
        hot_steps = int(compile_ns / step_ns) + 1
        assert ctl.observe(p, steps=hot_steps)["state"] == "compiling"

    def test_threshold_override_beats_seeded(self):
        cfg = AdaptiveConfig(threshold_ms=1e12)
        ctl = AdaptiveController(cfg)
        ctl._submit = lambda entry, program: None
        p = make_program()
        for _ in range(5):
            status = ctl.observe(p, steps=10 ** 6)
        assert status["state"] == "cold"  # fixed threshold is enormous


class TestPromotionExecution:
    def test_background_promotion_and_events(self, tmp_path):
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=2),
                                 so_cache_dir=str(tmp_path))
        p = make_program()
        ctl.observe(p, steps=1, model_name="adapt")
        ctl.observe(p, steps=1, model_name="adapt")
        assert ctl.wait_idle(timeout=60)
        assert ctl.state_of(p) == "promoted"
        assert promotion_state(fingerprint(p)) == "promoted"
        events = ctl.drain_events()
        assert len(events) == 1
        assert events[0]["event"] == "promoted"
        assert events[0]["model"] == "adapt"
        assert events[0]["compile_seconds"] > 0
        # Spans from the background native.promote trace ride the event.
        names = {s["name"] for s in events[0].get("spans", ())}
        assert "native.promote" in names
        assert ctl.drain_events() == []  # drained exactly once
        # The promoted VM was pre-installed for the program as it runs
        # (fuse=False, the serve layer's call): cached_vm(auto) is a hit.
        hits = vm_cache_stats()["hits"]
        vm = cached_vm(p, backend="auto", fuse=False)
        assert vm.backend == "native"
        assert vm_cache_stats()["hits"] == hits + 1

    def test_toolchain_failure_demotes_permanently(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        ctl = adaptive.configure(AdaptiveConfig(threshold_ms=0.0,
                                                min_runs=1),
                                 so_cache_dir=str(tmp_path))
        p = make_program()
        ctl.observe(p, steps=1)
        assert ctl.wait_idle(timeout=30)
        assert ctl.state_of(p) == "demoted"
        events = ctl.drain_events()
        assert events[0]["event"] == "demoted"
        assert "error" in events[0]
        assert promotion_state(fingerprint(p)) == "demoted"
        # Demotion is permanent: promotion attempts are refused...
        assert promote_fingerprint(fingerprint(p)) is False
        # ...and auto keeps serving on the vector path.
        monkeypatch.delenv("REPRO_NO_CC")
        vm = cached_vm(p, backend="auto")
        assert vm.backend != "native"
        out = vm.run({"x": np.arange(8.0)}, steps=1)
        np.testing.assert_allclose(out.outputs["y"], np.arange(8.0) + 1)


class TestInterpOverlay:
    def test_promotion_state_transitions(self):
        fp = "f" * 40
        assert promotion_state(fp) == "none"
        assert promote_fingerprint(fp) is True
        assert promotion_state(fp) == "promoted"
        demote_fingerprint(fp)
        assert promotion_state(fp) == "demoted"
        assert promote_fingerprint(fp) is False  # demotion wins forever
        assert promotion_state(fp) == "demoted"

    def test_install_cached_vm_swaps_entry(self):
        p = make_program()
        original = cached_vm(p, backend="vector")
        replacement = VirtualMachine(p, backend="vector")
        install_cached_vm(p, replacement)
        assert cached_vm(p, backend="vector") is replacement
        assert cached_vm(p, backend="vector") is not original

    def test_vm_cache_limit_bounds_and_counts_evictions(self):
        clear_vm_cache()
        previous = set_vm_cache_limit(2)
        assert previous >= 1
        evictions_before = vm_cache_stats()["evictions"]
        for i in range(4):
            cached_vm(make_program(name=f"lru{i}", n=4 + i),
                      backend="vector")
        stats = vm_cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == evictions_before + 2

    def test_vm_cache_limit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_vm_cache_limit(0)

    def test_demoted_auto_never_raises_toolchain_error(self, monkeypatch,
                                                       tmp_path):
        p = make_program()
        fp = fingerprint(p)
        promote_fingerprint(fp, so_cache_dir=str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CC", "1")
        # Promoted but the .so store is empty and the toolchain is gone:
        # resolution must demote and fall back, not raise.
        vm = cached_vm(p, backend="auto")
        assert vm.backend != "native"
        assert promotion_state(fp) == "demoted"


class TestHeatPersistence:
    """Heat records survive in a HeatStore so an inheriting shard starts
    from observed heat instead of zero (the cluster re-hash story)."""

    def _store(self, tmp_path):
        from repro.serve.store import HeatStore, LocalStore
        return HeatStore(LocalStore(tmp_path))

    def test_observe_publishes_heat_record(self, tmp_path):
        heat = self._store(tmp_path)
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                 heat_store=heat)
        p = make_program()
        ctl.observe(p, steps=10, batch=2, model_name="adapt")
        record = heat.load(fingerprint(p))
        assert record is not None
        assert record["heat"] == pytest.approx(20.0, rel=0.01)
        assert record["invocations"] == 1
        assert record["model"] == "adapt"
        assert record["updated_at"] <= time.time()

    def test_new_controller_seeds_from_persisted_heat(self, tmp_path,
                                                      monkeypatch):
        # Publish every observation (the throttle is not under test).
        monkeypatch.setattr(adaptive, "HEAT_PUBLISH_INTERVAL", 0.0)
        heat = self._store(tmp_path)
        p = make_program()
        first = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                   heat_store=heat)
        for _ in range(3):
            first.observe(p, steps=50)
        # A fresh controller (an inheriting shard) starts warm: its first
        # observation lands on top of the persisted 150 units.
        second = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                    heat_store=heat)
        status = second.observe(p, steps=1)
        assert status["heat"] > 100.0
        entry = second._entries[fingerprint(p)]
        assert entry.invocations >= 3

    def test_seeded_heat_decays_by_wall_clock_age(self, tmp_path):
        heat = self._store(tmp_path)
        p = make_program()
        fp = fingerprint(p)
        # A record an hour old with a 1s half-life is stone cold.
        heat.save(fp, {"heat": 1e6, "updated_at": time.time() - 3600,
                       "invocations": 100})
        ctl = AdaptiveController(
            AdaptiveConfig(threshold_ms=1e12, half_life_seconds=1.0),
            heat_store=heat)
        status = ctl.observe(p, steps=1)
        assert status["heat"] < 2.0

    def test_garbage_record_is_ignored(self, tmp_path):
        heat = self._store(tmp_path)
        p = make_program()
        heat.save(fingerprint(p),
                  {"heat": "not-a-number", "invocations": True})
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12),
                                 heat_store=heat)
        status = ctl.observe(p, steps=5)
        assert status["heat"] == pytest.approx(5.0, rel=0.01)

    def test_no_store_means_no_seeding_io(self):
        ctl = AdaptiveController(AdaptiveConfig(threshold_ms=1e12))
        status = ctl.observe(make_program(), steps=5)
        assert status["heat"] == pytest.approx(5.0, rel=0.01)

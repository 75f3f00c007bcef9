"""Differential tests for ``VirtualMachine.run_batch`` on every backend.

The batched contract (see :mod:`repro.ir.batch`): ``run_batch(B)`` is
observationally identical to B independent ``run()`` calls on a fresh VM
— bit-for-bit equal per-instance outputs, and an aggregate
``ContextCounts`` exactly equal to the sum of the B solo runs whenever
the backend reports ``counts_exact``.  This suite enforces that on the
zoo × generator grid for the closure, vector and auto backends, and (when
a C toolchain is present) for the native backend's entry points run
with ``nb = B``; plus the lifecycle guarantees: batch-VM memo reuse, B=1
delegation, and non-reentrancy across threads.
"""

import threading

import numpy as np
import pytest

from repro.codegen import FrodoGenerator, make_generator
from repro.errors import SimulationError
from repro.ir.interp import (ContextCounts, VirtualMachine,
                             _accumulate_counts, execute)
from repro.model.builder import ModelBuilder
from repro.native import find_compiler
from repro.sim.simulator import random_inputs
from repro.zoo import EXTENDED, TABLE1, build_model

GENERATORS = ("simulink", "dfsynth", "hcg", "frodo")
ZOO = [e.name for e in TABLE1] + [e.name for e in EXTENDED] + ["Motivating"]

PURE_PYTHON_BACKENDS = ("closure", "vector", "auto")

HAVE_CC = find_compiler() is not None


def batch_inputs(code, model, batch, base_seed=0):
    """B distinct mapped input dicts for one generated program."""
    return [code.map_inputs(random_inputs(model, seed=base_seed + b))
            for b in range(batch)]


def assert_batch_agrees(program, inputs_list, backend, steps=2,
                        so_cache_dir=None):
    """run_batch must equal B independent solo runs, outputs and counts."""
    solo_counts = ContextCounts()
    solo_outputs = []
    for inputs in inputs_list:
        res = VirtualMachine(program, backend="closure").run(inputs,
                                                             steps=steps)
        _accumulate_counts(solo_counts, res.counts)
        solo_outputs.append(res.outputs)

    vm = VirtualMachine(program, backend=backend, so_cache_dir=so_cache_dir)
    # Two calls: the first runs the lifted path's differential
    # verification (which returns the sequential reference), the second
    # exercises the *trusted* lifted fast path.  Both must agree.
    for call in ("first", "steady-state"):
        batch = vm.run_batch(inputs_list, steps=steps)
        assert batch.batch == len(inputs_list)
        for b, expected in enumerate(solo_outputs):
            for name, arr in expected.items():
                got = batch.outputs[b][name]
                assert np.asarray(arr).shape == np.asarray(got).shape
                assert np.asarray(arr).tobytes() == \
                    np.asarray(got).tobytes(), (
                        f"backend={backend} ({call} call): instance {b} "
                        f"output {name!r} not bitwise identical to a "
                        "solo run")
        if batch.counts_exact:
            assert batch.counts == solo_counts, (
                f"backend={backend} ({call} call): aggregate counts "
                f"diverge from the sum of {len(inputs_list)} solo runs\n"
                f"solo sum: {solo_counts.as_dict()}\n"
                f"batched:  {batch.counts.as_dict()}")
    return vm, batch


@pytest.mark.parametrize("backend", PURE_PYTHON_BACKENDS)
@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("model_name", ZOO)
def test_zoo_batched_identical(model_name, generator, backend):
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    inputs_list = batch_inputs(code, model, batch=3)
    vm, batch = assert_batch_agrees(code.program, inputs_list, backend)
    assert batch.counts_exact == vm.counts_exact


@pytest.mark.native
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
@pytest.mark.parametrize("generator", ("frodo", "hcg", "frodo-fn"))
@pytest.mark.parametrize("model_name",
                         ["Motivating", "AudioProcess", "HighPass", "Kalman"])
def test_zoo_batched_native(model_name, generator, tmp_path):
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    inputs_list = batch_inputs(code, model, batch=3)
    vm, batch = assert_batch_agrees(code.program, inputs_list, "native",
                                    so_cache_dir=tmp_path)
    assert batch.counts_exact  # static counts are exact on the native path


def stateful_code():
    """A model whose step output depends on delay-line state."""
    b = ModelBuilder("Stateful")
    u = b.inport("u", shape=(6,))
    d = b.delay(u, length=2, name="dly")
    s = b.add(u, d, name="acc")
    b.outport("y", s)
    return FrodoGenerator().generate(b.build())


@pytest.mark.parametrize("backend", PURE_PYTHON_BACKENDS + (
    pytest.param("native", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C compiler")),))
def test_stateful_multistep_batch(backend, tmp_path):
    """Per-instance delay-line state must not bleed across the batch."""
    code = stateful_code()
    rng = np.random.default_rng(7)
    inputs_list = [code.map_inputs({"u": rng.uniform(-3, 3, 6)})
                   for _ in range(4)]
    assert_batch_agrees(code.program, inputs_list, backend, steps=5,
                        so_cache_dir=tmp_path)


def test_function_programs_fall_back_exactly():
    """frodo-fn emits CallStmt programs; the Python expansion refuses them
    and run_batch silently falls back to exact sequential execution."""
    model = build_model("AudioProcess")
    code = make_generator("frodo-fn").generate(model)
    assert code.program.functions  # the premise: this generator uses calls
    inputs_list = batch_inputs(code, model, batch=2)
    vm, batch = assert_batch_agrees(code.program, inputs_list, "vector")
    assert vm._batch_unsupported  # sequential fallback was taken
    assert batch.counts_exact == vm.counts_exact


LIFTABLE = ("Motivating", "Back", "RunningDiff", "Simpson", "ImagePipeline")


@pytest.mark.parametrize("model_name", LIFTABLE)
def test_lift_engages_on_liftable_models(model_name):
    """The trailing-batch-axis lift must actually carry these models
    (guard accepts, first-call verification passes) — a silent fallback
    to the expanded path would forfeit the batching speedup."""
    from repro.ir.batch import lift_reject
    model = build_model(model_name)
    code = FrodoGenerator().generate(model)
    assert lift_reject(code.program) is None
    inputs_list = batch_inputs(code, model, batch=4)
    vm = VirtualMachine(code.program, backend="vector")
    vm.run_batch(inputs_list, steps=2)
    assert vm._lift_verified == {4}
    assert not vm._lift_rejected


def test_lift_reject_names_the_reason():
    from repro.ir.batch import lift_reject
    code = FrodoGenerator().generate(build_model("Decryption"))
    assert "non-float" in lift_reject(code.program)
    code = FrodoGenerator().generate(build_model("BatteryMonitor"))
    assert "index or control-flow" in lift_reject(code.program)
    code = make_generator("frodo-fn").generate(build_model("AudioProcess"))
    assert "functions" in lift_reject(code.program)


def test_lift_runtime_rejection_is_loud_then_exact():
    """HighPass carries a top-level data-dependent Select: the lifted
    closure evaluator raises (truth-ambiguous row), the VM marks lifting
    rejected, and the exact expanded path takes over — outputs stay
    bitwise correct throughout (assert_batch_agrees checked elsewhere;
    here we pin the mechanism)."""
    model = build_model("HighPass")
    code = FrodoGenerator().generate(model)
    from repro.ir.batch import lift_reject
    assert lift_reject(code.program) is None  # statically plausible
    vm = VirtualMachine(code.program, backend="vector")
    vm.run_batch(batch_inputs(code, model, batch=3), steps=2)
    assert vm._lift_rejected  # runtime failure downgraded it
    assert 3 in vm._batch_vms  # expanded companion carried the batch


def test_batch_of_one_delegates_to_run():
    model = build_model("Motivating")
    code = FrodoGenerator().generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    vm = VirtualMachine(code.program, backend="auto")
    solo = vm.run(inputs, steps=2)
    batch = vm.run_batch([inputs], steps=2)
    assert batch.batch == 1
    assert batch.counts == solo.counts
    for name, arr in solo.outputs.items():
        assert np.asarray(arr).tobytes() == \
            np.asarray(batch.outputs[0][name]).tobytes()
    assert not vm._batch_vms  # delegation must not build a companion


def test_batch_companion_memo_reused():
    """Motivating is liftable: the lifted companion memo (not the
    batch-expanded one) carries steady-state execution, one VM per B."""
    model = build_model("Motivating")
    code = FrodoGenerator().generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    vm = VirtualMachine(code.program, backend="vector")
    vm.run_batch([inputs] * 3)
    assert vm._lift_verified == {3}
    entry = vm._batch_lifted[3]
    assert entry._batch_lanes == 3
    vm.run_batch([inputs] * 3)
    assert vm._batch_lifted[3] is entry  # memo hit, no rebuild
    assert not vm._batch_vms  # expanded fallback never constructed
    vm.run_batch([inputs] * 2)
    assert set(vm._batch_lifted) == {2, 3}
    assert vm._lift_verified == {2, 3}


def test_expanded_memo_reused_when_lift_rejects():
    """AudioProcess has data-steered control flow the lift refuses; the
    batch-expanded companion memo carries steady-state execution."""
    model = build_model("AudioProcess")
    code = FrodoGenerator().generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    vm = VirtualMachine(code.program, backend="vector")
    vm.run_batch([inputs] * 3)
    assert vm._lift_rejected and not vm._lift_verified
    entry = vm._batch_vms[3]
    vm.run_batch([inputs] * 3)
    assert vm._batch_vms[3] is entry  # same (plan, companion) tuple
    vm.run_batch([inputs] * 2)
    assert set(vm._batch_vms) == {2, 3}


def test_execute_batch_kwarg():
    model = build_model("Motivating")
    code = FrodoGenerator().generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    res = execute(code.program, inputs, steps=2, backend="vector", batch=3)
    assert res.batch == 3
    shas = {np.asarray(next(iter(out.values()))).tobytes()
            for out in res.outputs}
    assert len(shas) == 1  # identical replicated instances
    with pytest.raises(SimulationError):
        execute(code.program, inputs, batch=True)  # bool is a footgun


def test_run_batch_not_reentrant_across_threads():
    """A second thread entering run()/run_batch() while the VM is busy
    must get a typed SimulationError, not corrupted state."""
    model = build_model("Motivating")
    code = FrodoGenerator().generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    vm = VirtualMachine(code.program, backend="closure")

    errors: list = []
    entered = threading.Event()
    release = threading.Event()
    real_acquire = vm._acquire_run_lock

    def stalling_acquire():
        real_acquire()
        entered.set()
        release.wait(10)

    vm._acquire_run_lock = stalling_acquire
    t = threading.Thread(target=lambda: vm.run(inputs))
    t.start()
    assert entered.wait(10)
    vm._acquire_run_lock = real_acquire
    try:
        with pytest.raises(SimulationError, match="not reentrant"):
            vm.run_batch([inputs, inputs])
        with pytest.raises(SimulationError, match="not reentrant"):
            vm.run(inputs)
    finally:
        release.set()
        t.join(10)
    # once the first run drains, the VM is usable again
    assert vm.run_batch([inputs, inputs]).batch == 2

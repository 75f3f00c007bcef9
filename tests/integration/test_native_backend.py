"""Differential and lifecycle tests for ``backend="native"``.

The native backend's contract (see :mod:`repro.native.sharedlib`) is the
same as the vector backend's: observationally identical to the closure
interpreter — bit-for-bit equal outputs on every program, and equal
``ContextCounts`` whenever the static analysis reports them exact
(``vm.counts_exact``).  This suite enforces that on the full
zoo × generator grid, plus the lifecycle guarantees that make one
compiled ``.so`` safely reusable: ``_init`` resets all state between
runs, VMs sharing one loaded image stay independent, and a warm on-disk
cache entry skips code generation and the C compiler entirely.

Every test auto-skips when no C toolchain is on PATH.
"""

import numpy as np
import pytest

from repro.codegen import FrodoGenerator, make_generator
from repro.errors import NativeToolchainError
from repro.ir.interp import VirtualMachine, cached_vm, clear_vm_cache
from repro.model.builder import ModelBuilder
from repro.native import (clear_shared_program_cache, find_compiler,
                          load_shared_program, shared_program_stats)
from repro.sim.simulator import random_inputs
from repro.zoo import EXTENDED, TABLE1, build_model

# frodo-fn emits §5 generic-function calls: the base-pointer calls.
GENERATORS = ("simulink", "dfsynth", "hcg", "frodo", "frodo-fn")
ZOO = [e.name for e in TABLE1] + [e.name for e in EXTENDED] + ["Motivating"]

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(find_compiler() is None, reason="no C compiler"),
]


def assert_native_agrees(program, inputs, so_cache_dir=None, steps=3):
    """Native must match closure bitwise; counts too when reported exact."""
    ref = VirtualMachine(program, backend="closure").run(inputs, steps=steps)
    vm = VirtualMachine(program, backend="native", so_cache_dir=so_cache_dir)
    res = vm.run(inputs, steps=steps)
    for name, expected in ref.outputs.items():
        assert np.asarray(expected).tobytes() == \
            np.asarray(res.outputs[name]).tobytes(), (
            f"native output {name!r} not bitwise identical to closure")
    if vm.counts_exact:
        assert ref.counts == res.counts, (
            f"static counts claim exactness but diverge\n"
            f"closure: {ref.counts.as_dict()}\n"
            f"native:  {res.counts.as_dict()}")
    return vm


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("model_name", ZOO)
def test_zoo_native_identical(model_name, generator, tmp_path):
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    assert_native_agrees(code.program, inputs, so_cache_dir=tmp_path)


def stateful_code():
    """A model whose step output depends on delay-line state."""
    b = ModelBuilder("Stateful")
    u = b.inport("u", shape=(6,))
    d = b.delay(u, length=2, name="dly")
    s = b.add(u, d, name="acc")
    b.outport("y", s)
    return FrodoGenerator().generate(b.build())


class TestStatefulReuse:
    def test_init_resets_state_between_runs(self, tmp_path):
        """One cached .so, two runs with different inputs: run 2 must match
        a fresh closure VM, i.e. no state may leak across run()."""
        code = stateful_code()
        rng = np.random.default_rng(0)
        inputs_a = code.map_inputs({"u": rng.uniform(-3, 3, 6)})
        inputs_b = code.map_inputs({"u": rng.uniform(-3, 3, 6)})

        vm = VirtualMachine(code.program, backend="native",
                            so_cache_dir=tmp_path)
        vm.run(inputs_a, steps=5)  # leaves state behind in the VM
        second = vm.run(inputs_b, steps=5)
        fresh = VirtualMachine(code.program, backend="closure").run(
            inputs_b, steps=5)
        np.testing.assert_array_equal(second.outputs[code.output_buffers["y"]],
                                      fresh.outputs[code.output_buffers["y"]])

    def test_two_vms_over_one_image_are_independent(self, tmp_path):
        """Two live native VMs bound to one cached .so each own their
        state: binding warns nothing, interleaved raw step() calls and
        runs on two threads each match their own closure reference
        bitwise."""
        import sys
        import threading
        import warnings
        code = stateful_code()
        y = code.output_buffers["y"]
        xs = [code.map_inputs({"u": np.linspace(-1, 1, 6)}),
              code.map_inputs({"u": np.full(6, 9.0)})]
        clear_vm_cache()
        clear_shared_program_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vms = [VirtualMachine(code.program, backend="native",
                                  so_cache_dir=tmp_path) for _ in xs]
            assert vms[0]._shared is vms[1]._shared  # one loaded image
            refs = [VirtualMachine(code.program, backend="closure")
                    for _ in xs]
            for vm, x in zip(vms + refs, xs + xs):
                vm.reset()
                vm.set_inputs(x)
            for _ in range(5):
                for vm, ref in zip(vms, refs):
                    vm.step()
                    ref.step()
                    assert vm.outputs()[y].tobytes() == \
                        ref.outputs()[y].tobytes()

            expected = [ref.run(x, steps=7).outputs[y].tobytes()
                        for ref, x in zip(refs, xs)]
            mismatches = []

            def hammer(vm, x, want):
                for _ in range(300):
                    if vm.run(x, steps=7).outputs[y].tobytes() != want:
                        mismatches.append(vm)
            threads = [threading.Thread(target=hammer, args=args)
                       for args in zip(vms, xs, expected)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


class TestWarmCache:
    def test_disk_hit_skips_codegen_and_compiler(self, tmp_path, monkeypatch):
        """A warm .so entry must be served without re-emitting C or
        invoking the C compiler — both are monkeypatched to explode."""
        code = stateful_code()
        clear_shared_program_cache()  # force a real build into tmp_path
        load_shared_program(code.program, cache_dir=tmp_path)
        clear_shared_program_cache()  # simulate a fresh process

        import repro.codegen.ctext as ctext
        import repro.native.sharedlib as sharedlib

        def boom(*args, **kwargs):
            raise AssertionError("warm path must not reach this")

        monkeypatch.setattr(ctext, "emit_c", boom)
        monkeypatch.setattr(sharedlib, "_build_so", boom)

        before = shared_program_stats()
        shared = load_shared_program(code.program, cache_dir=tmp_path)
        after = shared_program_stats()
        assert shared.from_cache
        assert after["disk_hits"] == before["disk_hits"] + 1
        assert after["builds"] == before["builds"]

    def test_registry_hit_returns_same_object(self, tmp_path):
        code = stateful_code()
        before = shared_program_stats()
        first = load_shared_program(code.program, cache_dir=tmp_path)
        second = load_shared_program(code.program, cache_dir=tmp_path)
        assert first is second
        assert shared_program_stats()["hits"] >= before["hits"] + 1

    def test_cache_dir_persists_source_and_metadata(self, tmp_path):
        """One ``native`` blob per build holds the ``.so``, its C source
        and the BuildInfo JSON."""
        import json

        from repro.blobstore import LocalStore
        from repro.native.sharedlib import unpack_native
        code = stateful_code()
        clear_shared_program_cache()
        load_shared_program(code.program, cache_dir=tmp_path)
        blobs = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(blobs) == 1
        assert blobs[0].relative_to(tmp_path).parts[0] == "native"
        key = blobs[0].name.removesuffix(".blob")
        bundle = unpack_native(LocalStore(tmp_path).get("native", key))
        assert bundle["so"].startswith(b"\x7fELF")
        assert f"{code.program.name}_step" in bundle["c"]
        info = json.loads(bundle["info"])
        assert info["key"] == key
        assert info["compiler_path"]
        assert info["compiler_version_hash"]


class TestVmIntegration:
    def test_cached_vm_keyed_by_backend_and_store(self, tmp_path):
        code = stateful_code()
        clear_vm_cache()
        vm_auto = cached_vm(code.program)
        vm_native = cached_vm(code.program, backend="native",
                              so_cache_dir=tmp_path)
        assert vm_auto is not vm_native
        assert cached_vm(code.program, backend="native",
                         so_cache_dir=tmp_path) is vm_native

    def test_callee_naming_state_directly_fails_typed(self, tmp_path):
        """A §5 callee reaches buffers only through its parameters: one
        that names a state buffer directly has no such file-scope array
        under the caller-owned ABI, so the build fails, typed."""
        from repro.ir.build import const, load, var
        from repro.ir.ops import (Assign, CallStmt, For, FuncDef, FuncParam,
                                  Program)
        p = Program("Leaky")
        p.declare("u", (2,), "float64", "input")
        p.declare("y", (2,), "float64", "output")
        p.declare("s", (2,), "float64", "state", np.zeros(2))
        p.define_function(FuncDef("peek", [FuncParam("x", "float64")], [
            Assign("s", const(0), load("x", const(0)))]))
        p.step.append(CallStmt("peek", ["u"]))
        p.step.append(For("i", 0, 2, [
            Assign("y", var("i"), load("s", var("i")))]))
        with pytest.raises(NativeToolchainError, match="build failed"):
            load_shared_program(p, cache_dir=tmp_path)

    def test_bind_rejects_overlapping_buffers(self, tmp_path):
        """The per-instance functions take restrict pointers, so bind
        refuses a table whose arrays overlap."""
        from repro.codegen.ctext import abi_buffers
        code = stateful_code()
        shared = load_shared_program(code.program, cache_dir=tmp_path)
        one = np.zeros(64)
        with pytest.raises(NativeToolchainError, match="overlap"):
            shared.bind({d.name: one[:max(d.size, 1)]
                         for d in abi_buffers(code.program)})

    def test_native_failure_is_typed_never_silent(self, monkeypatch):
        """A broken toolchain must raise NativeToolchainError from VM
        construction — no fallback to another backend."""
        import repro.native.sharedlib as sharedlib

        def no_cc(cc=None):
            raise NativeToolchainError("no C compiler found on PATH")

        monkeypatch.setattr(sharedlib, "compiler_identity", no_cc)
        code = stateful_code()
        with pytest.raises(NativeToolchainError):
            VirtualMachine(code.program, backend="native")


class TestServeNative:
    def test_run_op_native_populates_so_store(self, tmp_path):
        from repro.serve.cache import ArtifactCache
        from repro.serve.handlers import handle_request
        clear_vm_cache()
        clear_shared_program_cache()
        cache = ArtifactCache(tmp_path)
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "backend": "native", "steps": 2}
        result, _ = handle_request(req, cache)
        assert "counts_exact" in result
        # The artifact and its .so bundle share the cache's one layout.
        kinds = sorted(p.relative_to(tmp_path).parts[0]
                       for p in tmp_path.rglob("*") if p.is_file())
        assert kinds == ["artifact", "native"]
        assert all(p.suffix == ".blob"
                   for p in tmp_path.rglob("*") if p.is_file())
        # second request: artifact cache + .so registry, same outputs
        result2, _ = handle_request(req, cache)
        assert result["counts"] == result2["counts"]

    def test_native_unavailable_is_typed(self, tmp_path, monkeypatch):
        from repro.serve.cache import ArtifactCache
        from repro.serve.handlers import handle_request
        from repro.serve.protocol import ServeError
        import repro.native.sharedlib as sharedlib

        def no_cc(cc=None):
            raise NativeToolchainError("no C compiler found on PATH")

        monkeypatch.setattr(sharedlib, "compiler_identity", no_cc)
        clear_vm_cache()
        clear_shared_program_cache()
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "backend": "native", "steps": 1}
        with pytest.raises(ServeError) as err:
            handle_request(req, ArtifactCache(tmp_path))
        assert err.value.error_type == "native_unavailable"

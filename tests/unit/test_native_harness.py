"""Unit tests for the native harness machinery (no compiler needed for
most; generate_main is pure text generation)."""

import numpy as np
import pytest

from repro.codegen import FrodoGenerator
from repro.errors import NativeToolchainError
from repro.model.builder import ModelBuilder
from repro.native import compile_and_run, find_compiler, generate_main
from repro.native.compile import _input_initializer
from repro.ir.ops import BufferDecl


def tiny_code():
    b = ModelBuilder("Tiny")
    u = b.inport("u", shape=(3,))
    g = b.gain(u, 2.0, name="g")
    b.outport("y", g)
    return FrodoGenerator().generate(b.build())


class TestGenerateMain:
    def test_declares_prototypes(self):
        """main.c calls the model's one ABI — _init(nb, bufs) and
        _step(nb, nsteps, bufs) — and its table lists the input before
        the output."""
        code = tiny_code()
        main = generate_main(code, {"u": np.zeros(3)})
        assert "void Tiny_init(int64_t nb, void *const *bufs);" in main
        assert ("void Tiny_step(int64_t nb, int64_t nsteps, "
                "void *const *bufs);") in main
        u, y = code.input_buffers["u"], code.output_buffers["y"]
        assert f"bufs[] = {{(void *){u}_data, {y}_out, " in main
        assert "Tiny_init(1, bufs);" in main

    def test_embeds_inputs(self):
        main = generate_main(tiny_code(), {"u": np.array([1.5, 2.5, 3.5])})
        assert "1.5, 2.5, 3.5" in main

    def test_steps_loop(self):
        main = generate_main(tiny_code(), {"u": np.zeros(3)}, steps=7)
        assert "s < 7" in main

    def test_timing_block_optional(self):
        without = generate_main(tiny_code(), {"u": np.zeros(3)})
        with_timing = generate_main(tiny_code(), {"u": np.zeros(3)},
                                    repetitions=100)
        assert "clock_gettime" not in without
        assert "clock_gettime" in with_timing and "r < 100" in with_timing

    def test_one_call_per_step_and_repetition(self):
        """The harness keeps one one-step call per step and per timed
        repetition, so its timings stay comparable across ABI versions."""
        main = generate_main(tiny_code(), {"u": np.zeros(3)}, steps=7,
                             repetitions=100)
        assert "for (int s = 0; s < 7; s++) Tiny_step(1, 1, bufs);" in main
        assert ("for (int r = 0; r < 100; r++) Tiny_step(1, 1, bufs);"
                in main)

    def test_posix_define_precedes_includes(self):
        main = generate_main(tiny_code(), {"u": np.zeros(3)}, repetitions=1)
        lines = main.splitlines()
        assert lines[0].startswith("#define _POSIX_C_SOURCE")

    def test_wrong_input_size_rejected(self):
        decl = BufferDecl("u", (3,), "float64", "input")
        with pytest.raises(NativeToolchainError):
            _input_initializer(decl, np.zeros(5))

    def test_complex_print_format(self):
        b = ModelBuilder("Cx")
        u = b.inport("u", shape=(2,), dtype="complex128")
        c = b.conj(u, name="c")
        b.outport("y", c)
        code = FrodoGenerator().generate(b.build())
        main = generate_main(code, {"u": np.zeros(2, dtype="complex128")})
        assert "creal" in main and "cimag" in main

    def test_uint_print_format(self):
        b = ModelBuilder("Ui")
        u = b.inport("u", shape=(2,), dtype="uint32")
        k = b.constant("k", np.array([1, 1], dtype="uint32"))
        x = b.bitwise(u, k, op="XOR", name="x")
        b.outport("y", x)
        code = FrodoGenerator().generate(b.build())
        main = generate_main(code, {"u": np.zeros(2, dtype="uint32")})
        assert "%u" in main


class TestCompilerDiscovery:
    def test_find_compiler_prefers_gcc(self):
        found = find_compiler()
        if found is not None:
            assert found.endswith(("gcc", "cc", "clang"))

    def test_missing_compiler_raises(self):
        with pytest.raises(NativeToolchainError):
            compile_and_run(tiny_code(), {"u": np.zeros(3)},
                            cc="/no/such/compiler-xyz")

    def test_repro_no_cc_forces_no_toolchain(self, monkeypatch):
        """REPRO_NO_CC simulates a compiler-less host (the CI
        full-matrix "without gcc" leg) even when one is installed, and
        bypasses the memo so flipping it mid-process takes effect."""
        find_compiler()  # prime the memo with the real answer
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert find_compiler() is None
        monkeypatch.delenv("REPRO_NO_CC")
        assert find_compiler() == find_compiler()  # memo path intact


class TestCompilerCachesAndKeys:
    def test_find_compiler_memoized(self, monkeypatch):
        from repro.native.compile import clear_compiler_caches
        clear_compiler_caches()
        try:
            calls = []

            def fake_which(name):
                calls.append(name)
                return f"/fake/bin/{name}"

            monkeypatch.setattr("shutil.which", fake_which)
            assert find_compiler(("gcc",)) == "/fake/bin/gcc"
            assert find_compiler(("gcc",)) == "/fake/bin/gcc"
            assert calls == ["gcc"], "second lookup must hit the memo"
        finally:
            clear_compiler_caches()  # drop the fake path for other tests

    def test_compiler_identity_memoized(self, monkeypatch):
        import subprocess
        from repro.native.compile import (clear_compiler_caches,
                                          compiler_identity)
        clear_compiler_caches()
        try:
            calls = []
            real_run = subprocess.run

            def counting_run(cmd, **kwargs):
                calls.append(list(cmd))
                return real_run(["true"], capture_output=True, text=True)

            monkeypatch.setattr(subprocess, "run", counting_run)
            first = compiler_identity("/bin/true")
            second = compiler_identity("/bin/true")
            assert first is second
            assert len(calls) == 1, "--version probe must run exactly once"
        finally:
            clear_compiler_caches()

    def test_shared_cache_key_covers_identity_and_flags(self):
        """A toolchain upgrade, path change, flag change, or program
        change must each miss the .so cache; same inputs must hit."""
        from repro.native import DEFAULT_FLAGS, shared_cache_key
        from repro.native.compile import CompilerIdentity
        base = CompilerIdentity("/usr/bin/gcc", "aaaa1111aaaa1111")
        key = shared_cache_key("fp0", base, DEFAULT_FLAGS)
        assert shared_cache_key("fp0", base, DEFAULT_FLAGS) == key
        upgraded = CompilerIdentity("/usr/bin/gcc", "bbbb2222bbbb2222")
        assert shared_cache_key("fp0", upgraded, DEFAULT_FLAGS) != key
        moved = CompilerIdentity("/opt/bin/gcc", "aaaa1111aaaa1111")
        assert shared_cache_key("fp0", moved, DEFAULT_FLAGS) != key
        assert shared_cache_key("fp0", base, ("-std=c11", "-O2")) != key
        assert shared_cache_key("fp1", base, DEFAULT_FLAGS) != key


@pytest.mark.native
@pytest.mark.skipif(find_compiler() is None, reason="no C compiler")
class TestTempDirHygiene:
    """Regression: compile_and_run leaked its repro_native_* temp tree on
    every failure path before the try/finally cleanup."""

    @staticmethod
    def _track_mkdtemp(monkeypatch):
        import tempfile
        made = []
        real = tempfile.mkdtemp

        def tracking(*args, **kwargs):
            path = real(*args, **kwargs)
            made.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", tracking)
        return made

    def _own_dirs(self, made):
        from pathlib import Path
        return [Path(p) for p in made if "repro_native_" in p]

    def test_success_removes_workdir(self, monkeypatch):
        made = self._track_mkdtemp(monkeypatch)
        compile_and_run(tiny_code(), {"u": np.ones(3)})
        dirs = self._own_dirs(made)
        assert dirs and not any(p.exists() for p in dirs)

    def test_compile_failure_removes_workdir(self, monkeypatch):
        made = self._track_mkdtemp(monkeypatch)
        with pytest.raises(NativeToolchainError):
            compile_and_run(tiny_code(), {"u": np.zeros(3)},
                            flags=("-std=c11", "--definitely-bogus-flag"))
        dirs = self._own_dirs(made)
        assert dirs and not any(p.exists() for p in dirs)

    def test_keep_sources_opts_out(self, monkeypatch):
        import shutil
        made = self._track_mkdtemp(monkeypatch)
        compile_and_run(tiny_code(), {"u": np.ones(3)}, keep_sources=True)
        dirs = self._own_dirs(made)
        assert dirs and all(p.exists() for p in dirs)
        for p in dirs:
            shutil.rmtree(p, ignore_errors=True)


@pytest.mark.native
@pytest.mark.skipif(find_compiler() is None, reason="no C compiler")
class TestCompileAndRun:
    def test_sources_kept_on_request(self, tmp_path):
        result = compile_and_run(tiny_code(), {"u": np.ones(3)},
                                 workdir=tmp_path)
        assert (tmp_path / "Tiny.c").exists()
        assert (tmp_path / "main.c").exists()
        np.testing.assert_allclose(result.outputs["y"], [2.0, 2.0, 2.0])

    def test_bad_flags_surface_compiler_error(self, tmp_path):
        with pytest.raises(NativeToolchainError) as err:
            compile_and_run(tiny_code(), {"u": np.zeros(3)},
                            flags=("-std=c11", "--definitely-bogus-flag"),
                            workdir=tmp_path)
        assert "compilation failed" in str(err.value)

    def test_timing_reported(self):
        result = compile_and_run(tiny_code(), {"u": np.zeros(3)},
                                 repetitions=1000)
        assert result.seconds is not None and result.seconds >= 0.0

    def test_multi_output_order(self):
        b = ModelBuilder("Two")
        u = b.inport("u", shape=(4,))
        a = b.gain(u, 2.0, name="a")
        c = b.bias(u, 1.0, name="c")
        b.outport("double", a)
        b.outport("plus1", c)
        code = FrodoGenerator().generate(b.build())
        result = compile_and_run(code, {"u": np.arange(4.0)})
        np.testing.assert_allclose(result.outputs["double"], [0, 2, 4, 6])
        np.testing.assert_allclose(result.outputs["plus1"], [1, 2, 3, 4])


@pytest.mark.native
@pytest.mark.skipif(find_compiler() is None, reason="no C compiler")
def test_gcc12_slp_regression_case():
    """Regression pin for the host-toolchain workaround in DEFAULT_FLAGS.

    gcc 12.2's SLP vectorizer miscompiles the guarded accumulation
    pattern at plain -O3 (verified against -O0, UBSan, the VM, and the
    simulator).  With the default flags the boundary-judgment convolution
    must match the simulator exactly.
    """
    from repro.sim.simulator import random_inputs, simulate

    b = ModelBuilder("slp_case")
    u = b.inport("u", shape=(8,))
    mag = b.abs(u, name="mag")
    k = b.constant("k", np.array([0.1, 0.325, 0.55, 0.775, 1.0]))
    conv = b.convolution(mag, k, name="conv")
    b.outport("y", conv)
    model = b.build()
    from repro.codegen import make_generator
    code = make_generator("simulink").generate(model)
    inputs = random_inputs(model, seed=0)
    expected = simulate(model, inputs)["y"]
    result = compile_and_run(code, inputs)
    np.testing.assert_allclose(np.asarray(result.outputs["y"]).ravel(),
                               np.asarray(expected).ravel(),
                               rtol=1e-12, atol=1e-12)

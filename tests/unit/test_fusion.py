"""Unit tests for the elementwise loop-fusion pass."""

import numpy as np
import pytest

from repro.codegen import FrodoGenerator, make_generator
from repro.ir.build import add, const, load, mul, var
from repro.ir.fuse import fuse_step_inplace
from repro.ir.interp import execute
from repro.ir.ops import Assign, Comment, For, Program


def two_loop_program(start2=0, stop2=8):
    p = Program("t")
    p.declare("u", (8,), "float64", "input")
    p.declare("a", (8,), "float64", "temp")
    p.declare("y", (8,), "float64", "output")
    p.step.append(For("i", 0, 8, [Assign(
        "a", var("i"), mul(load("u", var("i")), const(2.0)))],
        vectorizable=True))
    p.step.append(For("j", start2, stop2, [Assign(
        "y", var("j"), add(load("a", var("j")), const(1.0)))],
        vectorizable=True))
    return p


class TestFusionMechanics:
    def test_fuses_matching_loops(self):
        p = two_loop_program()
        assert fuse_step_inplace(p, contract=False).nests_fused == 1
        assert p.loop_count == 1

    def test_fused_semantics_preserved(self):
        p = two_loop_program()
        u = np.arange(8.0)
        before = execute(two_loop_program(), {"u": u}).outputs["y"]
        fuse_step_inplace(p, contract=False)
        after = execute(p, {"u": u}).outputs["y"]
        np.testing.assert_allclose(after, before)

    def test_producer_consumer_order_within_iteration(self):
        """The fused body must read a[i] *after* writing it."""
        p = two_loop_program()
        fuse_step_inplace(p, contract=False)
        result = execute(p, {"u": np.ones(8)})
        np.testing.assert_allclose(result.outputs["y"], np.full(8, 3.0))

    def test_mismatched_bounds_fuse_by_intersection(self):
        """A consumer covering a sub-range of the producer fuses over the
        intersection; the producer's remainder runs in a peeled loop."""
        p = two_loop_program(start2=1, stop2=8)
        assert fuse_step_inplace(p, contract=False).nests_fused == 1
        assert p.loop_count == 2  # peel ([0,1)) + fused ([1,8))
        u = np.arange(8.0)
        before = execute(two_loop_program(start2=1, stop2=8),
                         {"u": u}, fuse=False).outputs["y"]
        after = execute(p, {"u": u}, fuse=False).outputs["y"]
        np.testing.assert_array_equal(after, before)

    def test_backward_shifted_access_fuses(self):
        """Consumer reads a[j-1] — a *backward* window: iteration j of
        the fused body reads a cell the producer wrote on iteration j-1,
        so the merge is legal (the forward-shift case stays refused, see
        test_forward_shifted_access_not_fused)."""
        from repro.ir.build import sub

        def build():
            p = Program("t")
            p.declare("u", (8,), "float64", "input")
            p.declare("a", (8,), "float64", "temp")
            p.declare("y", (8,), "float64", "output")
            p.step.append(For("i", 0, 8, [Assign(
                "a", var("i"), mul(load("u", var("i")), const(2.0)))],
                vectorizable=True))
            p.step.append(For("j", 1, 8, [Assign(
                "y", var("j"),
                add(load("a", sub(var("j"), const(1))), const(1.0)))],
                vectorizable=True))
            return p

        p = build()
        assert fuse_step_inplace(p, contract=False).nests_fused == 1
        u = np.arange(8.0)
        before = execute(build(), {"u": u}, fuse=False).outputs["y"]
        after = execute(p, {"u": u}, fuse=False).outputs["y"]
        np.testing.assert_array_equal(after, before)

    def test_forward_shifted_access_not_fused(self):
        """Consumer reads a[j+1] — iteration j of the fused body would
        observe a half-written buffer, so the pass must refuse."""
        p = Program("t")
        p.declare("u", (8,), "float64", "input")
        p.declare("a", (8,), "float64", "temp")
        p.declare("y", (8,), "float64", "output")
        p.step.append(For("i", 0, 8, [Assign(
            "a", var("i"), mul(load("u", var("i")), const(2.0)))],
            vectorizable=True))
        p.step.append(For("j", 0, 7, [Assign(
            "y", var("j"),
            add(load("a", add(var("j"), const(1))), const(1.0)))],
            vectorizable=True))
        assert fuse_step_inplace(p, contract=False).nests_fused == 0
        assert p.loop_count == 2

    def test_comments_between_loops_do_not_block(self):
        p = two_loop_program()
        p.step.insert(1, Comment("between"))
        assert fuse_step_inplace(p, contract=False).nests_fused == 1

    def test_scalar_read_of_written_buffer_blocks_fusion(self):
        """Reading a[0] inside the second loop would observe a half-written
        buffer after fusion — must not fuse."""
        p = Program("t")
        p.declare("u", (8,), "float64", "input")
        p.declare("a", (8,), "float64", "temp")
        p.declare("y", (8,), "float64", "output")
        p.step.append(For("i", 0, 8, [Assign(
            "a", var("i"), load("u", var("i")))], vectorizable=True))
        p.step.append(For("j", 0, 8, [Assign(
            "y", var("j"), add(load("a", var("j")), load("a", const(0))))],
            vectorizable=True))
        assert fuse_step_inplace(p, contract=False).nests_fused == 0

    def test_nested_body_fuses_when_writes_stay_bare(self):
        """A loop with an inner nest merges with an elementwise sibling
        when every access to the shared buffer is at the outer index
        (iteration i touches only y[i] in both nests)."""
        def build():
            p = Program("t")
            p.declare("u", (8,), "float64", "input")
            p.declare("y", (8,), "float64", "output")
            inner = For("k", 0, 2,
                        [Assign("y", var("i"), load("u", var("i")))])
            p.step.append(For("i", 0, 8, [inner]))
            p.step.append(For("j", 0, 8, [Assign(
                "y", var("j"), load("u", var("j")))], vectorizable=True))
            return p

        p = build()
        assert fuse_step_inplace(p, contract=False).nests_fused == 1
        u = np.arange(8.0)
        before = execute(build(), {"u": u}, fuse=False).outputs["y"]
        after = execute(p, {"u": u}, fuse=False).outputs["y"]
        np.testing.assert_array_equal(after, before)

    def test_non_elementwise_scatter_not_fused(self):
        """An inner nest that scatters to k-dependent cells must not
        merge with an elementwise sibling over the same buffer."""
        from repro.ir.build import sub
        p = Program("t")
        p.declare("u", (8,), "float64", "input")
        p.declare("y", (16,), "float64", "output")
        inner = For("k", 0, 2, [Assign(
            "y", add(var("i"), var("k")), load("u", var("i")))])
        p.step.append(For("i", 0, 8, [inner]))
        p.step.append(For("j", 0, 8, [Assign(
            "y", var("j"), load("u", var("j")))], vectorizable=True))
        assert fuse_step_inplace(p, contract=False).nests_fused == 0

    def test_chain_of_three_fuses_twice(self):
        p = Program("t")
        p.declare("u", (8,), "float64", "input")
        p.declare("a", (8,), "float64", "temp")
        p.declare("b", (8,), "float64", "temp")
        p.declare("y", (8,), "float64", "output")
        for src, dst in (("u", "a"), ("a", "b"), ("b", "y")):
            p.step.append(For(f"i_{dst}", 0, 8, [Assign(
                dst, var(f"i_{dst}"),
                add(load(src, var(f"i_{dst}")), const(1.0)))],
                vectorizable=True))
        assert fuse_step_inplace(p, contract=False).nests_fused == 2
        assert p.loop_count == 1
        result = execute(p, {"u": np.zeros(8)})
        np.testing.assert_allclose(result.outputs["y"], np.full(8, 3.0))


class TestFusedGenerator:
    def test_variant_registered(self):
        assert make_generator("frodo-fused").name == "frodo-fused"
        assert FrodoGenerator(fuse=True).fuse_elementwise

    @pytest.mark.parametrize("model_name", ["Decryption", "Simpson",
                                            "AudioProcess"])
    def test_fused_zoo_correct_and_fewer_loops(self, model_name):
        from repro.ir.interp import VirtualMachine
        from repro.sim.simulator import random_inputs, simulate
        from repro.zoo import build_model

        model = build_model(model_name)
        plain = make_generator("frodo").generate(model)
        fused = make_generator("frodo-fused").generate(model)
        assert fused.program.loop_count < plain.program.loop_count

        inputs = random_inputs(model, seed=9)
        expected = simulate(model, inputs, steps=2)
        got = fused.map_outputs(VirtualMachine(fused.program).run(
            fused.map_inputs(inputs), steps=2).outputs)
        for key in expected:
            np.testing.assert_allclose(np.asarray(got[key]).ravel(),
                                       np.asarray(expected[key]).ravel())

    def test_fused_reduces_loop_entries(self):
        # fuse=False pins the VM to the program as generated; the default
        # IR-level fusion pass would otherwise equalize both variants.
        from repro.ir.interp import VirtualMachine
        from repro.sim.simulator import random_inputs
        from repro.zoo import build_model
        model = build_model("Decryption")
        inputs = random_inputs(model, seed=1)
        entries = {}
        for generator in ("frodo", "frodo-fused"):
            code = make_generator(generator).generate(model)
            counts = VirtualMachine(code.program, fuse=False).run(
                code.map_inputs(inputs)).counts.total
            entries[generator] = counts.loops_entered
        assert entries["frodo-fused"] < entries["frodo"]

    def test_fused_native_compiles(self):
        from repro.native import compile_and_run, find_compiler
        from repro.sim.simulator import random_inputs, simulate
        from repro.zoo import build_model
        if find_compiler() is None:
            pytest.skip("no C compiler")
        model = build_model("Simpson")
        code = make_generator("frodo-fused").generate(model)
        inputs = random_inputs(model, seed=2)
        expected = simulate(model, inputs)
        result = compile_and_run(code, inputs)
        for key in expected:
            np.testing.assert_allclose(
                np.asarray(result.outputs[key]).ravel(),
                np.asarray(expected[key]).ravel())

"""Unit tests for C99 emission."""

import numpy as np
import pytest

from repro.codegen.ctext import (_c_literal, abi_buffers, emit_c,
                                 emit_expr, emit_stmt)
from repro.errors import CodegenError
from repro.ir.build import add, binop, call, const, load, select, var
from repro.ir.ops import Assign, Comment, For, If, Program


class TestLiterals:
    def test_float(self):
        assert _c_literal(1.5) == "1.5"
        assert _c_literal(2.0) == "2.0"

    def test_int(self):
        assert _c_literal(42) == "42"

    def test_uint32_suffix(self):
        assert _c_literal(7, "uint32") == "7u"

    def test_bool(self):
        assert _c_literal(True) == "true"
        assert _c_literal(False) == "false"

    def test_complex(self):
        text = _c_literal(1.5 - 2.0j)
        assert "I" in text and "1.5" in text and "-2.0" in text

    def test_unsupported(self):
        with pytest.raises(CodegenError):
            _c_literal(object())


class TestExpressions:
    def test_load(self):
        assert emit_expr(load("buf", var("i"))) == "buf[i]"

    def test_nested_binops_parenthesized(self):
        expr = add(binop("*", var("a"), var("b")), const(1.0))
        assert emit_expr(expr) == "((a * b) + 1.0)"

    def test_call(self):
        assert emit_expr(call("fmin", var("a"), const(0.0))) == "fmin(a, 0.0)"

    def test_toint_cast(self):
        assert emit_expr(call("toint", var("x"))) == "((int64_t)(x))"

    def test_select_ternary(self):
        expr = select(binop(">", var("a"), const(0.0)), const(1.0), const(2.0))
        assert emit_expr(expr) == "((a > 0.0) ? 1.0 : 2.0)"

    def test_unknown_call_rejected(self):
        with pytest.raises(CodegenError):
            emit_expr(call("frobnicate", var("x")))


class TestStatements:
    def test_assign(self):
        [line] = emit_stmt(Assign("y", var("i"), const(0.0)), 1)
        assert line == "    y[i] = 0.0;"

    def test_for_loop(self):
        lines = emit_stmt(For("i", 2, 9, [Assign("y", var("i"), const(1.0))]), 0)
        assert lines[0] == "for (int64_t i = 2; i < 9; i++) {"
        assert lines[-1] == "}"

    def test_forced_simd_annotation(self):
        loop = For("i", 0, 8, [Assign("y", var("i"), const(0.0))])
        loop.forced_simd = True
        lines = emit_stmt(loop, 0)
        assert any("SIMD" in line for line in lines)

    def test_if_else(self):
        stmt = If(binop(">", var("i"), const(0)),
                  [Assign("y", const(0), const(1.0))],
                  [Assign("y", const(0), const(2.0))])
        text = "\n".join(emit_stmt(stmt, 0))
        assert "if ((i > 0)) {" in text
        assert "} else {" in text

    def test_comment(self):
        assert emit_stmt(Comment("range=[5, 54]"), 0) == ["/* range=[5, 54] */"]


class TestProgramEmission:
    def make_program(self):
        p = Program("demo", generator="frodo")
        p.declare("u", (4,), "float64", "input")
        p.declare("y", (4,), "float64", "output")
        p.declare("k", (2,), "float64", "const", np.array([0.5, 2.0]))
        p.declare("s", (4,), "float64", "state", np.zeros(4))
        p.declare("tmp", (4,), "float64", "temp")
        p.step.append(For("i", 0, 4, [
            Assign("tmp", var("i"), add(load("u", var("i")), load("s", var("i")))),
            Assign("y", var("i"), binop("*", load("tmp", var("i")),
                                        load("k", const(0)))),
            Assign("s", var("i"), load("u", var("i"))),
        ]))
        return p

    def test_emits_headers(self):
        text = emit_c(self.make_program())
        assert "#include <math.h>" in text
        assert "#include <stdint.h>" in text

    def test_const_has_initializer(self):
        text = emit_c(self.make_program())
        assert "static const double k[2] = {0.5, 2.0};" in text

    def test_state_and_temp_are_caller_owned(self):
        """No mutable file-scope array: state and temps are per-instance
        slices of the caller's table, like inputs and outputs."""
        text = emit_c(self.make_program())
        assert "static double" not in text
        assert "(double*)bufs[2] + __b * 4" in text  # s
        assert "(double*)bufs[3] + __b * 4" in text  # tmp

    def test_signature_lists_io(self):
        """One ABI: the only external entries are _init(nb, bufs) and
        _step(nb, nsteps, bufs); the table lists inputs, outputs, state
        and temps in that order (consts are not in it), bound to the
        per-instance function's parameters."""
        text = emit_c(self.make_program())
        externs = [line for line in text.splitlines()
                   if line.startswith("void ")]
        assert externs == [
            "void demo_init(int64_t nb, void *const *bufs) {",
            "void demo_step(int64_t nb, int64_t nsteps, "
            "void *const *bufs) {"]
        assert ("static void demo__step(const double* restrict u, "
                "double* restrict y, double* restrict s, "
                "double* restrict tmp) {") in text
        assert ("demo__step((const double*)bufs[0] + __b * 4, "
                "(double*)bufs[1] + __b * 4, (double*)bufs[2] + __b * 4, "
                "(double*)bufs[3] + __b * 4);") in text
        assert [d.name for d in abi_buffers(self.make_program())] == \
            ["u", "y", "s", "tmp"]

    def test_step_loop_runs_in_c(self):
        """_step runs nsteps steps of each instance: the step loop sits
        inside the instance loop, so one call covers a whole run."""
        text = emit_c(self.make_program())
        step = text.split("void demo_step(")[1]
        assert ("    for (int64_t __b = 0; __b < nb; __b++)\n"
                "        for (int64_t __s = 0; __s < nsteps; __s++)\n"
                "            demo__step(") in step

    def test_init_restores_state(self):
        text = emit_c(self.make_program())
        init = text.split("static void demo__init(")[1]
        init = init.split("static void demo__step(")[0]
        assert "s[0] = 0.0;" in init
        assert "memset(tmp, 0, 4 * sizeof *tmp);" in init
        assert "for (int64_t __b = 0; __b < nb; __b++)" in init

    def test_complex_program_uses_complex_type(self):
        p = Program("cplx")
        p.declare("u", (2,), "complex128", "input")
        p.declare("y", (2,), "complex128", "output")
        p.step.append(For("i", 0, 2, [Assign("y", var("i"),
                                             call("conj", load("u", var("i"))))]))
        text = emit_c(p)
        assert "double complex" in text
        assert "conj(u[i])" in text

    def test_uint32_program_types(self):
        p = Program("bits")
        p.declare("u", (2,), "uint32", "input")
        p.declare("y", (2,), "uint32", "output")
        p.step.append(For("i", 0, 2, [Assign(
            "y", var("i"), binop("^", load("u", var("i")), const(0xFF)))]))
        text = emit_c(p)
        assert "const uint32_t* restrict u" in text
        assert "^" in text

    def test_generated_text_is_deterministic(self):
        assert emit_c(self.make_program()) == emit_c(self.make_program())

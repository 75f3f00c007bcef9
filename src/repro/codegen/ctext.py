"""C99 emission from the loop IR.

Produces a self-contained translation unit with one caller-owned ABI:

* ``static const`` arrays for ``const`` tables — the only file-scope
  arrays; no mutable file-scope array exists, so one loaded image holds
  no model state;
* ``void <name>_init(int64_t nb, void *const *bufs)`` and
  ``void <name>_step(int64_t nb, void *const *bufs)``, the only external
  symbols.  ``bufs`` holds one pointer per input, output, state and temp
  buffer, in :func:`abi_buffers` order; each pointer addresses ``nb``
  consecutive instances of ``max(size, 1)`` elements, and no two
  pointers' arrays overlap.  Each entry loops over the instances and
  calls a ``static`` per-instance function, ``<name>__init`` /
  ``<name>__step``, whose ``restrict`` parameters are that instance's
  base pointers, named after the buffers — so the program's statements
  are emitted once, unchanged;
* ``_init`` is a full per-instance reset: state initializers are
  replayed element by element, uninitialized state and temp arrays are
  ``memset`` to all-bits-zero (bitwise identical to the VM's
  ``_fill_initial``), then the program's init statements run.  Calling
  ``_init`` on an instance is equivalent to a fresh one;
* §5 generic functions stay real ``static`` functions.  Call sites pass
  the per-instance base pointers (``const`` tables are shared by every
  instance), so a callee that names a state or temp buffer directly
  instead of through a parameter does not compile.

Running one instance is ``nb = 1``; one compiled object serves any
batch size.  The emitted source compiles with ``gcc -std=c11 -O3`` and is
exercised end-to-end by :mod:`repro.native`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodegenError
from repro.ir.ops import (
    Assign, BinOp, BufferDecl, Call, CallStmt, Comment, Const, Expr, For,
    FuncDef, If, Load, Program, Select, Stmt, UnOp, Var, c_type,
)

_HEADER = """\
#include <stdint.h>
#include <stdbool.h>
#include <string.h>
#include <math.h>
#include <complex.h>
"""


def _c_literal(value: object, dtype_hint: str = "") -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        if dtype_hint == "uint32":
            return f"{int(value) & 0xFFFFFFFF}u"
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        text = repr(float(value))
        return text if any(c in text for c in ".eE") or "inf" in text or "nan" in text \
            else text + ".0"
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"({_c_literal(c.real)} + {_c_literal(c.imag)} * I)"
    raise CodegenError(f"cannot emit C literal for {value!r} ({type(value)})")


_CALL_NAMES = {
    "sqrt": "sqrt", "fabs": "fabs", "exp": "exp", "log": "log",
    "sin": "sin", "cos": "cos", "tan": "tan",
    "fmin": "fmin", "fmax": "fmax",
    "floor": "floor", "ceil": "ceil", "round": "round",
    "conj": "conj", "creal": "creal", "cimag": "cimag",
}


def emit_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return _c_literal(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Load):
        return f"{expr.buffer}[{emit_expr(expr.index)}]"
    if isinstance(expr, BinOp):
        return f"({emit_expr(expr.lhs)} {expr.op} {emit_expr(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"({expr.op}{emit_expr(expr.operand)})"
    if isinstance(expr, Call):
        if expr.func == "toint":
            return f"((int64_t)({emit_expr(expr.args[0])}))"
        try:
            name = _CALL_NAMES[expr.func]
        except KeyError:
            raise CodegenError(f"no C mapping for call {expr.func!r}") from None
        args = ", ".join(emit_expr(a) for a in expr.args)
        return f"{name}({args})"
    if isinstance(expr, Select):
        return (f"({emit_expr(expr.cond)} ? {emit_expr(expr.if_true)}"
                f" : {emit_expr(expr.if_false)})")
    raise CodegenError(f"cannot emit expression {expr!r}")


def emit_stmt(stmt: Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, Comment):
        return [f"{pad}/* {stmt.text} */"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.buffer}[{emit_expr(stmt.index)}] = "
                f"{emit_expr(stmt.value)};"]
    if isinstance(stmt, For):
        if stmt.segments is not None and len(stmt.segments) > 1:
            # Fused multi-range loop: one shared body driven by a static
            # segment table (repro.ir.fuse keeps segments sorted/disjoint).
            segs = stmt.segments
            table = ", ".join(f"{{{a}, {b}}}" for a, b in segs)
            seg = f"__seg_{stmt.var}"
            inner_pad = "    " * (indent + 1)
            lines = [
                f"{pad}{{",
                f"{inner_pad}static const int64_t "
                f"__segs_{stmt.var}[{len(segs)}][2] = {{{table}}};",
                f"{inner_pad}for (int64_t {seg} = 0; {seg} < {len(segs)}; "
                f"{seg}++) {{",
                f"{inner_pad}    for (int64_t {stmt.var} = "
                f"__segs_{stmt.var}[{seg}][0]; "
                f"{stmt.var} < __segs_{stmt.var}[{seg}][1]; "
                f"{stmt.var}++) {{",
            ]
            if stmt.forced_simd:
                lines.insert(0, f"{pad}/* HCG: lowered with SIMD intrinsics */")
            for inner in stmt.body:
                lines.extend(emit_stmt(inner, indent + 2))
            lines.append(f"{inner_pad}    }}")
            lines.append(f"{inner_pad}}}")
            lines.append(f"{pad}}}")
            return lines
        start = stmt.start if isinstance(stmt.start, int) \
            else emit_expr(stmt.start)
        stop = stmt.stop if isinstance(stmt.stop, int) \
            else emit_expr(stmt.stop)
        opener = f"{pad}for (int64_t {stmt.var} = {start}; " \
                 f"{stmt.var} < {stop}; {stmt.var}++) {{"
        lines = [opener]
        if stmt.forced_simd:
            lines.insert(0, f"{pad}/* HCG: lowered with SIMD intrinsics */")
        for inner in stmt.body:
            lines.extend(emit_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, CallStmt):
        args = list(stmt.buffer_args) + [emit_expr(a) for a in stmt.scalar_args]
        return [f"{pad}{stmt.func}({', '.join(args)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({emit_expr(stmt.cond)}) {{"]
        for inner in stmt.then:
            lines.extend(emit_stmt(inner, indent + 1))
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.orelse:
                lines.extend(emit_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise CodegenError(f"cannot emit statement {stmt!r}")


def _array_initializer(decl: BufferDecl) -> str:
    values = np.asarray(decl.init, dtype=decl.dtype).ravel()
    return "{" + ", ".join(
        _c_literal(v.item() if hasattr(v, "item") else v, decl.dtype)
        for v in values
    ) + "}"


def _declare_const(decl: BufferDecl) -> str:
    base = (f"static const {c_type(decl.dtype)} "
            f"{decl.name}[{max(decl.size, 1)}]")
    if decl.init is not None:
        return f"{base} = {_array_initializer(decl)};"
    return f"{base};"


def _emit_function(func: FuncDef) -> list[str]:
    """Emit one §5 generic function (static linkage)."""
    params: list[str] = []
    for p in func.params:
        if p.pointer:
            qualifier = "const " if p.const else ""
            params.append(f"{qualifier}{c_type(p.dtype)}* {p.name}")
        else:
            params.append(f"{c_type(p.dtype)} {p.name}")
    lines = [f"static void {func.name}({', '.join(params)}) {{"]
    for stmt in func.body:
        lines.extend(emit_stmt(stmt, 1))
    lines.append("}")
    return lines


#: Buffer kinds behind the ``bufs`` pointer table, in table order.
_ABI_KINDS = ("input", "output", "state", "temp")


def abi_buffers(program: Program) -> list[BufferDecl]:
    """The buffers of the native ABI's ``bufs`` table, in table order.

    Every input, output, state and temp buffer, kind by kind, each kind
    in declaration order.  ``const`` tables are not in the table: they
    stay ``static const`` arrays shared by all instances.
    """
    return [decl for kind in _ABI_KINDS
            for decl in program.buffers_of_kind(kind)]


def _emit_entry(program: Program, entry: str, prologue: list[str],
                body: list[Stmt]) -> list[str]:
    """One ABI entry point and the per-instance function it loops over.

    The per-instance function takes every table buffer as a ``restrict``
    parameter — the table's arrays never overlap — so gcc optimizes the
    body as it would over distinct static arrays.
    """
    decls = abi_buffers(program)
    types = [("const " if d.kind == "input" else "") + c_type(d.dtype)
             for d in decls]
    params = ", ".join(f"{t}* restrict {d.name}"
                       for t, d in zip(types, decls))
    instance = f"{program.name}__{entry}"
    lines = [f"static void {instance}({params or 'void'}) {{"]
    lines.extend(f"    {line}" for line in prologue)
    for stmt in body:
        lines.extend(emit_stmt(stmt, 1))
    args = ", ".join(f"({t}*)bufs[{k}] + __b * {max(d.size, 1)}"
                     for k, (t, d) in enumerate(zip(types, decls)))
    lines += ["}", "",
              f"void {program.name}_{entry}(int64_t nb, void *const *bufs) {{",
              "    for (int64_t __b = 0; __b < nb; __b++)",
              f"        {instance}({args});",
              "}", ""]
    return lines


def emit_c(program: Program) -> str:
    """Emit the full translation unit for a program."""
    from repro.ir.fuse import lower_windows  # local: fuse imports ops too

    program = lower_windows(program)  # no-op when no ring buffers
    lines: list[str] = [_HEADER]
    lines.append(f"/* generated by {program.generator or 'repro'} for model "
                 f"{program.name} */")
    lines.append("")

    for decl in program.buffers_of_kind("const"):
        lines.append(_declare_const(decl))
    lines.append("")

    for func in program.functions.values():
        lines.extend(_emit_function(func))
        lines.append("")

    # init: full reset of every state and temp buffer (initializers
    # replayed, everything else zeroed — IEEE-754 zero is all-bits-zero,
    # so memset matches the VM's `buffer[:] = 0` bitwise), then replay
    # program.init.
    reset: list[str] = []
    for kind in ("state", "temp"):
        for decl in program.buffers_of_kind(kind):
            if decl.init is None:
                reset.append(f"memset({decl.name}, 0, {max(decl.size, 1)}"
                             f" * sizeof *{decl.name});")
                continue
            values = np.asarray(decl.init, dtype=decl.dtype).ravel()
            for i, v in enumerate(values):
                literal = _c_literal(v.item() if hasattr(v, "item") else v,
                                     decl.dtype)
                reset.append(f"{decl.name}[{i}] = {literal};")
    lines.extend(_emit_entry(program, "init", reset, program.init))
    lines.extend(_emit_entry(program, "step", [], program.step))
    return "\n".join(lines)

"""Analytic operation counts for whole program bodies.

The native backend (:mod:`repro.native.sharedlib`) executes compiled C —
the ``.so`` cannot count ops the way the closure interpreter does.  This
module derives the counts *statically*, by the same reasoning the vector
backend's planner applies per loop nest (:class:`~repro.ir.vectorize._Planner`
``_count``), extended to cover an entire ``init``/``step`` body:

* per-expression costs and INT/FLOAT typing mirror the closure compiler's
  dynamic bookkeeping (arith on two ints is an ``int_op``, anything else a
  ``flop``; unary minus is always a flop; eager ``&&``/``||`` evaluate and
  count both sides);
* statement multiplicities come from static loop bounds, with ``If``
  guards that are pure functions of in-scope loop variables enumerated
  exactly (capped at :data:`MAX_COMBOS` combinations, as the vector
  planner caps its mask tables);
* ``CallStmt`` bodies are specialized per call site: scalar arguments
  that fold to compile-time constants bind the parameter for loop-bound
  evaluation inside the body.

**Exactness contract.**  ``StaticCounts.exact`` is True when every
multiplicity was provable — all loops statically bounded, every ``If``
either enumerable or with identically-costed arms, every ``Select`` with
equal-cost arms, no type ambiguity.  Then the counts equal what the
closure backend would record dynamically, bucket by bucket, field by
field (the differential suite asserts this).  Otherwise ``exact`` is
False and the counts are a documented approximation: data-dependent
``If``/``Select`` count the *then* arm, dynamic loops count one
``loops_entered`` and nothing inside.  The native VM surfaces the flag
as ``VirtualMachine.counts_exact``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from repro.ir.interp import ContextCounts, substitute_buffers
from repro.ir.ops import (
    Assign, BinOp, Call, CallStmt, Comment, Const, Expr, For, If, Load,
    Program, Select, Stmt, UnOp, Var,
)

_UINT32_MASK = 0xFFFFFFFF

#: Enumeration budget for loop-variable ``If`` guards — the same order of
#: magnitude the vector planner allows for its static mask tables.
MAX_COMBOS = 65536

INT, FLOAT = "i", "f"

_INT_DTYPES = ("uint32", "int64", "bool")


class _Unknown(Exception):
    """A value/multiplicity this analysis cannot pin down statically."""


@dataclass(frozen=True)
class StaticCounts:
    """Analytic per-invocation counts for a program's entry points.

    Counts are a pure function of the program, the step count and the
    batch size: ``n`` steps of ``nb`` instances perform
    ``nb × (init + n × step)``, which the native VM computes once per
    call with :meth:`~repro.ir.interp.ContextCounts.assign`.
    """

    init: ContextCounts
    step: ContextCounts
    exact: bool


def _madd(*dicts: dict) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            if v:
                out[k] = out.get(k, 0) + v
    return out


@dataclass(frozen=True)
class _Ctx:
    """Static execution context of one statement."""

    bucket: str                    # innermost enclosing loop's bucket
    scope: tuple                   # ((var, start, stop), ...) static loops
    constraints: tuple             # ((cond_expr, required_bool), ...)
    consts: tuple                  # ((name, int_value), ...) known scalars

    def push_loop(self, var: str, start: int, stop: int,
                  bucket: str) -> "_Ctx":
        return _Ctx(bucket, self.scope + ((var, start, stop),),
                    self.constraints, self.consts)

    def with_constraint(self, cond: Expr, required: bool) -> "_Ctx":
        return _Ctx(self.bucket, self.scope,
                    self.constraints + ((cond, required),), self.consts)

    def with_consts(self, consts: dict) -> "_Ctx":
        return _Ctx(self.bucket, self.scope, self.constraints,
                    tuple(sorted(consts.items())))


class _Analyzer:
    def __init__(self, program: Program):
        self.program = program
        self.exact = True
        # Both memos are keyed by id(node) and therefore PIN the node as
        # the first tuple element.  _call() analyzes ephemeral trees from
        # substitute_buffers; without the pin, a tree could be collected
        # and its ids recycled for a later call site's nodes, silently
        # serving stale (type, counts, exact) or deps for a different
        # expression.  The strong reference makes id reuse impossible for
        # the analyzer's lifetime.
        self._cmemo: dict[int, tuple] = {}
        self._dmemo: dict[int, tuple] = {}

    # -- expression costs (the closure path's bookkeeping, statically) ------

    def _count_expr(self, e: Expr) -> tuple:
        """(type, counts) of evaluating ``e`` once, mirroring the closure
        compiler's per-node increments.  The memo carries the node's own
        exactness so a cache hit re-applies it (the If-arm probe resets
        ``self.exact`` temporarily)."""
        memo = self._cmemo.get(id(e))
        if memo is None:
            memo = (e,) + self._count_expr_uncached(e)
            self._cmemo[id(e)] = memo
        if not memo[3]:
            self.exact = False
        return memo[1:3]

    def _count_expr_uncached(self, e: Expr) -> tuple:
        if isinstance(e, Const):
            # bool is an int in Python, so the closure's isinstance(x, int)
            # arith classification treats it as integer work.
            return (INT if isinstance(e.value, (bool, int)) else FLOAT,
                    {}, True)
        if isinstance(e, Var):
            return (INT, {}, True)
        if isinstance(e, Load):
            _, ix = self._count_expr(e.index)
            decl = self.program.buffers.get(e.buffer)
            t = INT if decl is not None and decl.dtype in _INT_DTYPES \
                else FLOAT
            return (t, _madd(ix, {"loads": 1}), True)
        if isinstance(e, BinOp):
            ta, ca = self._count_expr(e.lhs)
            tb, cb = self._count_expr(e.rhs)
            both_int = ta is INT and tb is INT
            if e.op in ("+", "-", "*", "/", "%"):
                key = "int_ops" if both_int else "flops"
                return (INT if both_int else FLOAT,
                        _madd(ca, cb, {key: 1}), True)
            if e.op in ("&", "|", "^", "<<", ">>"):
                return (INT, _madd(ca, cb, {"int_ops": 1}), True)
            # comparisons and eager &&/|| (both sides always evaluated)
            return (INT, _madd(ca, cb, {"cmp_ops": 1}), True)
        if isinstance(e, UnOp):
            t, c = self._count_expr(e.operand)
            if e.op == "-":
                return (t, _madd(c, {"flops": 1}), True)
            if e.op == "!":
                return (INT, _madd(c, {"cmp_ops": 1}), True)
            return (INT, _madd(c, {"int_ops": 1}), True)  # "~"
        if isinstance(e, Call):
            parts = [self._count_expr(a) for a in e.args]
            counts = _madd(*[c for _, c in parts], {"calls": 1})
            f = e.func
            if f in ("floor", "ceil", "toint"):
                return (INT, counts, True)
            if f == "fabs":
                return (parts[0][0], counts, True)
            if f in ("fmin", "fmax"):
                if parts[0][0] is not parts[1][0]:
                    # result type is data-dependent; downstream int/flop
                    # classification can no longer be proven
                    return (FLOAT, counts, False)
                return (parts[0][0], counts, True)
            # sqrt/exp/log/sin/cos/tan/round/conj/creal/cimag
            return (FLOAT, counts, True)
        if isinstance(e, Select):
            _, cc = self._count_expr(e.cond)
            tt, ct = self._count_expr(e.if_true)
            tf, cf = self._count_expr(e.if_false)
            # the closure evaluates only the taken arm; arms with unequal
            # cost or type are approximated by the then-arm, inexact
            exact = tt is tf and ct == cf
            return (tt, _madd(cc, ct, {"branches": 1}), exact)
        return (FLOAT, {}, False)

    # -- pure evaluation over loop variables / known scalars ----------------

    def _deps(self, e: Expr) -> frozenset:
        memo = self._dmemo.get(id(e))
        if memo is not None:
            return memo[1]
        if isinstance(e, Const):
            d = frozenset()
        elif isinstance(e, Var):
            d = frozenset((e.name,))
        elif isinstance(e, Load):
            d = self._deps(e.index) | frozenset(("<load>",))
        elif isinstance(e, BinOp):
            d = self._deps(e.lhs) | self._deps(e.rhs)
        elif isinstance(e, UnOp):
            d = self._deps(e.operand)
        elif isinstance(e, Call):
            d = frozenset().union(*[self._deps(a) for a in e.args]) \
                if e.args else frozenset()
        elif isinstance(e, Select):
            d = (self._deps(e.cond) | self._deps(e.if_true)
                 | self._deps(e.if_false))
        else:
            d = frozenset(("<load>",))
        self._dmemo[id(e)] = (e, d)
        return d

    def _eval(self, e: Expr, env: dict):
        """Evaluate a load-free expression with the closure's semantics
        (int/int division floors, << masks to uint32, eager &&/||)."""
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise _Unknown from None
        if isinstance(e, BinOp):
            a = self._eval(e.lhs, env)
            b = self._eval(e.rhs, env)
            op = e.op
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise _Unknown
                return a // b if isinstance(a, int) and isinstance(b, int) \
                    else a / b
            if op == "%":
                if b == 0:
                    raise _Unknown
                return a % b
            if op == "&":
                return int(a) & int(b)
            if op == "|":
                return int(a) | int(b)
            if op == "^":
                return int(a) ^ int(b)
            if op == "<<":
                return (int(a) << int(b)) & _UINT32_MASK
            if op == ">>":
                return int(a) >> int(b)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            if op == ">=":
                return a >= b
            if op == "==":
                return a == b
            if op == "!=":
                return a != b
            if op == "&&":
                return bool(a) and bool(b)
            if op == "||":
                return bool(a) or bool(b)
            raise _Unknown
        if isinstance(e, UnOp):
            a = self._eval(e.operand, env)
            if e.op == "-":
                return -a
            if e.op == "!":
                return not a
            return (~int(a)) & _UINT32_MASK
        if isinstance(e, Call):
            args = [self._eval(a, env) for a in e.args]
            f = e.func
            if f == "fabs":
                return abs(args[0])
            if f == "floor":
                return math.floor(args[0])
            if f == "ceil":
                return math.ceil(args[0])
            if f == "toint":
                return int(args[0])
            if f == "fmin":
                return min(args)
            if f == "fmax":
                return max(args)
            raise _Unknown  # transcendental guards are not enumerated
        if isinstance(e, Select):
            return self._eval(e.if_true, env) if self._eval(e.cond, env) \
                else self._eval(e.if_false, env)
        raise _Unknown  # Load and anything exotic

    # -- statement multiplicities -------------------------------------------

    def _execs(self, ctx: _Ctx, extra: Optional[tuple] = None) -> int:
        """How many times a statement at ``ctx`` runs per body invocation.

        Constraint-relevant loop variables are enumerated jointly (so
        nested guards compose exactly); unconstrained loops contribute a
        plain trip-count product.  Raises :class:`_Unknown` past the
        combination budget or for non-evaluable guards.
        """
        constraints = ctx.constraints + ((extra,) if extra else ())
        trips = {v: max(stop - start, 0) for v, start, stop in ctx.scope}
        if not constraints:
            n = 1
            for t in trips.values():
                n *= t
            return n
        relevant: set = set()
        for cond, _ in constraints:
            deps = self._deps(cond)
            if "<load>" in deps:
                raise _Unknown
            relevant |= deps
        base = 1
        ranges = []
        for var, start, stop in ctx.scope:
            if var in relevant:
                ranges.append((var, range(start, stop)))
            else:
                base *= trips[var]
        combos = 1
        for _, r in ranges:
            combos *= len(r)
        if combos > MAX_COMBOS:
            raise _Unknown
        env = dict(ctx.consts)
        count = 0
        for values in itertools.product(*[r for _, r in ranges]):
            for (var, _), value in zip(ranges, values):
                env[var] = value
            if all(bool(self._eval(cond, env)) is want
                   for cond, want in constraints):
                count += 1
        return base * count

    def _execs_safe(self, ctx: _Ctx) -> int:
        """Like :meth:`_execs` but never raises: an unenumerable guard
        set falls back to the unconstrained trip product (an upper bound)
        and drops exactness."""
        try:
            return self._execs(ctx)
        except _Unknown:
            self.exact = False
            n = 1
            for _, start, stop in ctx.scope:
                n *= max(stop - start, 0)
            return n

    def _try_const(self, e, ctx: _Ctx) -> Optional[int]:
        if isinstance(e, int):
            return e
        deps = self._deps(e)
        if "<load>" in deps:
            return None
        try:
            value = self._eval(e, dict(ctx.consts))
        except _Unknown:
            return None
        return int(value) if isinstance(value, (bool, int)) else None

    # -- statement walking ---------------------------------------------------

    def _add(self, acc: dict, bucket: str, counts: dict, mult: int) -> None:
        if not mult:
            return
        dst = acc.setdefault(bucket, {})
        for name, n in counts.items():
            if n:
                dst[name] = dst.get(name, 0) + n * mult

    def _body(self, stmts: list[Stmt], ctx: _Ctx, acc: dict,
              execs: Optional[int] = None) -> None:
        """Walk one statement list.  ``execs`` is how many times the body
        runs per invocation; every sibling shares the same :class:`_Ctx`,
        so the joint constraint space is enumerated once here (or handed
        down by the caller) instead of once per statement."""
        live = [s for s in stmts if not isinstance(s, Comment)]
        if not live:
            return
        if execs is None:
            execs = self._execs_safe(ctx)
        for s in live:
            if isinstance(s, Assign):
                _, ci = self._count_expr(s.index)
                _, cv = self._count_expr(s.value)
                self._add(acc, ctx.bucket, _madd({"stores": 1}, ci, cv),
                          execs)
            elif isinstance(s, For):
                self._for(s, ctx, acc, execs)
            elif isinstance(s, If):
                self._if(s, ctx, acc, execs)
            elif isinstance(s, CallStmt):
                self._call(s, ctx, acc, execs)
            else:
                self.exact = False

    def _for(self, s: For, ctx: _Ctx, acc: dict, execs: int) -> None:
        if not execs:
            return
        if s.forced_simd:
            bucket = "forced"
        elif s.vectorizable:
            bucket = "vector"
        else:
            bucket = "scalar"
        if s.static_bounds:
            if s.segments is not None and len(s.segments) > 1:
                # Fused multi-segment loop: analyze each segment as its
                # own entry+trip so counts (and If-constraint enumeration
                # within each contiguous range) stay exact.
                if any(var == s.var for var, _, _ in ctx.scope):
                    self._add(acc, bucket,
                              {"loops_entered": len(s.segments),
                               "loop_iters": s.trip_count}, execs)
                    self.exact = False
                    return
                for a, b in s.segments:
                    trip = max(b - a, 0)
                    self._add(acc, bucket,
                              {"loops_entered": 1, "loop_iters": trip},
                              execs)
                    if trip:
                        self._body(s.body,
                                   ctx.push_loop(s.var, a, b, bucket),
                                   acc, execs * trip)
                return
            start, stop = s.start, s.stop
        else:
            # dynamic bounds: the closure evaluates both bound expressions
            # once per loop execution, counted in the *parent* bucket
            for b in (s.start, s.stop):
                if not isinstance(b, int):
                    _, c = self._count_expr(b)
                    self._add(acc, ctx.bucket, c, execs)
            start = self._try_const(s.start, ctx)
            stop = self._try_const(s.stop, ctx)
            if start is None or stop is None:
                # trip count is data- or loop-variable-dependent: the one
                # loops_entered per execution is still exact, the body is
                # not statically countable
                self._add(acc, bucket, {"loops_entered": 1}, execs)
                self.exact = False
                return
        trip = max(stop - start, 0)
        self._add(acc, bucket,
                  {"loops_entered": 1, "loop_iters": trip}, execs)
        if not trip:
            return
        if any(var == s.var for var, _, _ in ctx.scope):
            # shadowed loop variable: enumeration keys would collide
            self.exact = False
            return
        # The loop variable appears in no constraint yet, so the body's
        # multiplicity is exactly the loop statement's times the trip
        # count — no need to re-enumerate inside.
        self._body(s.body, ctx.push_loop(s.var, start, stop, bucket), acc,
                   execs * trip)

    def _if(self, s: If, ctx: _Ctx, acc: dict, execs: int) -> None:
        if not execs:
            return
        _, cc = self._count_expr(s.cond)
        self._add(acc, ctx.bucket, _madd(cc, {"branches": 1}), execs)
        try:
            true_execs = self._execs(ctx, extra=(s.cond, True))
        except _Unknown:
            # Data-dependent guard.  If both arms cost the same the choice
            # does not matter; otherwise count the then arm, inexact.
            before = self.exact
            then_acc: dict = {}
            self.exact = True
            self._body(s.then, ctx, then_acc, execs)
            then_exact = self.exact
            else_acc: dict = {}
            self.exact = True
            self._body(s.orelse, ctx, else_acc, execs)
            arms_equal = then_exact and self.exact and then_acc == else_acc
            self.exact = before and arms_equal
            for bucket, counts in then_acc.items():
                self._add(acc, bucket, counts, 1)
            return
        # _execs(extra=...) succeeded, so the guard partitions the already-
        # enumerated combo space exactly: the branch bodies inherit the
        # satisfying / complementary counts instead of re-enumerating the
        # identical constraint sets.
        if true_execs:
            self._body(s.then, ctx.with_constraint(s.cond, True), acc,
                       true_execs)
        if execs - true_execs:
            self._body(s.orelse, ctx.with_constraint(s.cond, False), acc,
                       execs - true_execs)

    def _call(self, s: CallStmt, ctx: _Ctx, acc: dict, execs: int) -> None:
        if not execs:
            return
        counts = {"calls": 1}
        for a in s.scalar_args:
            _, c = self._count_expr(a)
            counts = _madd(counts, c)
        self._add(acc, ctx.bucket, counts, execs)
        func = self.program.functions.get(s.func)
        if func is None:
            self.exact = False
            return
        mapping = {p.name: actual for p, actual
                   in zip(func.pointer_params, s.buffer_args)}
        body = substitute_buffers(func.body, mapping)
        consts = dict(ctx.consts)
        for p, a in zip(func.scalar_params, s.scalar_args):
            value = self._try_const(a, ctx)
            if value is None:
                consts.pop(p.name, None)
            else:
                consts[p.name] = value
        # The callee body runs exactly ``execs`` times; handing the count
        # down also keeps caller-scope constraints from being re-evaluated
        # under the callee's rebound scalar consts.
        self._body(body, ctx.with_consts(consts), acc, execs)

    # -- entry point ---------------------------------------------------------

    def body_counts(self, stmts: list[Stmt]) -> ContextCounts:
        acc: dict = {}
        ctx = _Ctx(bucket="scalar", scope=(), constraints=(), consts=())
        self._body(stmts, ctx, acc)
        result = ContextCounts()
        for bucket, counts in acc.items():
            dst = getattr(result, bucket)
            for name, n in counts.items():
                setattr(dst, name, getattr(dst, name) + n)
        return result


def analyze_counts(program: Program) -> StaticCounts:
    """Analytic :class:`ContextCounts` for one ``init`` call and one
    ``step`` call of ``program`` (see the module docstring for the
    exactness contract)."""
    analyzer = _Analyzer(program)
    init = analyzer.body_counts(program.init)
    step = analyzer.body_counts(program.step)
    return StaticCounts(init=init, step=step, exact=analyzer.exact)

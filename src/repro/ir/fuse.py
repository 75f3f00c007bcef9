"""Producer→consumer loop fusion with intermediate-buffer contraction.

FRODO's redundancy elimination shrinks loop *ranges*; this pass shrinks
*passes*: after lowering, data-intensive models still walk each
intermediate buffer in its own loop nest, so memory traffic — not
arithmetic — bounds the win.  Fusion merges those nests so one traversal
feeds the next element-by-element, and contraction demotes intermediates
that never escape a fused nest to a single cell (or a small sliding
window).  This is the loop-IR analogue of the block-operation folding
the Scicos/VSS methodology performs at the diagram level.

Every mechanism is chosen so that **fusion changes traversal, not
arithmetic** — outputs stay bit-identical and the analytic element-op
counts (flops / int_ops / cmp_ops / loads / stores / branches / calls)
of the fused program equal the unfused program's exactly (only the
``loops_entered`` / ``loop_iters`` traversal counters may shrink):

1. **α-merge** — adjacent loops (comments between are fine) whose bodies
   are α-equivalent (equal after positional renaming of bound loop
   variables) and whose ranges are disjoint and ascending become one
   *segmented* loop (``For.segments``) sharing a single body.  Execution
   order is exactly the original order, so this is unconditionally legal;
   it collapses the range-split segment loops FRODO's calculation-range
   policy produces for convolutions.
2. **producer→consumer merge** — two loops over the *same* iteration
   domain (possibly made equal by intersection-splitting the producer,
   reusing the static range machinery) are merged body-after-body when a
   conservative dependence rule holds for every buffer the pair shares
   with at least one write.  The rule admits, per shared buffer:

   * *bare* — every access is at exactly the induction variable, so
     iteration ``i`` touches cell ``i`` only;
   * *uniform* — every access in both loops is depth-0 at one identical
     injective linear form ``W·i + rest`` (``W ≠ 0``, ``rest`` a fixed
     combination of outer variables), the multi-dimensional
     generalization of bare that 2D nest fusion produces;
   * *blocked* — every access decomposes as ``W·i + rest`` with the
     ``rest`` interval provably inside ``[0, W)``, so iteration ``i``
     stays inside block ``i`` (how an outer loop of a row×column nest
     walks a row-major frame);
   * *backward window* — the earlier loop stores only at the bare index
     while the later loop is store-free and reads only at ``i - d`` with
     ``d ≥ 0``: every read cell was finalized ``d`` iterations earlier,
     so interleaving preserves every value (this is what sliding-window
     contraction later exploits);
   * *disjoint hulls* — the statically-provable index intervals of the
     two loops' conflicting accesses do not overlap.

   Loops may be non-adjacent: the consumer is hoisted over intervening
   statements only when buffer read/write sets prove it commutes.
   Merging is *flag-aware*: when the two loops' ``vectorizable`` /
   ``forced_simd`` flags differ, the merged nest conservatively demotes
   to the AND of each flag.  Every backend buckets element-op counts by
   the executing loop's own flags, so demotion migrates counts between
   buckets while keeping the totals exactly equal.
3. **nested (2D) fusion** — the merge sweep recurses into loop bodies,
   so when two depth-1 perfect nests merge at the outer level (via the
   blocked rule), their inner row loops then merge (via the uniform
   rule) or α-merge per-dimension into inner segmented loops.
4. **contraction** — a ``temp`` buffer whose every program-wide access is
   a depth-0 bare-index access inside one fused nest, with its single
   store preceding all loads, is demoted to one cell (shape ``(1,)``,
   index ``Const(0)``).  When the consumer instead reads a bounded
   backward window ``[i-k, i]`` of the producer, the buffer is demoted
   to a ``(k+1)``-cell ring (``BufferDecl.window``) rather than rejected:
   the logical shape and every IR index expression stay unchanged — so
   counts are untouched — and each backend lowers accesses onto
   ``index % (k+1)`` physically (see :func:`lower_windows`).

The pass is pure: :func:`fuse_program` returns a new program (expressions
are shared — they are immutable — but every statement and any contracted
buffer declaration is fresh).  :func:`fuse_step_inplace` is the in-place
variant the ``frodo-fused`` generator calls (without contraction).

``REPRO_FUSE_AGGRESSIVE=1`` in the environment lifts the sliding-window
profitability gates (delta cap and minimum-savings threshold) so fuzzing
can force the windowed path onto every shape that is *legal*, not just
the ones worth doing by default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ir.ops import (
    Assign, BinOp, BufferDecl, Call, CallStmt, Comment, Const, Expr, For,
    If, Load, Program, Select, Stmt, UnOp, Var,
)

#: Largest backward read distance the default profitability policy will
#: demote to a ring (aggressive mode lifts the cap — legality does not
#: depend on it, only the worth-doing heuristic).
WINDOW_DELTA_CAP = 16


def _aggressive() -> bool:
    return os.environ.get("REPRO_FUSE_AGGRESSIVE", "") not in ("", "0")


# -- stats ---------------------------------------------------------------------


@dataclass
class FusionStats:
    """What one :func:`fuse_program` run did (surfaced in report//metrics)."""

    nests_fused: int = 0          # merge operations performed
    buffers_contracted: int = 0   # temps demoted to a single cell
    buffers_windowed: int = 0     # temps demoted to a sliding-window ring
    bytes_saved: int = 0          # static bytes released by contraction
    loops_before: int = 0         # program loop count before the pass
    loops_after: int = 0          # ... and after
    #: Merge candidates rejected *only* because their
    #: ``vectorizable``/``forced_simd`` flags differ.  Flag-aware merging
    #: absorbs these (the merged nest demotes to the AND of the flags),
    #: so a non-zero tally indicates an audit/merge rule divergence.
    flag_mismatch_rejects: int = 0
    #: Same-domain merge-shaped pairs of perfect nests (depth ≥ 2) the
    #: dependence rule could not admit — the headroom a deeper-than-2D
    #: lift would unlock.
    nested_depth_rejects: int = 0
    #: Sliding-window contraction candidates (single-owner temps) whose
    #: access shape failed the window rules (forward/negative offsets,
    #: non-affine deltas, segmented hosts, rings as big as the buffer).
    window_shape_rejects: int = 0

    def as_dict(self) -> dict:
        return {
            "nests_fused": self.nests_fused,
            "buffers_contracted": self.buffers_contracted,
            "buffers_windowed": self.buffers_windowed,
            "bytes_saved": self.bytes_saved,
            "loops_before": self.loops_before,
            "loops_after": self.loops_after,
            "flag_mismatch_rejects": self.flag_mismatch_rejects,
            "nested_depth_rejects": self.nested_depth_rejects,
            "window_shape_rejects": self.window_shape_rejects,
        }


# -- expression helpers --------------------------------------------------------


def loads_in(expr: Expr):
    """Yield every Load node in ``expr`` (including inside indices)."""
    if isinstance(expr, Load):
        yield expr
        yield from loads_in(expr.index)
    elif isinstance(expr, BinOp):
        yield from loads_in(expr.lhs)
        yield from loads_in(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from loads_in(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from loads_in(arg)
    elif isinstance(expr, Select):
        yield from loads_in(expr.cond)
        yield from loads_in(expr.if_true)
        yield from loads_in(expr.if_false)


def rename_var(expr: Expr, old: str, new: str) -> Expr:
    """``expr`` with every ``Var(old)`` replaced by ``Var(new)``."""
    if isinstance(expr, Var):
        return Var(new) if expr.name == old else expr
    if isinstance(expr, Load):
        return Load(expr.buffer, rename_var(expr.index, old, new))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_var(expr.lhs, old, new),
                     rename_var(expr.rhs, old, new))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, rename_var(expr.operand, old, new))
    if isinstance(expr, Call):
        return Call(expr.func,
                    tuple(rename_var(a, old, new) for a in expr.args))
    if isinstance(expr, Select):
        return Select(rename_var(expr.cond, old, new),
                      rename_var(expr.if_true, old, new),
                      rename_var(expr.if_false, old, new))
    return expr


def _linform(e: Expr) -> Optional[dict]:
    """``e`` as {var_name: coeff, None: const} or None if not linear."""
    if isinstance(e, Const):
        if isinstance(e.value, bool) or not isinstance(e.value, int):
            return None
        return {None: e.value}
    if isinstance(e, Var):
        return {None: 0, e.name: 1}
    if isinstance(e, UnOp) and e.op == "-":
        lf = _linform(e.operand)
        return None if lf is None else {k: -v for k, v in lf.items()}
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        a, b = _linform(e.lhs), _linform(e.rhs)
        if a is None or b is None:
            return None
        if e.op == "*":
            if set(a) == {None}:
                scale, other = a[None], b
            elif set(b) == {None}:
                scale, other = b[None], a
            else:
                return None
            return {k: scale * v for k, v in other.items()}
        sign = 1 if e.op == "+" else -1
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + sign * v
        return out
    return None


def _clone_stmt(s: Stmt) -> Stmt:
    if isinstance(s, Assign):
        return Assign(s.buffer, s.index, s.value)
    if isinstance(s, For):
        return For(s.var, s.start, s.stop, [_clone_stmt(b) for b in s.body],
                   s.vectorizable, s.forced_simd, segments=s.segments)
    if isinstance(s, If):
        return If(s.cond, [_clone_stmt(b) for b in s.then],
                  [_clone_stmt(b) for b in s.orelse])
    if isinstance(s, Comment):
        return Comment(s.text)
    if isinstance(s, CallStmt):
        return CallStmt(s.func, list(s.buffer_args), list(s.scalar_args))
    raise TypeError(f"unknown statement {type(s).__name__}")


def _rename_stmts(stmts: list, old: str, new: str) -> Optional[list]:
    """Clone ``stmts`` with loop var ``old`` renamed to ``new``; None when
    the rename would capture (an inner loop already binds ``new``)."""
    if old == new:
        return [_clone_stmt(s) for s in stmts]
    out = []
    for s in stmts:
        if isinstance(s, Assign):
            out.append(Assign(s.buffer, rename_var(s.index, old, new),
                              rename_var(s.value, old, new)))
        elif isinstance(s, For):
            if s.var == new or s.var == old:
                return None  # capture / shadowing
            body = _rename_stmts(s.body, old, new)
            if body is None:
                return None
            start = s.start if isinstance(s.start, int) \
                else rename_var(s.start, old, new)
            stop = s.stop if isinstance(s.stop, int) \
                else rename_var(s.stop, old, new)
            out.append(For(s.var, start, stop, body, s.vectorizable,
                           s.forced_simd, segments=s.segments))
        elif isinstance(s, If):
            then = _rename_stmts(s.then, old, new)
            orelse = _rename_stmts(s.orelse, old, new)
            if then is None or orelse is None:
                return None
            out.append(If(rename_var(s.cond, old, new), then, orelse))
        elif isinstance(s, Comment):
            out.append(Comment(s.text))
        else:
            return None  # CallStmt: scalar args may capture; be conservative
    return out


# -- α-equivalence -------------------------------------------------------------


def _canon_expr(e: Expr, names: dict, out: list) -> None:
    if isinstance(e, Const):
        out.append(f"C:{type(e.value).__name__}:{e.value!r}")
    elif isinstance(e, Var):
        out.append(f"V:{names.get(e.name, e.name)}")
    elif isinstance(e, Load):
        out.append(f"L:{e.buffer}[")
        _canon_expr(e.index, names, out)
        out.append("]")
    elif isinstance(e, BinOp):
        out.append(f"B:{e.op}(")
        _canon_expr(e.lhs, names, out)
        out.append(",")
        _canon_expr(e.rhs, names, out)
        out.append(")")
    elif isinstance(e, UnOp):
        out.append(f"U:{e.op}(")
        _canon_expr(e.operand, names, out)
        out.append(")")
    elif isinstance(e, Call):
        out.append(f"F:{e.func}(")
        for a in e.args:
            _canon_expr(a, names, out)
            out.append(",")
        out.append(")")
    elif isinstance(e, Select):
        out.append("S(")
        _canon_expr(e.cond, names, out)
        out.append("?")
        _canon_expr(e.if_true, names, out)
        out.append(":")
        _canon_expr(e.if_false, names, out)
        out.append(")")
    else:
        out.append(repr(e))


def _canon_stmts(stmts: list, names: dict, out: list) -> None:
    for s in stmts:
        if isinstance(s, Assign):
            out.append(f"A:{s.buffer}[")
            _canon_expr(s.index, names, out)
            out.append("]=")
            _canon_expr(s.value, names, out)
            out.append(";")
        elif isinstance(s, For):
            inner = dict(names)
            inner[s.var] = f"λ{len(names)}"
            out.append(f"for:{inner[s.var]}:"
                       f"{int(s.vectorizable)}{int(s.forced_simd)}:"
                       f"{s.segments if s.segments else ''}[")
            for b in (s.start, s.stop):
                if isinstance(b, int):
                    out.append(str(b))
                else:
                    _canon_expr(b, names, out)
                out.append(":")
            out.append("]{")
            _canon_stmts(s.body, inner, out)
            out.append("}")
        elif isinstance(s, If):
            out.append("if(")
            _canon_expr(s.cond, names, out)
            out.append("){")
            _canon_stmts(s.then, names, out)
            out.append("}else{")
            _canon_stmts(s.orelse, names, out)
            out.append("}")
        elif isinstance(s, Comment):
            continue  # annotations never block α-equivalence
        elif isinstance(s, CallStmt):
            out.append(f"call:{s.func}({','.join(s.buffer_args)};")
            for a in s.scalar_args:
                _canon_expr(a, names, out)
                out.append(",")
            out.append(")")
        else:
            out.append(repr(s))


def _alpha_key(loop: For) -> str:
    out: list = []
    _canon_stmts(loop.body, {loop.var: "λ0"}, out)
    return "".join(out)


# -- read/write sets (buffer granularity) --------------------------------------


def _stmt_rw(s: Stmt, reads: set, writes: set) -> None:
    if isinstance(s, Assign):
        writes.add(s.buffer)
        for ld in loads_in(s.index):
            reads.add(ld.buffer)
        for ld in loads_in(s.value):
            reads.add(ld.buffer)
    elif isinstance(s, For):
        for b in (s.start, s.stop):
            if not isinstance(b, int):
                for ld in loads_in(b):
                    reads.add(ld.buffer)
        for b in s.body:
            _stmt_rw(b, reads, writes)
    elif isinstance(s, If):
        for ld in loads_in(s.cond):
            reads.add(ld.buffer)
        for b in s.then:
            _stmt_rw(b, reads, writes)
        for b in s.orelse:
            _stmt_rw(b, reads, writes)
    elif isinstance(s, CallStmt):
        # Without inspecting the callee, every bound buffer may be both
        # read and written.
        reads.update(s.buffer_args)
        writes.update(s.buffer_args)
        for a in s.scalar_args:
            for ld in loads_in(a):
                reads.add(ld.buffer)


def _rw_sets(s: Stmt) -> tuple[set, set]:
    reads: set = set()
    writes: set = set()
    _stmt_rw(s, reads, writes)
    return reads, writes


class _Memo:
    """Per-pass caches keyed by statement identity.

    Statements produced by merging are fresh objects, so ``id()`` is a
    stable key as long as the statement is kept alive — each entry pins
    the statement object to rule out id reuse after collection.  The one
    mutation the pass performs on an *existing* statement is the
    recursive sweep into a loop's body; :meth:`purge` drops that loop's
    entries afterwards so α-keys never go stale.  The memo dies with the
    pass.
    """

    def __init__(self):
        self.alpha: dict = {}    # id(For) -> (For, α-key)
        self.rw: dict = {}       # id(Stmt) -> (Stmt, (reads, writes))
        self.buf_info: dict = {}  # id(For) -> (For, {buf: _BufInfo} | None)
        self.selfind: dict = {}  # id(For) -> (For, bool)

    def alpha_key(self, loop: For) -> str:
        hit = self.alpha.get(id(loop))
        if hit is None:
            hit = (loop, _alpha_key(loop))
            self.alpha[id(loop)] = hit
        return hit[1]

    def rw_sets(self, s: Stmt) -> tuple[set, set]:
        hit = self.rw.get(id(s))
        if hit is None:
            hit = (s, _rw_sets(s))
            self.rw[id(s)] = hit
        return hit[1]

    def buffer_info(self, loop: For) -> Optional[dict]:
        hit = self.buf_info.get(id(loop))
        if hit is None:
            hit = (loop, _loop_buffer_info(loop))
            self.buf_info[id(loop)] = hit
        return hit[1]

    def self_independent(self, loop: For) -> bool:
        hit = self.selfind.get(id(loop))
        if hit is None:
            hit = (loop, _self_independent(self.buffer_info(loop)))
            self.selfind[id(loop)] = hit
        return hit[1]

    def purge(self, stmt: Stmt) -> None:
        for cache in (self.alpha, self.rw, self.buf_info, self.selfind):
            cache.pop(id(stmt), None)


# -- access collection and interval reasoning ----------------------------------


@dataclass
class _Access:
    buffer: str
    index: Expr
    is_store: bool
    depth: int
    bounds: dict  # inclusive (lo, hi) per in-scope loop var

    def interval(self) -> Optional[tuple]:
        lf = _linform(self.index)
        if lf is None:
            return None
        return self._interval_of(lf)

    def _interval_of(self, lf: dict) -> Optional[tuple]:
        lo = hi = lf.get(None, 0)
        for name, coeff in lf.items():
            if name is None or not coeff:
                continue
            b = self.bounds.get(name)
            if b is None:
                return None
            lo += min(coeff * b[0], coeff * b[1])
            hi += max(coeff * b[0], coeff * b[1])
        return (lo, hi)


def _collect_accesses(stmts: list, bounds: dict,
                      depth: int = 0) -> Optional[list]:
    """Every buffer access under ``stmts``; None when a CallStmt (opaque
    accesses) or dynamic inner bound makes the body unanalyzable."""
    acc: list = []
    for s in stmts:
        if isinstance(s, Comment):
            continue
        if isinstance(s, Assign):
            for ld in loads_in(s.index):
                acc.append(_Access(ld.buffer, ld.index, False, depth, bounds))
            for ld in loads_in(s.value):
                acc.append(_Access(ld.buffer, ld.index, False, depth, bounds))
            acc.append(_Access(s.buffer, s.index, True, depth, bounds))
        elif isinstance(s, For):
            if not s.static_bounds:
                return None
            inner = dict(bounds)
            lo = min(a for a, _ in s.iter_ranges())
            hi = max(b for _, b in s.iter_ranges()) - 1
            inner[s.var] = (lo, max(lo, hi))
            sub = _collect_accesses(s.body, inner, depth + 1)
            if sub is None:
                return None
            acc.extend(sub)
        elif isinstance(s, If):
            for ld in loads_in(s.cond):
                acc.append(_Access(ld.buffer, ld.index, False, depth, bounds))
            for arm in (s.then, s.orelse):
                sub = _collect_accesses(arm, bounds, depth + 1)
                if sub is None:
                    return None
                acc.extend(sub)
        else:
            return None  # CallStmt
    return acc


def _hull(accs: list) -> Optional[tuple]:
    """Smallest interval covering every access, None if any is unbounded,
    () if there are none."""
    if not accs:
        return ()
    lo = hi = None
    for a in accs:
        iv = a.interval()
        if iv is None:
            return None
        lo = iv[0] if lo is None else min(lo, iv[0])
        hi = iv[1] if hi is None else max(hi, iv[1])
    return (lo, hi)


def _disjoint(h1: Optional[tuple], h2: Optional[tuple]) -> bool:
    if h1 == () or h2 == ():
        return True
    if h1 is None or h2 is None:
        return False
    return h1[1] < h2[0] or h2[1] < h1[0]


@dataclass
class _BufInfo:
    """Name-independent facts about one loop's accesses to one buffer,
    all phrased against the loop's own induction variable so summaries
    memoize per loop and compare across loops without renaming."""

    all_bare: bool            # every access at exactly Var(loop.var)
    has_store: bool
    hull_all: Optional[tuple]
    hull_stores: Optional[tuple]
    #: ``(W, rest)`` when every access is depth-0 at the single linear
    #: form ``W·var + rest`` (W ≠ 0, ``rest`` a canonical tuple over
    #: *other* variables) — the injective per-iteration cell map the
    #: uniform dependence rule compares across loops.  None otherwise.
    uniform: Optional[tuple]
    #: ``W`` when every access decomposes as ``W·var + rest`` with the
    #: rest interval provably inside ``[0, W)`` — iteration ``i`` stays
    #: inside block ``i``.  None otherwise.
    blocked: Optional[int]
    #: Sorted tuple of deltas ``d`` when the loop never stores the
    #: buffer and every access is a load at exactly ``var - d``.  None
    #: otherwise (including when any access is a store).
    back_deltas: Optional[tuple]


def _buf_facts(var: str, accs: list) -> _BufInfo:
    bare = Var(var)
    stores = [a for a in accs if a.is_store]
    all_bare = all(a.index == bare for a in accs)

    uniform: Optional[tuple] = None
    blocked: Optional[int] = None
    back: Optional[tuple] = None

    lfs = [_linform(a.index) for a in accs]
    if all(lf is not None for lf in lfs):
        coeffs = {lf.get(var, 0) for lf in lfs}
        if len(coeffs) == 1:
            w = coeffs.pop()
            rests = []
            for lf in lfs:
                rest = {k: v for k, v in lf.items() if k != var and v}
                rest[None] = lf.get(None, 0)
                rests.append(rest)
            if w != 0 and all(a.depth == 0 for a in accs):
                canon = {tuple(sorted((str(k), v) for k, v in r.items()))
                         for r in rests}
                if len(canon) == 1:
                    uniform = (w, canon.pop())
            if w > 0:
                inside = True
                for a, rest in zip(accs, rests):
                    iv = a._interval_of(rest)
                    if iv is None or iv[0] < 0 or iv[1] >= w:
                        inside = False
                        break
                if inside:
                    blocked = w
            if not stores:
                deltas = set()
                for lf in lfs:
                    rest = {k: v for k, v in lf.items()
                            if k is not None and v}
                    if rest != {var: 1}:
                        deltas = None
                        break
                    deltas.add(-lf.get(None, 0))
                if deltas:
                    back = tuple(sorted(deltas))

    return _BufInfo(
        all_bare=all_bare,
        has_store=bool(stores),
        hull_all=_hull(accs),
        hull_stores=_hull(stores),
        uniform=uniform,
        blocked=blocked,
        back_deltas=back,
    )


def _loop_buffer_info(loop: For) -> Optional[dict]:
    """Per-buffer :class:`_BufInfo` summary of ``loop``, or None when the
    body is unanalyzable."""
    lo = min(a for a, _ in loop.iter_ranges())
    hi = max(b for _, b in loop.iter_ranges()) - 1
    acc = _collect_accesses(loop.body, {loop.var: (lo, max(lo, hi))})
    if acc is None:
        return None
    by_buf: dict = {}
    for a in acc:
        by_buf.setdefault(a.buffer, []).append(a)
    return {buf: _buf_facts(loop.var, accs) for buf, accs in by_buf.items()}


# -- range algebra -------------------------------------------------------------


def _normalize_ranges(ranges) -> tuple:
    """Sort-merge touching/overlap-free ranges; input must be disjoint."""
    segs = sorted((int(a), int(b)) for a, b in ranges if b > a)
    out: list = []
    for a, b in segs:
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def _range_subset(inner, outer) -> bool:
    """Is the index set of ``inner`` contained in ``outer``?  Both are
    normalized disjoint-ascending range tuples."""
    for a, b in inner:
        if not any(oa <= a and b <= ob for oa, ob in outer):
            # an inner segment may also span across outer segments only if
            # each point is covered; segments are maximal after
            # normalization, so containment must be within one segment
            return False
    return True


def _range_diff(outer, inner) -> tuple:
    """Index set ``outer`` minus ``inner`` as normalized ranges."""
    out: list = []
    for a, b in outer:
        cur = a
        for ia, ib in inner:
            if ib <= cur or ia >= b:
                continue
            if ia > cur:
                out.append((cur, min(ia, b)))
            cur = max(cur, ib)
            if cur >= b:
                break
        if cur < b:
            out.append((cur, b))
    return _normalize_ranges(out)


def _ascending(ra, rb) -> bool:
    return ra[-1][1] <= rb[0][0]


def _make_for(var: str, ranges: tuple, body: list, proto: For,
              flags: Optional[tuple] = None) -> For:
    vec, simd = (proto.vectorizable, proto.forced_simd) \
        if flags is None else flags
    if len(ranges) == 1:
        return For(var, ranges[0][0], ranges[0][1], body, vec, simd)
    return For(var, ranges[0][0], ranges[-1][1], body, vec, simd,
               segments=ranges)


def _merged_flags(a: For, b: For) -> tuple:
    """Conservative flag pair for a merged nest: the AND of each flag.
    Count buckets are keyed by the executing loop's own flags in every
    backend, so demotion migrates counts between buckets while totals
    stay exactly equal."""
    return (a.vectorizable and b.vectorizable,
            a.forced_simd and b.forced_simd)


# -- dependence rule -----------------------------------------------------------


def _dep_ok(info_a: Optional[dict], info_b: Optional[dict]) -> bool:
    """May the bodies of two same-domain loops be interleaved (``a``'s
    iteration running immediately before ``b``'s)?  Operates on the
    per-buffer summaries of :func:`_loop_buffer_info` (each in its loop's
    own naming — the facts compared are name-independent)."""
    if info_a is None or info_b is None:
        return False
    for buf in info_a.keys() & info_b.keys():
        ia, ib = info_a[buf], info_b[buf]
        if not (ia.has_store or ib.has_store):
            continue  # read-read never conflicts
        if ia.all_bare and ib.all_bare:
            continue  # iteration i touches cell i only, in original order
        if ia.uniform is not None and ia.uniform == ib.uniform:
            continue  # identical injective cell map: bare, generalized
        if ia.blocked is not None and ia.blocked == ib.blocked:
            continue  # iteration i stays inside block i in both loops
        # backward window: the producer finalizes cell i at iteration i,
        # the (store-free) consumer reads only cells at or behind i
        if ia.all_bare and ia.has_store and not ib.has_store \
                and ib.back_deltas is not None and ib.back_deltas[0] >= 0:
            continue
        # disjointness escape: the loops touch provably separate regions
        if _disjoint(ia.hull_stores, ib.hull_all) \
                and _disjoint(ia.hull_all, ib.hull_stores):
            continue
        return False
    return True


def _self_independent(info: Optional[dict]) -> bool:
    """Iterations may be reordered: every buffer the loop writes has
    per-iteration footprints that are pairwise disjoint across
    iterations (bare, uniform or blocked access shape)."""
    if info is None:
        return False
    for facts in info.values():
        if not facts.has_store:
            continue
        if facts.all_bare or facts.uniform is not None \
                or facts.blocked is not None:
            continue
        return False
    return True


# -- the merge driver ----------------------------------------------------------


def _try_merge(a: For, b: For, memo: _Memo) -> Optional[tuple]:
    """Try to fuse ``b`` (later) into ``a`` (earlier).  Returns
    ``(pre, merged)`` — ``pre`` is an optional remainder loop that keeps
    the producer's uncovered iterations — or None.  Differing
    ``vectorizable``/``forced_simd`` flags no longer block a merge: the
    merged nest demotes to the AND of the flags."""
    if not (a.static_bounds and b.static_bounds):
        return None
    ra = _normalize_ranges(a.iter_ranges())
    rb = _normalize_ranges(b.iter_ranges())
    if not ra or not rb:
        return None
    flags = _merged_flags(a, b)

    # 1. α-merge: identical bodies over ascending disjoint ranges run in
    # exactly the original order under one segmented loop — always legal.
    if _ascending(ra, rb) and memo.alpha_key(a) == memo.alpha_key(b):
        return (None, _make_for(a.var, ra + rb,
                                [_clone_stmt(s) for s in a.body], a,
                                flags=flags))

    # 2. equal iteration domains: append the consumer body.
    if ra == rb:
        if not _dep_ok(memo.buffer_info(a), memo.buffer_info(b)):
            return None
        body_b = _rename_stmts(b.body, b.var, a.var)
        if body_b is None:
            return None
        body = [_clone_stmt(s) for s in a.body] + body_b
        return (None, _make_for(a.var, ra, body, a, flags=flags))

    # 3. intersection split: the consumer's domain is contained in the
    # producer's; peel the uncovered producer iterations into a remainder
    # loop (legal only when producer iterations commute) and fuse the rest.
    if _range_subset(rb, ra) and memo.self_independent(a):
        if not _dep_ok(memo.buffer_info(a), memo.buffer_info(b)):
            return None
        body_b = _rename_stmts(b.body, b.var, a.var)
        if body_b is None:
            return None
        rest = _range_diff(ra, rb)
        body = [_clone_stmt(s) for s in a.body] + body_b
        merged = _make_for(a.var, rb, body, a, flags=flags)
        if not rest:
            return (None, merged)
        return (_make_for(a.var, rest, [_clone_stmt(s) for s in a.body], a),
                merged)
    return None


def _merge_sweep(stmts: list, stats: FusionStats, memo: _Memo) -> int:
    """One left-to-right greedy sweep; returns the number of merges.

    The sweep recurses into every loop body first (nested fusion: an
    outer merge leaves the two inner row loops adjacent, which then
    merge or α-merge into an inner segmented loop), purging the loop's
    memo entries when the recursion changed its body.

    After a merge the scan stays on the same position so the freshly
    merged loop can absorb further consumers before moving on.  The
    intervening-statement hoist check is incremental: ``b`` may hoist
    over every statement between ``a`` and ``b`` iff its write set is
    disjoint from the union of their read∪write sets and its read set
    from the union of their write sets.
    """
    merges = 0
    i = 0
    while i < len(stmts):
        a = stmts[i]
        if isinstance(a, For):
            inner = _merge_sweep(a.body, stats, memo)
            if inner:
                merges += inner
                memo.purge(a)
        if not (isinstance(a, For) and a.static_bounds):
            i += 1
            continue
        merged_here = False
        between_rw: set = set()
        between_w: set = set()
        for j in range(i + 1, len(stmts)):
            b = stmts[j]
            if isinstance(b, Comment):
                continue
            if isinstance(b, For) and b.static_bounds:
                br, bw = memo.rw_sets(b)
                if not (bw & between_rw) and not (br & between_w):
                    res = _try_merge(a, b, memo)
                    if res is not None:
                        pre, merged = res
                        del stmts[j]
                        stmts[i:i + 1] = ([pre] if pre is not None else []) \
                            + [merged]
                        stats.nests_fused += 1
                        merges += 1
                        merged_here = True
                        break
            sr, sw = memo.rw_sets(b)
            between_rw |= sr | sw
            between_w |= sw
        if not merged_here:
            i += 1
    return merges


def _perfect_depth(loop: For) -> int:
    """Nesting depth of a perfect nest: a body that is exactly one For
    (comments aside) deepens the nest; anything else ends it."""
    body = [s for s in loop.body if not isinstance(s, Comment)]
    if len(body) == 1 and isinstance(body[0], For):
        return 1 + _perfect_depth(body[0])
    return 1


def _audit_rejects(stmts: list, stats: FusionStats, memo: _Memo) -> None:
    """Tally the remaining merge headroom in the *final* fused statement
    list, once per fixpoint, so the numbers are a well-defined property
    of the fused program:

    * ``flag_mismatch_rejects`` — reachable merge-shaped pairs whose only
      blocker is a flag mismatch.  Flag-aware merging makes this zero by
      construction; a non-zero tally means the audit and the merge rule
      have diverged.
    * ``nested_depth_rejects`` — reachable same-domain pairs of perfect
      nests (depth ≥ 2 on both sides) the dependence rule rejects: the
      headroom a deeper-than-2D lift would unlock.

    Mirrors :func:`_merge_sweep`'s hoist reachability and
    :func:`_try_merge`'s domain tests, and recurses into loop bodies the
    same way the sweep does.
    """
    for i, a in enumerate(stmts):
        if isinstance(a, For):
            _audit_rejects(a.body, stats, memo)
        if not (isinstance(a, For) and a.static_bounds):
            continue
        ra = _normalize_ranges(a.iter_ranges())
        if not ra:
            continue
        between_rw: set = set()
        between_w: set = set()
        for b in stmts[i + 1:]:
            if isinstance(b, For) and b.static_bounds:
                br, bw = memo.rw_sets(b)
                if not (bw & between_rw) and not (br & between_w):
                    rb = _normalize_ranges(b.iter_ranges())
                    if rb:
                        dep = ra == rb and _dep_ok(memo.buffer_info(a),
                                                   memo.buffer_info(b))
                        mergeable = dep or (
                            _ascending(ra, rb)
                            and memo.alpha_key(a) == memo.alpha_key(b))
                        if mergeable and (a.vectorizable, a.forced_simd) \
                                != (b.vectorizable, b.forced_simd):
                            stats.flag_mismatch_rejects += 1
                        if ra == rb and not dep \
                                and _perfect_depth(a) >= 2 \
                                and _perfect_depth(b) >= 2:
                            stats.nested_depth_rejects += 1
            sr, sw = memo.rw_sets(b)
            between_rw |= sr | sw
            between_w |= sw


# -- contraction ---------------------------------------------------------------


def _accesses_by_toplevel(step: list):
    """buffer -> list of (owner_index, depth, is_store, index_expr,
    position) for accesses in the step body; owner_index is the index of
    the enclosing top-level statement (None context => same list).  A
    position counter gives global textual order of depth-0 statements."""
    table: dict = {}
    blocked: set = set()

    def note(buf, owner, depth, is_store, index, pos):
        table.setdefault(buf, []).append((owner, depth, is_store, index, pos))

    def walk(stmts, owner, depth, pos):
        for s in stmts:
            if isinstance(s, Comment):
                continue
            pos += 1
            if isinstance(s, Assign):
                for ld in loads_in(s.index):
                    note(ld.buffer, owner, depth, False, ld.index, pos)
                for ld in loads_in(s.value):
                    note(ld.buffer, owner, depth, False, ld.index, pos)
                note(s.buffer, owner, depth, True, s.index, pos)
            elif isinstance(s, For):
                for bnd in (s.start, s.stop):
                    if not isinstance(bnd, int):
                        for ld in loads_in(bnd):
                            note(ld.buffer, owner, depth, False,
                                 ld.index, pos)
                pos = walk(s.body, owner, depth + 1, pos)
            elif isinstance(s, If):
                for ld in loads_in(s.cond):
                    note(ld.buffer, owner, depth, False, ld.index, pos)
                pos = walk(s.then, owner, depth + 1, pos)
                pos = walk(s.orelse, owner, depth + 1, pos)
            elif isinstance(s, CallStmt):
                blocked.update(s.buffer_args)
                for a in s.scalar_args:
                    for ld in loads_in(a):
                        note(ld.buffer, owner, depth, False, ld.index, pos)
        return pos

    pos = 0
    for k, s in enumerate(step):
        if isinstance(s, For):
            pos = walk([s], k, -1, pos)  # the For itself is depth -1 shell
        else:
            pos = walk([s], k, 0, pos)
    return table, blocked


def _rewrite_contracted(stmts: list, buf: str) -> list:
    zero = Const(0)

    def rw_expr(e: Expr) -> Expr:
        if isinstance(e, Load):
            idx = rw_expr(e.index)
            return Load(e.buffer, zero if e.buffer == buf else idx)
        if isinstance(e, BinOp):
            return BinOp(e.op, rw_expr(e.lhs), rw_expr(e.rhs))
        if isinstance(e, UnOp):
            return UnOp(e.op, rw_expr(e.operand))
        if isinstance(e, Call):
            return Call(e.func, tuple(rw_expr(a) for a in e.args))
        if isinstance(e, Select):
            return Select(rw_expr(e.cond), rw_expr(e.if_true),
                          rw_expr(e.if_false))
        return e

    out = []
    for s in stmts:
        if isinstance(s, Assign):
            out.append(Assign(s.buffer,
                              zero if s.buffer == buf else rw_expr(s.index),
                              rw_expr(s.value)))
        elif isinstance(s, For):
            out.append(For(s.var, s.start, s.stop,
                           _rewrite_contracted(s.body, buf), s.vectorizable,
                           s.forced_simd, segments=s.segments))
        elif isinstance(s, If):
            out.append(If(rw_expr(s.cond), _rewrite_contracted(s.then, buf),
                          _rewrite_contracted(s.orelse, buf)))
        else:
            out.append(_clone_stmt(s))
    return out


def _bare_delta(index: Expr, var: str) -> Optional[int]:
    """``d`` when ``index`` is exactly ``var - d`` (coefficient 1, all
    other variables absent); None otherwise."""
    lf = _linform(index)
    if lf is None:
        return None
    if {k: v for k, v in lf.items() if k is not None and v} != {var: 1}:
        return None
    return -lf.get(None, 0)


def _window_candidate(step: list, sites: list) -> bool:
    """Cheap screen: does any load sit at a *shifted* bare offset of its
    owner loop's induction variable?  Only such buffers are plausible
    sliding-window candidates, and only they tally shape rejects."""
    for owner, _, is_store, index, _ in sites:
        host = step[owner]
        if is_store or not isinstance(host, For):
            continue
        d = _bare_delta(index, host.var)
        if d is not None and d != 0:
            return True
    return False


def _try_window(decl: BufferDecl, step: list, sites: list,
                stats: FusionStats) -> Optional[int]:
    """Window size ``M`` when ``decl`` qualifies for sliding-window
    demotion, else None (tallying the shape reject).

    Several owner loops are allowed — the shape the subset-split merge
    leaves behind is a store-only peel loop over the producer's uncovered
    prefix followed by the fused host that stores cell ``i`` and reads
    the backward window ``[i-k, i]``.  Correctness contract (each
    backend zeroes the physical ring at the top of every step, outside
    the counted element operations):

    * every owner walks one contiguous range, owners appear in program
      order over pairwise-disjoint ascending ranges, and every store
      lands at the bare index — so across the whole step, writes visit
      logical cells in non-decreasing order (a write *frontier*);
    * every load sits at ``i - d`` with ``0 ≤ d ≤ max_delta`` in an
      owner that also stores, so at read time the frontier ``f`` is at
      most ``i`` and the logical cell read satisfies
      ``j = i - d > f - M`` for ``M = max_delta + 1``.  The only logical
      index ≡ ``j (mod M)`` in ``(f - M, f]`` is ``j`` itself: the ring
      cell holds this step's value of ``j`` when ``j`` was written, and
      the zeroing's 0 — exactly what the never-written full-size cell
      would hold, since only these owners touch the buffer and a cell
      outside their store ranges is never written in *any* step —
      otherwise;
    * a same-cell read (``d == 0``) must follow a store positionally so
      it observes this iteration's value, never last step's leftovers.
    """
    def reject() -> None:
        stats.window_shape_rejects += 1

    if decl.init is not None:
        reject()
        return None
    by_owner: dict = {}
    for owner, depth, is_store, index, pos in sites:
        by_owner.setdefault(owner, []).append((depth, is_store, index, pos))
    dmax = 0
    prev_stop = None
    for owner in sorted(by_owner):
        host = step[owner]
        if not isinstance(host, For) or not host.static_bounds:
            reject()
            return None
        ranges = _normalize_ranges(host.iter_ranges())
        if len(ranges) != 1:
            reject()
            return None
        if prev_stop is not None and ranges[0][0] < prev_stop:
            reject()
            return None
        prev_stop = ranges[0][1]
        store_pos: list = []
        loads: list = []
        for depth, is_store, index, pos in by_owner[owner]:
            if depth != 0:
                reject()
                return None
            d = _bare_delta(index, host.var)
            if d is None:
                reject()
                return None
            if is_store:
                if d != 0:
                    reject()
                    return None
                store_pos.append(pos)
            else:
                if d < 0:
                    reject()
                    return None
                loads.append((d, pos))
        if loads:
            if not store_pos:
                reject()
                return None
            first_store = min(store_pos)
            if any(d == 0 and pos <= first_store for d, pos in loads):
                reject()
                return None
            dmax = max(dmax, max(d for d, _ in loads))
    if dmax == 0:  # no backward read: single-cell territory, not a ring
        reject()
        return None
    window = dmax + 1
    if window >= decl.size:
        reject()
        return None
    if not _aggressive() and (dmax > WINDOW_DELTA_CAP
                              or 2 * window > decl.size):
        reject()
        return None
    return window


def _contract_buffers(program: Program, stats: FusionStats) -> None:
    """Demote temps that never escape one fused nest to a single cell,
    or — when the nest reads a bounded backward window of them — to a
    sliding-window ring."""
    # Any access outside the step body disqualifies a buffer.
    outside: set = set()
    for stmts in [program.init] + [f.body for f in program.functions.values()]:
        acc = _collect_accesses(stmts, {})
        if acc is None:  # CallStmt somewhere: be conservative, block all
            return
        outside.update(a.buffer for a in acc)
    for f in program.functions.values():
        outside.update(p.name for p in f.params)

    table, blocked = _accesses_by_toplevel(program.step)
    for name, decl in list(program.buffers.items()):
        if decl.kind != "temp" or decl.size <= 1 or decl.window is not None:
            continue
        if name in outside or name in blocked:
            continue
        sites = table.get(name)
        if not sites:
            continue
        owners = {o for o, _, _, _, _ in sites}
        if len(owners) == 1:
            owner = next(iter(owners))
            host = program.step[owner]
            if not isinstance(host, For) or not host.static_bounds:
                continue
            bare = Var(host.var)
            # full contraction: every access at depth 0 of the nest body,
            # at exactly the bare induction index, one store preceding
            # all loads
            store_pos = [p for _, _, st, _, p in sites if st]
            load_pos = [p for _, _, st, _, p in sites if not st]
            if all(depth == 0 and index == bare
                   for _, depth, _, index, _ in sites) \
                    and len(store_pos) == 1 \
                    and not any(p <= store_pos[0] for p in load_pos):
                host.body[:] = _rewrite_contracted(host.body, name)
                new_decl = BufferDecl(decl.name, (1,), decl.dtype, decl.kind)
                program.buffers[name] = new_decl
                stats.buffers_contracted += 1
                stats.bytes_saved += decl.nbytes - new_decl.nbytes
                continue
        # sliding window: backward-bounded reads of an ascending producer
        # (possibly split across a store-only peel loop plus the fused host)
        if not _window_candidate(program.step, sites):
            continue
        window = _try_window(decl, program.step, sites, stats)
        if window is not None:
            new_decl = BufferDecl(decl.name, decl.shape, decl.dtype,
                                  decl.kind, window=window)
            program.buffers[name] = new_decl
            stats.buffers_windowed += 1
            stats.bytes_saved += decl.nbytes - new_decl.storage_nbytes


# -- physical lowering of windowed buffers -------------------------------------


def _zero_const(dtype: str) -> Const:
    if dtype == "bool":
        return Const(False)
    if dtype in ("uint32", "int64"):
        return Const(0)
    if dtype == "complex128":
        return Const(0j)
    return Const(0.0)


def _wrap_windows_expr(e: Expr, wins: dict) -> Expr:
    if isinstance(e, Load):
        idx = _wrap_windows_expr(e.index, wins)
        m = wins.get(e.buffer)
        if m is not None:
            idx = BinOp("%", idx, Const(m))
        return Load(e.buffer, idx)
    if isinstance(e, BinOp):
        return BinOp(e.op, _wrap_windows_expr(e.lhs, wins),
                     _wrap_windows_expr(e.rhs, wins))
    if isinstance(e, UnOp):
        return UnOp(e.op, _wrap_windows_expr(e.operand, wins))
    if isinstance(e, Call):
        return Call(e.func,
                    tuple(_wrap_windows_expr(a, wins) for a in e.args))
    if isinstance(e, Select):
        return Select(_wrap_windows_expr(e.cond, wins),
                      _wrap_windows_expr(e.if_true, wins),
                      _wrap_windows_expr(e.if_false, wins))
    return e


def _wrap_windows_stmts(stmts: list, wins: dict) -> list:
    out: list = []
    for s in stmts:
        if isinstance(s, Assign):
            idx = _wrap_windows_expr(s.index, wins)
            m = wins.get(s.buffer)
            if m is not None:
                idx = BinOp("%", idx, Const(m))
            out.append(Assign(s.buffer, idx, _wrap_windows_expr(s.value, wins)))
        elif isinstance(s, For):
            start = s.start if isinstance(s.start, int) \
                else _wrap_windows_expr(s.start, wins)
            stop = s.stop if isinstance(s.stop, int) \
                else _wrap_windows_expr(s.stop, wins)
            out.append(For(s.var, start, stop,
                           _wrap_windows_stmts(s.body, wins),
                           s.vectorizable, s.forced_simd,
                           segments=s.segments))
        elif isinstance(s, If):
            out.append(If(_wrap_windows_expr(s.cond, wins),
                          _wrap_windows_stmts(s.then, wins),
                          _wrap_windows_stmts(s.orelse, wins)))
        elif isinstance(s, CallStmt):
            out.append(CallStmt(s.func, list(s.buffer_args),
                                [_wrap_windows_expr(a, wins)
                                 for a in s.scalar_args]))
        else:
            out.append(_clone_stmt(s))
    return out


def lower_windows(program: Program) -> Program:
    """Lower windowed buffers to physical form for the C backend.

    Returns ``program`` unchanged when no buffer carries a window.
    Otherwise returns a fresh program in which every windowed temp is
    re-declared at its physical ring shape ``(window,)``, every access
    index is wrapped in ``% window``, and a zeroing loop per ring runs
    at the top of the step body (the ring equivalent of "logical cells
    outside the producer's range hold their initial zero forever").  The
    Python backends never see this form — they wrap indices outside the
    counted expression evaluation instead — so the lowered ``%`` and the
    zeroing stores exist only in the emitted C, invisible to the
    analytic element-op counts, which are always taken from the logical
    program.
    """
    wins = {n: d.window for n, d in program.buffers.items()
            if d.window is not None}
    if not wins:
        return program
    buffers: dict = {}
    for name, d in program.buffers.items():
        if name in wins:
            buffers[name] = BufferDecl(name, (wins[name],), d.dtype, d.kind)
        else:
            buffers[name] = d
    used = {s.var for s in program.walk() if isinstance(s, For)}
    used |= set(program.buffers)
    step: list = []
    for name in sorted(wins):
        var = f"__w_{name}"
        n = 2
        while var in used:
            var = f"__w_{name}{n}"
            n += 1
        used.add(var)
        step.append(For(var, 0, wins[name],
                        [Assign(name, Var(var),
                                _zero_const(program.buffers[name].dtype))]))
    step.extend(_wrap_windows_stmts(program.step, wins))
    return Program(
        name=program.name,
        generator=program.generator,
        buffers=buffers,
        functions=dict(program.functions),
        init=_wrap_windows_stmts(program.init, wins),
        step=step,
        notes=dict(program.notes),
    )


# -- public API ----------------------------------------------------------------


def fuse_step_inplace(program: Program, *,
                      contract: bool = False) -> FusionStats:
    """Fuse the step body of ``program`` in place and return stats."""
    stats = FusionStats(loops_before=program.loop_count)
    stmts = list(program.step)
    memo = _Memo()
    while _merge_sweep(stmts, stats, memo):
        pass
    _audit_rejects(stmts, stats, memo)
    program.step[:] = stmts
    if contract:
        _contract_buffers(program, stats)
    stats.loops_after = program.loop_count
    return stats


def fuse_program(program: Program, *,
                 contract: bool = True) -> tuple[Program, FusionStats]:
    """Return a fused copy of ``program`` plus the stats of what changed.

    The input program is never mutated; expressions (immutable) and
    untouched buffer declarations are shared, statements are fresh.
    """
    clone = Program(
        name=program.name,
        generator=program.generator,
        buffers=dict(program.buffers),
        functions=dict(program.functions),
        init=[_clone_stmt(s) for s in program.init],
        step=[_clone_stmt(s) for s in program.step],
        notes=dict(program.notes),
    )
    stats = fuse_step_inplace(clone, contract=contract)
    return clone, stats

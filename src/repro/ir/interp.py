"""Interpreting virtual machine for the loop IR.

The VM executes a :class:`~repro.ir.ops.Program` on numpy buffers and
gathers **exact dynamic operation counts** — floating-point ops, integer
ops, comparisons, loads, stores, branches, math calls, and loop iterations.
Counts are bucketed by the *loop context* in which they execute:

* ``scalar`` — straight-line code and non-vectorizable loops;
* ``vector`` — loops a compiler auto-vectorizer would handle;
* ``forced`` — loops the HCG baseline lowers with explicit SIMD intrinsics.

The context of a statement is static (it is the innermost enclosing loop's
marking), so bucketing is resolved at closure-compile time and costs
nothing at run time.  The cost model (:mod:`repro.ir.cost`) applies
per-profile vector discounts per bucket; the numeric outputs feed the
random-testing correctness comparison against the reference simulator.
"""

from __future__ import annotations

import math
import operator
import os
import threading
import time
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from repro.errors import SimulationError
from repro.ir.ops import (
    Assign, BinOp, Call, CallStmt, Comment, Const, Expr, For, FuncDef, If,
    Load, Program, Select, Stmt, UnOp, Var,
)
from repro.obs import tracing as _tracing
from repro.obs import vmprofile as _vmprofile


def substitute_buffers(stmts: list[Stmt], mapping: dict[str, str]) -> list[Stmt]:
    """Rewrite buffer names in a statement list (pure; new nodes).

    Used to specialize a generic function body (§5 extension) for one
    call site's buffer bindings before closure compilation.
    """
    def expr(e: Expr) -> Expr:
        if isinstance(e, Load):
            return Load(mapping.get(e.buffer, e.buffer), expr(e.index))
        if isinstance(e, BinOp):
            return BinOp(e.op, expr(e.lhs), expr(e.rhs))
        if isinstance(e, UnOp):
            return UnOp(e.op, expr(e.operand))
        if isinstance(e, Call):
            return Call(e.func, tuple(expr(a) for a in e.args))
        if isinstance(e, Select):
            return Select(expr(e.cond), expr(e.if_true), expr(e.if_false))
        return e  # Const, Var

    def bound(b):
        return b if isinstance(b, int) else expr(b)

    def stmt(s: Stmt) -> Stmt:
        if isinstance(s, Assign):
            return Assign(mapping.get(s.buffer, s.buffer), expr(s.index),
                          expr(s.value))
        if isinstance(s, For):
            clone = For(s.var, bound(s.start), bound(s.stop),
                        [stmt(x) for x in s.body], s.vectorizable)
            clone.forced_simd = s.forced_simd
            return clone
        if isinstance(s, If):
            return If(expr(s.cond), [stmt(x) for x in s.then],
                      [stmt(x) for x in s.orelse])
        if isinstance(s, CallStmt):
            return CallStmt(s.func,
                            [mapping.get(b, b) for b in s.buffer_args],
                            [expr(a) for a in s.scalar_args])
        return s  # Comment
    return [stmt(s) for s in stmts]

_UINT32_MASK = 0xFFFFFFFF

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_INT_OPS = {"&", "|", "^", "<<", ">>"}
_CMP_OPS = {"<", "<=", ">", ">=", "==", "!=", "&&", "||"}

def _real_sqrt(x: float) -> float:
    # C semantics: sqrt of a negative double is NaN, not an exception.
    return math.sqrt(x) if x >= 0.0 else math.nan


def _real_log(x: float) -> float:
    # C semantics: log(0) = -inf, log(negative) = NaN.  Positive inputs go
    # through numpy's log so the closure and vector backends agree bitwise
    # (glibc's scalar log and numpy's differ in the last ulp on some inputs).
    if x > 0.0:
        return float(np.log(x))
    return -math.inf if x == 0.0 else math.nan


def _c_fmin(a, b):
    # C fmin(): if one operand is NaN, return the other (Python's min()
    # propagates NaN positionally instead).  Matches np.fmin bitwise,
    # including the +0.0/-0.0 tie, so both VM backends agree.
    if a != a:
        return b
    if b != b:
        return a
    return a if a <= b else b


def _c_fmax(a, b):
    # C fmax(): NaN loses to the non-NaN operand; see _c_fmin.
    if a != a:
        return b
    if b != b:
        return a
    return a if a >= b else b


_MATH_FUNCS: dict[str, Callable] = {
    "sqrt": lambda x: x ** 0.5 if isinstance(x, complex) else _real_sqrt(x),
    "fabs": abs,
    # Transcendentals route through numpy so the vector backend's array
    # ufuncs produce identical results — libm's scalar sin/cos/exp/log can
    # differ from numpy's array loops in the last ulp (and math.exp raises
    # OverflowError where C yields inf).  This still assumes numpy's scalar
    # ufunc path is bitwise-equal to its array loops, which holds for the
    # default float64 loops but is not contractual across exotic builds.
    "exp": lambda x: np.exp(x) if isinstance(x, complex) else float(np.exp(x)),
    "log": _real_log,
    "sin": lambda x: np.sin(x) if isinstance(x, complex) else float(np.sin(x)),
    "cos": lambda x: np.cos(x) if isinstance(x, complex) else float(np.cos(x)),
    "tan": lambda x: float(np.tan(x)),
    "fmin": _c_fmin,
    "fmax": _c_fmax,
    "floor": math.floor,
    "ceil": math.ceil,
    # C round(): halfway cases away from zero (Python's round() banks).
    "round": lambda x: math.copysign(math.floor(abs(x) + 0.5), x),
    "conj": lambda x: x.conjugate() if hasattr(x, "conjugate") else x,
    "creal": lambda x: x.real,
    "cimag": lambda x: x.imag,
    "toint": int,
}


@dataclass
class OpCounts:
    """Dynamic operation counts for one execution context bucket."""

    flops: int = 0
    int_ops: int = 0
    cmp_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    calls: int = 0
    loop_iters: int = 0
    loops_entered: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

    @property
    def total_element_ops(self) -> int:
        """Headline work metric: every counted dynamic operation."""
        return (self.flops + self.int_ops + self.cmp_ops + self.loads
                + self.stores + self.branches + self.calls)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_OP_FIELDS = tuple(f.name for f in fields(OpCounts))
_op_values = operator.attrgetter(*_OP_FIELDS)


@dataclass
class ContextCounts:
    """Counts split by loop context (scalar / vector / forced SIMD)."""

    scalar: OpCounts = field(default_factory=OpCounts)
    vector: OpCounts = field(default_factory=OpCounts)
    forced: OpCounts = field(default_factory=OpCounts)

    @property
    def total(self) -> OpCounts:
        return self.scalar + self.vector + self.forced

    def assign(self, *terms: tuple[int, "ContextCounts"]) -> "ContextCounts":
        """Set every field, in place, to the sum of ``factor × field``
        over ``terms`` (``(factor, counts)`` pairs), and return ``self``.

        The one implementation of count arithmetic: no terms zeroes, a
        ``(1, c)`` term copies, ``(B, c)`` scales, and a native run of
        ``n`` steps over ``nb`` instances is ``(nb, init), (nb * n, step)``.
        The bucket objects keep their identity — compiled closures hold
        them and increment their fields.
        """
        width = len(_OP_FIELDS)
        values = None
        for factor, counts in terms:
            flat = (_op_values(counts.scalar) + _op_values(counts.vector)
                    + _op_values(counts.forced))
            if factor != 1:
                flat = map(operator.mul, flat, repeat(factor))
            values = flat if values is None \
                else map(operator.add, values, flat)
        values = [0] * (3 * width) if values is None else list(values)
        # Re-initialise each bucket in place.  Never write through
        # ``__dict__``: that turns the instance's inline attribute storage
        # into a plain dict, and every later ``bucket.flops += 1`` of the
        # compiled closures runs about 3x slower.
        for k, bucket in enumerate((self.scalar, self.vector, self.forced)):
            bucket.__init__(*values[k * width:(k + 1) * width])
        return self

    def copy(self) -> "ContextCounts":
        """Independent snapshot (the VM mutates its live counts in place)."""
        return ContextCounts().assign((1, self))

    def bucket(self, name: str) -> OpCounts:
        return getattr(self, name)

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            "scalar": self.scalar.as_dict(),
            "vector": self.vector.as_dict(),
            "forced": self.forced.as_dict(),
        }


@dataclass
class ExecResult:
    """Outputs plus counts from executing a program."""

    outputs: dict[str, np.ndarray]
    counts: ContextCounts
    peak_buffer_bytes: int = 0


@dataclass
class BatchResult:
    """Result of :meth:`VirtualMachine.run_batch`.

    ``outputs[b]`` is instance ``b``'s output dict, bit-for-bit what
    ``run(inputs_list[b], steps)`` would have produced.  ``counts`` is the
    *aggregate* over the batch; on every backend whose ``counts_exact`` is
    True it equals the field-by-field sum of the B single-instance runs.
    """

    outputs: list[dict[str, np.ndarray]]
    counts: ContextCounts
    counts_exact: bool = True
    peak_buffer_bytes: int = 0

    @property
    def batch(self) -> int:
        return len(self.outputs)


def _wrap_ring_index(index: Callable[[dict], int],
                     window: int) -> Callable[[dict], int]:
    """Map a compiled logical-index function onto a sliding-window ring.

    The wrap happens after the index function runs, so whatever loads or
    arithmetic the index expression performs are still counted exactly as
    in the logical program; the ``%`` itself is physical addressing, not
    program arithmetic.
    """
    def ring_index(env: dict) -> int:
        return index(env) % window
    return ring_index


BACKENDS = ("auto", "closure", "vector", "native")


class _IOBuffer(NamedTuple):
    """One input or output buffer in a VM's I/O plan."""

    name: str
    kind: str                      # "input" or "output"
    dtype: np.dtype
    size: int                      # logical elements (0 for empty shapes)
    shape: tuple                   # the shape outputs are handed out in
    init: Optional[np.ndarray]     # flat declared initial value, or None


class VirtualMachine:
    """Compile a program to closures and execute it on numpy buffers.

    ``backend`` selects the execution strategy for counted loops:

    * ``"closure"`` — per-element Python closures (the original path);
    * ``"vector"`` — lower every provably-safe static loop nest to numpy
      slice/ufunc kernels (:mod:`repro.ir.vectorize`), falling back to
      closures wherever the safety analysis cannot prove exactness;
    * ``"auto"`` — like ``"vector"`` but only for loops whose trip count
      makes the numpy dispatch overhead worthwhile (native stays opt-in;
      ``"auto"`` never selects it);
    * ``"native"`` — compile the emitted C into a reusable shared object
      (:mod:`repro.native.sharedlib`) and call its ``<name>_init`` /
      ``<name>_step`` entries in-process over a pointer table into this
      VM's own buffers — state and temps included, so a native VM is as
      independent as a closure/vector one, even when many VMs share one
      loaded image.  A run of ``n`` steps is one ``<name>_init`` call and
      one ``<name>_step`` call of ``n`` steps with ``nb = 1`` over
      ``_buffers``; a batch is the same two calls with ``nb = B`` over
      arrays of B instances.  ``<name>_init`` performs a full reset of
      state and temps, so :meth:`reset` refills only inputs and outputs
      and :meth:`run`'s reset semantics are preserved.  Counts are set
      once per call, not per step.  Requires a C toolchain — a missing
      compiler or failed build raises
      :class:`~repro.errors.NativeToolchainError`, never a silent
      fallback.  ``so_cache_dir`` is a directory path or a blob store
      (:mod:`repro.blobstore`; the serve layer passes its artifact
      cache's store) that keeps each build as one ``native`` bundle; a
      warm entry skips both code generation and the C compiler.

    All backends produce bitwise-identical outputs.  Closure/vector/auto
    also record identical :class:`ContextCounts`; vector-kernel counts
    are derived analytically (static per-iteration counts × trip count)
    in the same buckets the closure path uses.  The native backend's
    counts come from the same static-bounds reasoning applied to the
    whole program (:mod:`repro.ir.staticcount`): they equal the closure
    path's when ``counts_exact`` is True, and are a documented
    approximation (data-dependent branches count the then arm, dynamic
    loops count entry only) when it is False.
    """

    def __init__(self, program: Program, backend: str = "auto",
                 so_cache_dir=None, _batch_lanes: int = 0,
                 fuse: bool = True):
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        # Loop fusion (repro.ir.fuse) runs up front, before any backend
        # sees the program: the closure compiler, the vector planner, the
        # native C emitter and the static counter all consume the same
        # fused IR, so outputs stay bit-identical and element-op counts
        # unchanged across backends by construction.  ``fuse=False``
        # executes the program exactly as generated.
        self.fuse = bool(fuse)
        self.fusion_stats = None
        if self.fuse:
            from repro.ir.fuse import fuse_program
            program, self.fusion_stats = fuse_program(program)
        self.program = program
        self.backend = backend
        self.counts = ContextCounts()
        self.counts_exact = True
        # _batch_lanes > 0 makes this a *lifted* companion VM (internal,
        # built by run_batch): every buffer gains a trailing batch axis of
        # that width and each logical scalar becomes a length-B row.  The
        # closure/vector evaluators index only axis 0, so slices, gathers
        # and scatters work unchanged while numpy broadcasting carries the
        # batch axis.  Lifted VMs are driven through _run_batch_lifted
        # exclusively — run()/outputs() assume 1-D buffers.
        self._batch_lanes = int(_batch_lanes)
        self._buffers: dict[str, np.ndarray] = {}
        # One I/O plan per VM: each input and output with its size, shape
        # and flat initial value, derived once for reset, set_inputs,
        # outputs and the batch paths.
        self._io: list[_IOBuffer] = []
        # (kind, buffer, declared initial value or None) for every buffer.
        fills: list[tuple[str, np.ndarray, Optional[np.ndarray]]] = []
        for decl in program.buffers.values():
            # Windowed temps (sliding-window contraction) allocate their
            # physical ring, not the logical span; the closure compiler
            # wraps their indices with ``% window`` outside the counted
            # expression evaluation.
            shape: tuple = (max(decl.storage_size, 1),)
            if self._batch_lanes:
                shape += (self._batch_lanes,)
            buf = self._buffers[decl.name] = np.empty(shape, dtype=decl.dtype)
            # A flat view of the declared value, not a copy: every VM of a
            # program reads the one array (large const tables included).
            flat = None if decl.init is None \
                else np.asarray(decl.init, dtype=decl.dtype).ravel()
            if decl.kind in ("input", "output"):
                self._io.append(_IOBuffer(decl.name, decl.kind, buf.dtype,
                                          decl.size, decl.shape, flat))
            if flat is not None and self._batch_lanes:
                # Lifted buffers are (size, B): replicate the initial
                # value across the batch axis explicitly — a bare
                # `buf[:] = flat` would mis-broadcast when size == B.
                flat = flat[:, None]
            fills.append((decl.kind, buf, flat))
        self._inputs = {io.name: io for io in self._io if io.kind == "input"}
        self._outputs = [io for io in self._io if io.kind == "output"]
        # Each output buffer viewed in its output shape (a lifted VM's
        # 2-D buffers are read through _run_batch_lifted instead).
        self._output_views = [] if self._batch_lanes else [
            (io.name, self._buffers[io.name].reshape(io.shape))
            for io in self._outputs]
        self._peak_bytes = sum(arr.nbytes for arr in self._buffers.values())
        self._fill([(buf, init) for _, buf, init in fills])
        # <name>_init resets a native VM's state and temps, so its reset()
        # refills only what _init does not touch: the inputs and outputs.
        self._fills = [(buf, init) for kind, buf, init in fills
                       if backend != "native" or kind in ("input", "output")]
        self._specialized: dict[tuple, Callable[[dict], None]] = {}
        # run()/run_batch() reentrancy guard (an RLock so run_batch's
        # sequential fallback may call run() on the same thread).
        self._run_lock = threading.RLock()
        # Per-batch-size memos: expanded companion VMs (vector/auto) and
        # bound native array sets.  Small LRU caps — serve workers see a
        # handful of distinct coalesced batch sizes in practice.
        self._batch_vms: dict[int, tuple] = {}
        self._batch_native: dict[int, tuple] = {}
        self._batch_unsupported = False
        # Lifted-mode bookkeeping: companion VMs per batch size, the set
        # of batch sizes whose first lifted run matched the sequential
        # reference bit-for-bit, and a sticky rejection flag (static guard
        # failure, a loud evaluator error, or a verification mismatch).
        self._batch_lifted: dict[int, "VirtualMachine"] = {}
        self._lift_verified: set[int] = set()
        self._lift_rejected = False
        self._shared = None
        if backend == "native":
            from repro.ir.fuse import lower_windows
            from repro.ir.staticcount import analyze_counts
            from repro.native.sharedlib import load_shared_program
            # The shared library is built from the *physically lowered*
            # program (windowed rings re-declared at ring size, indices
            # wrapped with % window, per-step ring zeroing); the static
            # count analysis stays on the logical program, so native
            # counts match the closure path exactly.
            self._shared = load_shared_program(lower_windows(program),
                                               cache_dir=so_cache_dir)
            self._static = analyze_counts(program)
            self.counts_exact = self._static.exact
            self._native_table = self._shared.bind(self._buffers)
            self._init_fn = self._native_init
        else:
            self._init_fn = self._compile_body(program.init,
                                               self.counts.scalar)
            self._step_fn = self._compile_body(program.step,
                                               self.counts.scalar)
            rings = tuple(self._buffers[decl.name]
                          for decl in program.buffers.values()
                          if decl.window is not None)
            if rings:
                # A windowed ring must start every step holding the zeros
                # its never-written logical cells stand for (the native
                # backend emits the same zeroing inside the lowered step).
                # Wrapping _step_fn — not step() — keeps every stepping
                # path on the same semantics.
                inner_step = self._step_fn

                def step_with_ring_reset(env: dict) -> None:
                    for ring in rings:
                        ring[:] = 0
                    inner_step(env)
                self._step_fn = step_with_ring_reset
        self._initialized = False
        # Steps since the last reset: a native VM's counts are
        # init + this × step.
        self._steps_done = 0

    def _native_init(self, env: dict) -> None:
        self._shared.init(1, self._native_table)

    # -- public API --------------------------------------------------------

    @staticmethod
    def _fill(fills) -> None:
        """Set each ``(buffer, flat initial or None)`` pair's buffer to its
        declared initial value (zero when None)."""
        for buf, init in fills:
            if init is None:
                buf.fill(0)
            else:
                buf[:] = init

    def reset(self) -> None:
        """Restore every buffer to its declared initial value, zero counts.

        A native VM refills only its inputs and outputs here: its state
        and temps are reset by ``<name>_init`` on the next step.
        """
        self._fill(self._fills)
        self._initialized = False
        self._steps_done = 0
        self.counts.assign()

    def set_inputs(self, inputs: Mapping[str, np.ndarray]) -> None:
        for name, value in inputs.items():
            io = self._inputs.get(name)
            if io is None:
                raise SimulationError(f"{name!r} is not an input buffer")
            flat = np.asarray(value, dtype=io.dtype).ravel()
            if flat.size != io.size:
                raise SimulationError(f"input {name!r} expects {io.size} "
                                      f"elements, got {flat.size}")
            self._buffers[name][:] = flat

    def step(self) -> None:
        """Run init (once per reset) and one step of the program."""
        self._run_steps(1)

    def _run_steps(self, steps: int, prof=None) -> None:
        """Run init (once per reset), then ``steps`` steps.

        A native VM makes at most one ``<name>_init`` call and one
        ``<name>_step`` call of ``steps`` steps, then sets its counts once
        to ``init + k × step`` for the ``k`` steps since the last reset.
        ``prof``, an active :class:`~repro.obs.vmprofile.VMStageProfile`,
        records the init/step split.
        """
        if steps < 1:
            return
        t0 = time.perf_counter() if prof is not None else 0.0
        env: dict[str, int] = {}
        if not self._initialized:
            self._init_fn(env)
            self._initialized = True
        t1 = time.perf_counter() if prof is not None else 0.0
        if self._shared is None:
            step_fn = self._step_fn
            for _ in range(steps):
                step_fn(env)
        else:
            self._shared.step(1, steps, self._native_table)
            self._steps_done += steps
            self.counts.assign((1, self._static.init),
                               (self._steps_done, self._static.step))
        if prof is not None:
            prof.record(self.backend, init_seconds=t1 - t0,
                        step_seconds=time.perf_counter() - t1, steps=steps)

    def outputs(self) -> dict[str, np.ndarray]:
        return {name: view.copy() for name, view in self._output_views}

    def run(self, inputs: Mapping[str, np.ndarray], steps: int = 1) -> ExecResult:
        """Reset, apply inputs, execute ``steps`` steps, collect outputs.

        The returned counts are a snapshot: a later ``run()`` of the same
        (possibly :func:`cached_vm`-shared) VM resets and re-accumulates
        the live ``self.counts`` without disturbing earlier results.

        **Not reentrant.**  ``run()`` (and :meth:`run_batch`) resets and
        mutates the VM's shared buffers and live counters in place, so one
        VM instance must never execute on two threads at the same time —
        enforced: a second thread entering while a run is in flight gets a
        :class:`~repro.errors.SimulationError` instead of corrupt results.
        Concurrent executors (e.g. :mod:`repro.serve.pool` workers) get
        their safety from process isolation plus one-request-at-a-time
        workers, not from this method.
        """
        self._acquire_run_lock()
        try:
            # Both hooks are a single load-and-branch when idle: span()
            # returns a shared no-op unless a trace is active, and the
            # profiler check is one module-global read per run.
            with _tracing.span("vm.run", backend=self.backend,
                               program=self.program.name, steps=steps):
                self.reset()
                self.set_inputs(inputs)
                self._run_steps(steps, _vmprofile.active())
                return ExecResult(self.outputs(), self.counts.copy(),
                                  self._peak_bytes)
        finally:
            self._run_lock.release()

    def _acquire_run_lock(self) -> None:
        if not self._run_lock.acquire(blocking=False):
            raise SimulationError(
                f"VM for {self.program.name!r} is already executing on "
                "another thread; run()/run_batch() are not reentrant")

    # -- batched execution --------------------------------------------------

    def run_batch(self, inputs_list, steps: int = 1) -> BatchResult:
        """Evaluate ``len(inputs_list)`` independent instances in one call.

        ``inputs_list`` is a sequence of per-instance input mappings (an
        instance may omit inputs; omitted buffers keep their declared
        initial value, exactly as in :meth:`run`).  Each instance gets its
        own state/temp storage and runs ``steps`` steps from reset —
        semantically identical to B separate :meth:`run` calls, but
        amortized: the vector/auto backends execute a batch-expanded
        program whose kernels span instances
        (:mod:`repro.ir.batch`), and the native backend makes one
        ``<name>_init`` and one ``<name>_step`` call for the whole batch
        (``nb = B``, ``steps`` steps each).  Outputs are bit-for-bit equal
        to the sequential runs on every backend; aggregate counts equal
        their sum whenever ``counts_exact`` is True.

        An empty batch raises :class:`~repro.errors.SimulationError`
        (there is no meaningful zero-instance result); a batch of one
        delegates to :meth:`run`.  Like :meth:`run`, **not reentrant** —
        a concurrent call from another thread raises instead of
        corrupting shared buffers.
        """
        if isinstance(inputs_list, Mapping):
            raise SimulationError(
                "run_batch expects a sequence of per-instance input "
                "mappings, not a single mapping — wrap it in a list")
        try:
            instances = list(inputs_list)
        except TypeError:
            raise SimulationError(
                f"run_batch expects a sequence of input mappings, got "
                f"{type(inputs_list).__name__}") from None
        if not instances:
            raise SimulationError(
                "run_batch requires a non-empty batch (got 0 instances)")
        self._acquire_run_lock()
        try:
            with _tracing.span("vm.run_batch", backend=self.backend,
                               program=self.program.name, steps=steps,
                               batch=len(instances)):
                return self._run_batch_locked(instances, steps)
        finally:
            self._run_lock.release()

    def _run_batch_locked(self, instances: list, steps: int) -> BatchResult:
        validated = self._validate_batch_inputs(instances)
        peak = len(validated) * self._peak_bytes
        if len(validated) == 1:
            res = self.run(validated[0], steps=steps)
            return BatchResult([res.outputs], res.counts,
                               self.counts_exact, peak)
        if self.backend == "native":
            return self._run_batch_native(validated, steps, peak)
        if self.backend != "closure":
            # Fast path first: the trailing-batch-axis lift executes
            # the *single-instance* kernel schedule once over rows of
            # B instances (see _run_batch_lifted).  It self-verifies
            # on the first use of each batch size and permanently
            # falls back here on any mismatch or loud failure.
            companion = self._lifted_companion(len(validated))
            if companion is not None:
                result = self._run_batch_lifted(companion, validated,
                                                steps, peak)
                if result is not None:
                    return result
            entry = self._batch_companion(len(validated))
            if entry is not None:
                return self._run_batch_expanded(entry, validated,
                                                steps, peak)
        # Reference semantics: B sequential runs (closure backend, or
        # programs the exact batch transform refuses, e.g. CallStmt).
        results = [self.run(inst, steps=steps) for inst in validated]
        total = ContextCounts().assign(*((1, r.counts) for r in results))
        return BatchResult([r.outputs for r in results], total,
                           self.counts_exact, peak)

    def _validate_batch_inputs(self, instances) -> list[dict]:
        """Per-instance :meth:`set_inputs`-grade validation, with errors
        that name the offending instance (ragged batches fail typed)."""
        validated: list[dict] = []
        for b, inst in enumerate(instances):
            # dict first: the Mapping ABC check alone is slow per instance
            if not isinstance(inst, (dict, Mapping)):
                raise SimulationError(
                    f"batch instance {b}: expected a mapping of inputs, "
                    f"got {type(inst).__name__}")
            flat: dict = {}
            for name, value in inst.items():
                io = self._inputs.get(name)
                if io is None:
                    raise SimulationError(
                        f"batch instance {b}: {name!r} is not an input "
                        "buffer")
                arr = np.asarray(value, dtype=io.dtype).ravel()
                if arr.size != io.size:
                    raise SimulationError(
                        f"batch instance {b}: input {name!r} expects "
                        f"{io.size} elements, got {arr.size}")
                flat[name] = arr
            validated.append(flat)
        return validated

    _BATCH_VM_MEMO_MAX = 8
    _BATCH_NATIVE_MEMO_MAX = 4

    def _lifted_companion(self, batch: int):
        """Memoized batch-lifted companion VM (trailing batch axis of
        width ``batch``), or None when the program is not liftable."""
        vm = self._batch_lifted.pop(batch, None)
        if vm is not None:
            self._batch_lifted[batch] = vm  # most recently used
            return vm
        if self._lift_rejected:
            return None
        from repro.ir.batch import lift_reject
        if lift_reject(self.program) is not None:
            self._lift_rejected = True
            return None
        try:
            # self.program is already fused (or deliberately not); the
            # companion must execute it verbatim.
            vm = VirtualMachine(self.program, backend=self.backend,
                                _batch_lanes=batch, fuse=False)
        except SimulationError:
            self._lift_rejected = True
            return None
        self._batch_lifted[batch] = vm
        while len(self._batch_lifted) > self._BATCH_VM_MEMO_MAX:
            del self._batch_lifted[next(iter(self._batch_lifted))]
        return vm

    def _run_batch_lifted(self, vm, validated, steps, peak):
        """Run the batch on the lifted companion: the single-instance
        kernel/closure schedule executes once, every scalar a length-B
        row, so per-instance cost is amortized B ways.

        The first call for each batch size is *differentially verified*:
        the lifted pass and B sequential :meth:`run` calls both execute,
        outputs are compared bit-for-bit and aggregate counts exactly,
        and the (guaranteed-correct) sequential result is returned.  Any
        divergence or loud evaluator failure permanently disables lifting
        for this VM and the caller falls back to the exact batch-expanded
        or sequential strategies.  Returns None on failure.
        """
        batch = len(validated)
        try:
            vm.reset()
            for io in self._inputs.values():
                buf = vm._buffers[io.name]
                for b, inst in enumerate(validated):
                    if io.name in inst:
                        buf[:, b] = inst[io.name]
            vm._run_steps(steps)
            outputs = self._instance_outputs(
                {io.name: vm._buffers[io.name][:io.size].T.copy()
                 for io in self._outputs}, batch)
            counts = ContextCounts().assign((batch, vm.counts))
        except Exception:
            # Loud lifting failure (scalar coercion of a row, shape
            # mismatch, ...): never silently wrong, just unsupported.
            self._lift_rejected = True
            self._batch_lifted.clear()
            return None
        if batch in self._lift_verified:
            return BatchResult(outputs, counts, self.counts_exact, peak)
        refs = [self.run(inst, steps=steps) for inst in validated]
        ref_outputs = [r.outputs for r in refs]
        ref_counts = ContextCounts().assign(*((1, r.counts) for r in refs))
        agrees = counts == ref_counts
        for got, expected in zip(outputs, ref_outputs):
            if not agrees:
                break
            for name, arr in expected.items():
                ref = np.asarray(arr)
                if (got[name].shape != ref.shape
                        or got[name].tobytes() != ref.tobytes()):
                    agrees = False
                    break
        if agrees:
            self._lift_verified.add(batch)
        else:
            self._lift_rejected = True
            self._batch_lifted.clear()
        # Either way the sequential reference is in hand and exact.
        return BatchResult(ref_outputs, ref_counts, self.counts_exact, peak)

    def _batch_companion(self, batch: int):
        """Memoized (plan, companion VM) for this batch size, or None when
        the program cannot be batch-expanded exactly."""
        entry = self._batch_vms.pop(batch, None)
        if entry is not None:
            self._batch_vms[batch] = entry  # most recently used
            return entry
        if self._batch_unsupported:
            return None
        from repro.ir.batch import BatchUnsupported, expand_batch
        try:
            plan = expand_batch(self.program, batch)
        except BatchUnsupported:
            self._batch_unsupported = True
            return None
        # plan.program derives from the (possibly fused) self.program;
        # fusing again could merge across expanded batch entries, which
        # the count-skew arithmetic below does not model.
        entry = (plan, VirtualMachine(plan.program, backend=self.backend,
                                      fuse=False))
        self._batch_vms[batch] = entry
        while len(self._batch_vms) > self._BATCH_VM_MEMO_MAX:
            del self._batch_vms[next(iter(self._batch_vms))]
        return entry

    def _run_batch_expanded(self, entry, validated, steps, peak):
        """Vector/auto path: run the batch-expanded companion program and
        undo the transform's closed-form count skew (see
        :mod:`repro.ir.batch`)."""
        plan, companion = entry
        batch = plan.batch
        batch_inputs = {}
        for io in self._inputs.values():
            if io.init is not None:
                mat = np.tile(io.init, (batch, 1))
            else:
                mat = np.zeros((batch, io.size), dtype=io.dtype)
            for b, inst in enumerate(validated):
                if io.name in inst:
                    mat[b] = inst[io.name]
            batch_inputs[io.name] = mat
        res = companion.run(batch_inputs, steps=steps)
        counts = res.counts  # already a snapshot; safe to adjust in place
        for bucket in (counts.scalar, counts.vector, counts.forced):
            # Every executed load/store gained exactly one int mul and one
            # int add (the `idx + __b*stride` rewrite), in its own bucket.
            bucket.int_ops -= 2 * (bucket.loads + bucket.stores)
        n_wrap = plan.wrapped_init + steps * plan.wrapped_step
        counts.scalar.loops_entered -= n_wrap
        counts.scalar.loop_iters -= n_wrap * batch
        outputs = []
        for b in range(batch):
            outputs.append({name: np.array(arr[b])
                            for name, arr in res.outputs.items()})
        return BatchResult(outputs, counts, self.counts_exact, peak)

    def _run_batch_native(self, validated, steps, peak):
        """Native path: one ``<name>_init`` and one ``<name>_step`` call of
        ``steps`` steps, with ``nb = B`` over arrays-of-instances; counts
        are the static per-instance analysis scaled ×B."""
        from repro.codegen.ctext import abi_buffers
        batch = len(validated)
        entry = self._batch_native.pop(batch, None)
        if entry is None:
            arrays = {decl.name: np.zeros(batch * max(decl.storage_size, 1),
                                          dtype=decl.dtype)
                      for decl in abi_buffers(self.program)}
            entry = (arrays, self._shared.bind(arrays, batch))
        self._batch_native[batch] = entry
        while len(self._batch_native) > self._BATCH_NATIVE_MEMO_MAX:
            del self._batch_native[next(iter(self._batch_native))]
        arrays, table = entry
        # _init resets every instance's state/temp; inputs and outputs are
        # reset here, matching run()'s reset-to-declared-initial semantics.
        rows = {io.name: arrays[io.name].reshape(batch, -1) for io in self._io}
        for io in self._io:
            view = rows[io.name]
            if io.init is None:
                view.fill(0)
            else:
                view[:, :io.size] = io.init
            if io.kind == "input":
                for b, inst in enumerate(validated):
                    if io.name in inst:
                        view[b, :io.size] = inst[io.name]
        self._shared.init(batch, table)
        self._shared.step(batch, steps, table)
        counts = ContextCounts().assign((batch, self._static.init),
                                        (batch * steps, self._static.step))
        outputs = self._instance_outputs(
            {io.name: rows[io.name][:, :io.size].copy()
             for io in self._outputs}, batch)
        return BatchResult(outputs, counts, self.counts_exact, peak)

    def _instance_outputs(self, blocks: dict[str, np.ndarray],
                          batch: int) -> list[dict[str, np.ndarray]]:
        """Per-instance output dicts from one ``(B, size)`` block per
        output, copied once: instance ``b`` gets row ``b`` of each block,
        a view in its output shape."""
        names = [io.name for io in self._outputs]
        columns = []
        for io in self._outputs:
            block = blocks[io.name].reshape((batch,) + io.shape)
            # Iterating yields row views; 0-d rows need ``[b, ...]`` to
            # stay arrays rather than numpy scalars.
            columns.append(list(block) if io.shape
                           else [block[b, ...] for b in range(batch)])
        if not columns:
            return [{} for _ in range(batch)]
        return [dict(zip(names, row)) for row in zip(*columns)]

    # -- compilation --------------------------------------------------------

    def _compile_body(self, stmts: list[Stmt], bucket: OpCounts,
                      var_bounds: dict | None = None) -> Callable[[dict], None]:
        fns = [self._compile_stmt(s, bucket, var_bounds)
               for s in stmts if not isinstance(s, Comment)]
        if len(fns) == 1:
            return fns[0]

        def body(env: dict) -> None:
            for fn in fns:
                fn(env)
        return body

    def _compile_stmt(self, stmt: Stmt, bucket: OpCounts,
                      var_bounds: dict | None = None) -> Callable[[dict], None]:
        # var_bounds maps every in-scope integer variable to an inclusive
        # (lo, hi) range, or None when unknown — consumed by the vector
        # backend's overflow/bounds analysis.
        if var_bounds is None:
            var_bounds = {}
        if isinstance(stmt, Assign):
            return self._compile_assign(stmt, bucket)
        if isinstance(stmt, For):
            if self.backend != "closure" and stmt.static_bounds:
                from repro.ir.vectorize import try_vectorize
                kernel = try_vectorize(self, stmt, var_bounds)
                if kernel is not None:
                    return kernel
            if stmt.forced_simd:
                child_bucket = self.counts.forced
            elif stmt.vectorizable:
                child_bucket = self.counts.vector
            else:
                child_bucket = self.counts.scalar
            name = stmt.var
            if stmt.static_bounds:
                inner = dict(var_bounds)
                inner[name] = (stmt.start, max(stmt.start, stmt.stop - 1))
                body = self._compile_body(stmt.body, child_bucket, inner)
                ranges = stmt.iter_ranges()
                if len(ranges) > 1:
                    # Fused multi-segment loop: one entry + one trip of
                    # iters per segment, so counts equal the original
                    # range-split loops exactly.
                    seg_ranges = [range(a, b) for a, b in ranges]

                    def run_seg_for(env: dict) -> None:
                        for r in seg_ranges:
                            child_bucket.loops_entered += 1
                            child_bucket.loop_iters += len(r)
                            for i in r:
                                env[name] = i
                                body(env)
                    return run_seg_for
                trip = max(stmt.stop - stmt.start, 0)
                loop_range = range(stmt.start, stmt.stop)

                def run_for(env: dict) -> None:
                    child_bucket.loops_entered += 1
                    child_bucket.loop_iters += trip
                    for i in loop_range:
                        env[name] = i
                        body(env)
                return run_for

            inner = dict(var_bounds)
            inner[name] = None
            body = self._compile_body(stmt.body, child_bucket, inner)
            start_fn = (lambda env, v=stmt.start: v) if isinstance(
                stmt.start, int) else self._compile_expr(stmt.start, bucket)
            stop_fn = (lambda env, v=stmt.stop: v) if isinstance(
                stmt.stop, int) else self._compile_expr(stmt.stop, bucket)

            def run_dyn_for(env: dict) -> None:
                start, stop = int(start_fn(env)), int(stop_fn(env))
                child_bucket.loops_entered += 1
                child_bucket.loop_iters += max(stop - start, 0)
                for i in range(start, stop):
                    env[name] = i
                    body(env)
            return run_dyn_for
        if isinstance(stmt, CallStmt):
            return self._compile_call(stmt, bucket, var_bounds)
        if isinstance(stmt, If):
            cond = self._compile_expr(stmt.cond, bucket)
            then = self._compile_body(stmt.then, bucket, var_bounds)
            orelse = self._compile_body(stmt.orelse, bucket, var_bounds)

            def run_if(env: dict) -> None:
                bucket.branches += 1
                if cond(env):
                    then(env)
                else:
                    orelse(env)
            return run_if
        raise SimulationError(f"cannot compile statement {stmt!r}")

    def _compile_call(self, stmt: CallStmt, bucket: OpCounts,
                      var_bounds: dict | None = None) -> Callable[[dict], None]:
        """Specialize and compile a generic-function invocation.

        The function body is rewritten with this call's buffer bindings
        (memoized per binding) and compiled once; scalar parameters are
        passed through the environment like loop variables.
        """
        try:
            func: FuncDef = self.program.functions[stmt.func]
        except KeyError:
            raise SimulationError(
                f"call to undefined function {stmt.func!r}"
            ) from None
        pointer_params = func.pointer_params
        scalar_params = func.scalar_params
        if len(stmt.buffer_args) != len(pointer_params):
            raise SimulationError(
                f"{stmt.func!r} expects {len(pointer_params)} buffer args, "
                f"got {len(stmt.buffer_args)}"
            )
        if len(stmt.scalar_args) != len(scalar_params):
            raise SimulationError(
                f"{stmt.func!r} expects {len(scalar_params)} scalar args, "
                f"got {len(stmt.scalar_args)}"
            )
        mapping = {p.name: actual
                   for p, actual in zip(pointer_params, stmt.buffer_args)}
        key = (stmt.func, tuple(stmt.buffer_args))
        if key not in self._specialized:
            body = substitute_buffers(func.body, mapping)
            scope = dict(var_bounds or {})
            for p in scalar_params:
                scope[p.name] = None
            self._specialized[key] = self._compile_body(body, bucket, scope)
        body_fn = self._specialized[key]
        arg_fns = [self._compile_expr(a, bucket) for a in stmt.scalar_args]
        names = [p.name for p in scalar_params]

        def run_call_stmt(env: dict) -> None:
            bucket.calls += 1
            for param_name, fn in zip(names, arg_fns):
                env[param_name] = int(fn(env))
            body_fn(env)
        return run_call_stmt

    def _compile_assign(self, stmt: Assign,
                        bucket: OpCounts) -> Callable[[dict], None]:
        try:
            buffer = self._buffers[stmt.buffer]
            decl = self.program.buffers[stmt.buffer]
        except KeyError:
            raise SimulationError(
                f"assignment to undeclared buffer {stmt.buffer!r}"
            ) from None
        index = self._compile_expr(stmt.index, bucket)
        value = self._compile_expr(stmt.value, bucket)
        if decl.window is not None:
            # Sliding-window ring: land the logical index on its physical
            # cell.  Wrapped outside the counted expression evaluation so
            # element-op counts stay those of the logical program.
            index = _wrap_ring_index(index, decl.window)
        if decl.dtype == "uint32":
            def run_assign_u32(env: dict) -> None:
                bucket.stores += 1
                buffer[index(env)] = int(value(env)) & _UINT32_MASK
            return run_assign_u32

        def run_assign(env: dict) -> None:
            bucket.stores += 1
            buffer[index(env)] = value(env)
        return run_assign

    def _compile_expr(self, expr: Expr,
                      bucket: OpCounts) -> Callable[[dict], object]:
        if isinstance(expr, Const):
            val = expr.value
            return lambda env: val
        if isinstance(expr, Var):
            name = expr.name
            return lambda env: env[name]
        if isinstance(expr, Load):
            try:
                buffer = self._buffers[expr.buffer]
            except KeyError:
                raise SimulationError(
                    f"load from undeclared buffer {expr.buffer!r}"
                ) from None
            index = self._compile_expr(expr.index, bucket)
            decl = self.program.buffers[expr.buffer]
            if decl.window is not None:
                index = _wrap_ring_index(index, decl.window)
            dtype = decl.dtype
            if dtype in ("uint32", "int64"):
                def run_load_int(env: dict) -> object:
                    bucket.loads += 1
                    return int(buffer[index(env)])
                return run_load_int
            if self._batch_lanes:
                # Lifted mode: a scalar load is a length-B row.  Skipping
                # .item() lets every downstream float operation broadcast
                # over the batch axis; anything that genuinely needs a
                # Python scalar (branch conditions, int coercion) raises
                # loudly and run_batch falls back to the exact paths.
                def run_load_row(env: dict) -> object:
                    bucket.loads += 1
                    return buffer[index(env)]
                return run_load_row

            def run_load(env: dict) -> object:
                bucket.loads += 1
                return buffer[index(env)].item()
            return run_load
        if isinstance(expr, BinOp):
            return self._compile_binop(expr, bucket)
        if isinstance(expr, UnOp):
            operand = self._compile_expr(expr.operand, bucket)
            op = expr.op
            if op == "-":
                def run_neg(env: dict) -> object:
                    bucket.flops += 1
                    return -operand(env)
                return run_neg
            if op == "!":
                def run_not(env: dict) -> object:
                    bucket.cmp_ops += 1
                    return not operand(env)
                return run_not
            if op == "~":
                def run_inv(env: dict) -> object:
                    bucket.int_ops += 1
                    return (~int(operand(env))) & _UINT32_MASK
                return run_inv
            raise SimulationError(f"unknown unary op {op!r}")
        if isinstance(expr, Call):
            try:
                func = _MATH_FUNCS[expr.func]
            except KeyError:
                raise SimulationError(f"unknown call {expr.func!r}") from None
            args = [self._compile_expr(a, bucket) for a in expr.args]
            if len(args) == 1:
                arg0 = args[0]

                def run_call1(env: dict) -> object:
                    bucket.calls += 1
                    return func(arg0(env))
                return run_call1

            def run_call(env: dict) -> object:
                bucket.calls += 1
                return func(*(a(env) for a in args))
            return run_call
        if isinstance(expr, Select):
            cond = self._compile_expr(expr.cond, bucket)
            if_true = self._compile_expr(expr.if_true, bucket)
            if_false = self._compile_expr(expr.if_false, bucket)

            def run_select(env: dict) -> object:
                bucket.branches += 1
                return if_true(env) if cond(env) else if_false(env)
            return run_select
        raise SimulationError(f"cannot compile expression {expr!r}")

    def _compile_binop(self, expr: BinOp,
                       bucket: OpCounts) -> Callable[[dict], object]:
        lhs = self._compile_expr(expr.lhs, bucket)
        rhs = self._compile_expr(expr.rhs, bucket)
        op = expr.op
        if op in _ARITH_OPS:
            py = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b if (
                    isinstance(a, int) and isinstance(b, int)) else a / b,
                "%": lambda a, b: a % b,
            }[op]

            def run_arith(env: dict) -> object:
                a, b = lhs(env), rhs(env)
                if isinstance(a, int) and isinstance(b, int):
                    bucket.int_ops += 1
                else:
                    bucket.flops += 1
                return py(a, b)
            return run_arith
        if op in _INT_OPS:
            py = {
                "&": lambda a, b: a & b,
                "|": lambda a, b: a | b,
                "^": lambda a, b: a ^ b,
                "<<": lambda a, b: (a << b) & _UINT32_MASK,
                ">>": lambda a, b: a >> b,
            }[op]

            def run_int(env: dict) -> object:
                bucket.int_ops += 1
                return py(int(lhs(env)), int(rhs(env)))
            return run_int
        if op in _CMP_OPS:
            py = {
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
                "==": lambda a, b: a == b,
                "!=": lambda a, b: a != b,
                "&&": lambda a, b: bool(a) and bool(b),
                "||": lambda a, b: bool(a) or bool(b),
            }[op]

            def run_cmp(env: dict) -> object:
                bucket.cmp_ops += 1
                return py(lhs(env), rhs(env))
            return run_cmp
        raise SimulationError(f"unknown binary op {op!r}")


# -- program cache -------------------------------------------------------------

# Keyed by (content fingerprint, backend, .so store, fuse): repeated run()s of
# structurally identical generated programs (the common shape in eval/runner
# and the benchmark suites) skip closure/kernel recompilation entirely.
#
# The dict itself is guarded by _VM_CACHE_LOCK, so lookups, insertions and
# evictions are safe from any thread (the serve layer's dispatcher threads
# all funnel through here).  The lock does NOT make the cached VMs
# themselves concurrent: a VirtualMachine accumulates counts and mutates
# its buffers in place, so a shared VM must never have run()/step() active
# on two threads at once.  The serve worker pool relies on exactly this
# contract — each worker process owns a private cache and executes one
# request at a time.
_VM_CACHE: dict[tuple, VirtualMachine] = {}
_VM_CACHE_MAX = 64
_VM_CACHE_LOCK = threading.Lock()
_VM_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _store_token(so_cache_dir):
    """The VM-cache key part for a ``.so`` store: a path by its text, a
    store object by identity."""
    if isinstance(so_cache_dir, (str, os.PathLike)):
        return os.fspath(so_cache_dir)
    return so_cache_dir


# -- adaptive promotion overlay ------------------------------------------------
#
# ``backend="auto"`` consults this map before resolving: a fingerprint
# that has been *promoted* (its ``.so`` was built off the request path by
# a background compile, see repro.serve.adaptive) is served by a native
# VM instead of the vector one.  A fingerprint that has been *demoted*
# (toolchain failure) never retries — the vector path is the permanent
# fallback.  Keys are program fingerprints (a fused program fingerprints
# apart from its unfused original); the stored value remembers which
# ``.so`` store the promotion was built against.
_PROMOTIONS: dict[str, dict] = {}
_DEMOTIONS: set[str] = set()


def _forget_after_fork() -> None:
    """Start a forked child (a serve pool worker) with a fresh lock, an
    empty VM cache and no promotion state, as a spawned one would.

    A child inherits the parent's cache and counters, so its first run
    would report a VM-cache hit it never earned, and it inherits
    ``_VM_CACHE_LOCK`` in whatever state the parent held it: a lock held
    by another parent thread at fork time stays held in the child.
    """
    global _VM_CACHE_LOCK
    _VM_CACHE_LOCK = threading.Lock()
    _VM_CACHE.clear()
    _VM_CACHE_STATS.update(hits=0, misses=0, evictions=0)
    _PROMOTIONS.clear()
    _DEMOTIONS.clear()


os.register_at_fork(after_in_child=_forget_after_fork)


def set_vm_cache_limit(limit: int) -> int:
    """Bound the warm VM cache at ``limit`` entries (LRU evicted beyond).

    Returns the previous limit.  Serve workers call this at startup so
    diverse-corpus traffic cannot grow a worker's cache without bound;
    shrinking the limit evicts immediately.
    """
    global _VM_CACHE_MAX
    if limit < 1:
        raise ValueError(f"vm cache limit must be >= 1, got {limit}")
    with _VM_CACHE_LOCK:
        previous, _VM_CACHE_MAX = _VM_CACHE_MAX, int(limit)
        while len(_VM_CACHE) > _VM_CACHE_MAX:
            del _VM_CACHE[next(iter(_VM_CACHE))]
            _VM_CACHE_STATS["evictions"] += 1
    return previous


def vm_cache_limit() -> int:
    return _VM_CACHE_MAX


def promote_fingerprint(fp: str, so_cache_dir=None) -> bool:
    """Route future ``backend="auto"`` resolutions of ``fp`` to native.

    Call only after the ``.so`` exists (the promotion contract: requests
    never block on gcc).  Returns False when the fingerprint was already
    demoted — demotion is permanent and wins.
    """
    with _VM_CACHE_LOCK:
        if fp in _DEMOTIONS:
            return False
        _PROMOTIONS[fp] = {"so_cache_dir": so_cache_dir}
    return True


def demote_fingerprint(fp: str) -> None:
    """Permanently pin ``fp`` to the vector path under ``backend="auto"``.

    Used when the native toolchain failed for this program — promotion
    will not be retried (a broken build would fail identically), and the
    vector VM remains the always-available fallback.
    """
    with _VM_CACHE_LOCK:
        _PROMOTIONS.pop(fp, None)
        _DEMOTIONS.add(fp)


def promotion_state(fp: str) -> str:
    """``"promoted"``, ``"demoted"`` or ``"none"`` for one fingerprint."""
    with _VM_CACHE_LOCK:
        if fp in _DEMOTIONS:
            return "demoted"
        return "promoted" if fp in _PROMOTIONS else "none"


def clear_promotions() -> None:
    """Drop all promotion/demotion state (tests)."""
    with _VM_CACHE_LOCK:
        _PROMOTIONS.clear()
        _DEMOTIONS.clear()


def install_cached_vm(program: Program, vm: VirtualMachine,
                      so_cache_dir=None) -> None:
    """Insert a pre-built VM into the warm cache (the promotion swap).

    ``program`` must be the program ``vm`` was built from — the cache
    keys on its fingerprint and on ``vm.fuse`` exactly as
    :func:`cached_vm` would, so the next ``cached_vm`` call with the same
    program and ``fuse`` returns ``vm`` without building anything.  The
    serve layer builds from a stored (already fused) program with
    ``fuse=False``.  The insert is atomic under the cache lock; an
    existing entry is replaced.
    """
    from repro.ir.vectorize import fingerprint
    fp = fingerprint(program)
    key = (fp, vm.backend, _store_token(so_cache_dir), vm.fuse)
    with _VM_CACHE_LOCK:
        _VM_CACHE.pop(key, None)
        _VM_CACHE[key] = vm
        while len(_VM_CACHE) > _VM_CACHE_MAX:
            del _VM_CACHE[next(iter(_VM_CACHE))]
            _VM_CACHE_STATS["evictions"] += 1


def _lookup_or_build(program: Program, fp: str, backend: str,
                     so_cache_dir, fuse: bool) -> VirtualMachine:
    """The cache transaction shared by both ``cached_vm`` paths."""
    key = (fp, backend, _store_token(so_cache_dir), bool(fuse))
    with _VM_CACHE_LOCK:
        vm = _VM_CACHE.pop(key, None)
        if vm is not None:
            _VM_CACHE_STATS["hits"] += 1
            _VM_CACHE[key] = vm  # re-insert as most recently used
            return vm
        _VM_CACHE_STATS["misses"] += 1
    # Compile outside the lock — construction can take seconds on big
    # programs and must not serialize unrelated lookups.  Two threads
    # racing on the same key may both compile; the second insert wins,
    # which is harmless (both VMs are valid, one is dropped).
    vm = VirtualMachine(program, backend=backend, so_cache_dir=so_cache_dir,
                        fuse=fuse)
    with _VM_CACHE_LOCK:
        _VM_CACHE[key] = vm
        while len(_VM_CACHE) > _VM_CACHE_MAX:
            del _VM_CACHE[next(iter(_VM_CACHE))]
            _VM_CACHE_STATS["evictions"] += 1
    return vm


def cached_vm(program: Program, backend: str = "auto",
              so_cache_dir=None, fuse: bool = True) -> VirtualMachine:
    """Return a (possibly shared) VM for ``program``, LRU-cached by content.

    The cache key is a stable hash of the full IR (buffer declarations with
    initial data, functions, init and step bodies), so two independently
    generated but identical programs share one compiled VM.  Callers are
    expected to use :meth:`VirtualMachine.run`, which resets all state.
    ``so_cache_dir`` (native backend only) is part of the key — VMs bound
    to different ``.so`` stores are never conflated.  ``fuse`` is part of
    the key too: a ``fuse=False`` caller can never receive a VM whose
    program was rewritten by the fusion pass, and vice versa.  A caller
    holding an already-fused program (a served artifact) passes
    ``fuse=False`` and runs it as it is.

    Thread-safety: the cache bookkeeping is locked, so concurrent callers
    never corrupt the LRU dict — but two callers asking for the same
    program receive the *same* VM object, and
    :meth:`VirtualMachine.run` is not reentrant (it resets shared buffers
    and mutates live counts).  Callers that may execute concurrently must
    either serialize their run() calls or construct private
    :class:`VirtualMachine` instances.

    **Adaptive auto.**  With ``backend="auto"``, a fingerprint promoted
    via :func:`promote_fingerprint` resolves to a native VM bound to the
    promotion's ``.so`` store instead (built with the caller's ``fuse``)
    — normally a pure cache hit (the promoting compile pre-installs the
    VM via :func:`install_cached_vm`);
    after an eviction the rebuild dlopens the already-built ``.so``
    without invoking the compiler.  If native resolution fails anyway
    (toolchain revoked, store deleted), the fingerprint is demoted and
    the call falls back to the plain vector path — adaptive ``auto``
    never propagates :class:`~repro.errors.NativeToolchainError`.
    """
    from repro.ir.vectorize import fingerprint
    fp = fingerprint(program)  # pure and slow-ish: compute outside the lock
    if backend == "auto":
        with _VM_CACHE_LOCK:
            promo = None if fp in _DEMOTIONS else _PROMOTIONS.get(fp)
        if promo is not None:
            from repro.errors import NativeToolchainError
            try:
                return _lookup_or_build(program, fp, "native",
                                        promo["so_cache_dir"], bool(fuse))
            except NativeToolchainError:
                demote_fingerprint(fp)
    return _lookup_or_build(program, fp, backend, so_cache_dir, bool(fuse))


def clear_vm_cache() -> None:
    """Drop every cached VM (hit/miss counters keep accumulating)."""
    with _VM_CACHE_LOCK:
        _VM_CACHE.clear()


def vm_cache_stats() -> dict[str, int]:
    """Monotonic hit/miss/eviction counters plus the current entry count."""
    with _VM_CACHE_LOCK:
        return {**_VM_CACHE_STATS, "entries": len(_VM_CACHE)}


def execute(program: Program, inputs: Mapping[str, np.ndarray],
            steps: int = 1, backend: str = "auto",
            so_cache_dir=None, batch=None,
            fuse: bool = True) -> "ExecResult | BatchResult":
    """One-shot convenience: build a VM, run, return outputs and counts.

    ``batch`` turns the call into :meth:`VirtualMachine.run_batch`:

    * an ``int`` B replicates ``inputs`` across B instances (useful for
      benchmarking — all instances compute the same thing);
    * a sequence of per-instance input mappings runs one instance each
      (``inputs`` is ignored and should be ``None``).

    With ``batch`` set the return value is a :class:`BatchResult`.
    """
    vm = VirtualMachine(program, backend=backend, so_cache_dir=so_cache_dir,
                        fuse=fuse)
    if batch is None:
        return vm.run(inputs, steps)
    if isinstance(batch, bool):
        raise SimulationError(f"batch must be an int or a sequence of "
                              f"input mappings, got {batch!r}")
    if isinstance(batch, int):
        if batch < 1:
            raise SimulationError(
                f"batch must be >= 1, got {batch}")
        return vm.run_batch([inputs] * batch, steps=steps)
    return vm.run_batch(batch, steps=steps)

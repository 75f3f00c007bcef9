"""Per-block execution profiling of generated programs.

Attributes the VM's dynamic op counts to individual blocks using the
block-boundary comments the generators emit, and prices each block's
bucketed counts under a compiler/architecture profile — answering "where
does this model's time go, and which blocks did FRODO actually shrink?".

Exposed on the CLI as ``frodo profile <model>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen import make_generator
from repro.eval.report import format_table
from repro.ir.cost import Profile, get_profile
from repro.ir.interp import ContextCounts, VirtualMachine
from repro.ir.ops import Comment, Stmt
from repro.model.graph import Model
from repro.sim.simulator import random_inputs


@dataclass
class BlockProfile:
    """Counts attributed to one block (or pseudo-segment)."""

    label: str
    counts: ContextCounts

    def nanoseconds(self, profile: Profile) -> float:
        return profile.modeled_time_ns(self.counts)

    @property
    def total_ops(self) -> int:
        return self.counts.total.total_element_ops


def _segments(stmts: list[Stmt]) -> list[tuple[str, list[Stmt]]]:
    """Group top-level statements by the preceding block comment."""
    segments: list[tuple[str, list[Stmt]]] = []
    label = "(prelude)"
    current: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Comment):
            if current:
                segments.append((label, current))
                current = []
            # Comments look like "Convolution conv range=[5, 54]" or
            # "state update name"; use the block name as the label.
            tokens = stmt.text.split()
            if tokens[:2] == ["state", "update"]:
                label = f"{tokens[2]} (state)"
            else:
                label = tokens[1] if len(tokens) > 1 else stmt.text
        else:
            current.append(stmt)
    if current:
        segments.append((label, current))
    return segments


def profile_program(code, inputs, steps: int = 1,
                    backend: str = "auto") -> list[BlockProfile]:
    """Execute a generated program attributing counts per block.

    Segments are compiled through the normal backend path, so vectorized
    kernels report the same per-block counts as the closure interpreter.
    Attribution needs the program *as generated* — execution-time loop
    fusion merges nests across the block-comment boundaries this profile
    keys on — so the VM is pinned to ``fuse=False``.
    """
    vm = VirtualMachine(code.program, backend=backend, fuse=False)
    vm.reset()
    vm.set_inputs(code.map_inputs(dict(inputs)))
    compiled = [
        (label, vm._compile_body(stmts, vm.counts.scalar))
        for label, stmts in _segments(code.program.step)
    ]
    totals: dict[str, ContextCounts] = {}
    env: dict[str, int] = {}
    vm._init_fn(env)
    for _ in range(steps):
        for label, fn in compiled:
            before = vm.counts.copy()
            fn(env)
            delta = ContextCounts().assign((1, vm.counts), (-1, before))
            if label in totals:
                totals[label].assign((1, totals[label]), (1, delta))
            else:
                totals[label] = delta
    return sorted((BlockProfile(label, counts)
                   for label, counts in totals.items()),
                  key=lambda bp: -bp.total_ops)


def render_profile(model: Model, generator: str = "frodo",
                   profile_name: str = "x86-gcc", steps: int = 1,
                   seed: int = 0, top: int = 20,
                   backend: str = "auto") -> str:
    """Generate, execute, and render a per-block cost table."""
    prof = get_profile(profile_name)
    code = make_generator(generator).generate(model)
    inputs = random_inputs(model, seed=seed)
    blocks = profile_program(code, inputs, steps=steps, backend=backend)
    total_ns = sum(bp.nanoseconds(prof) for bp in blocks) or 1.0
    rows = []
    for bp in blocks[:top]:
        ns = bp.nanoseconds(prof)
        rows.append([bp.label, bp.total_ops, f"{ns:,.0f}",
                     f"{100 * ns / total_ns:.1f}%"])
    if len(blocks) > top:
        rest_ns = sum(bp.nanoseconds(prof) for bp in blocks[top:])
        rows.append([f"({len(blocks) - top} more)", "", f"{rest_ns:,.0f}",
                     f"{100 * rest_ns / total_ns:.1f}%"])
    return format_table(
        ["block", "element ops", f"ns ({profile_name})", "share"], rows,
        title=f"{model.name} / {generator}: per-block cost "
              f"({steps} step(s))")

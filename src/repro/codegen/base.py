"""Shared code-generation driver.

All four generators (FRODO, Simulink Embedded Coder, DFSynth, HCG) share
the same skeleton — flatten/analyze, declare one buffer per block, lower
blocks in topological order, append state updates — and differ in exactly
two knobs:

* the **range policy**: FRODO lowers each block over its determined
  calculation range (and skips fully-dead blocks); the baselines lower
  every block over its full range;
* the **style options** (:class:`~repro.ir.build.StyleOptions`): boundary
  judgments (Embedded Coder), branch structuring (DFSynth, FRODO), and
  forced SIMD (HCG).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.blocks import spec_for
from repro.core.analysis import AnalyzedModel, analyze
from repro.core.ranges import RangeResult, determine_ranges, full_ranges
from repro.errors import CodegenError
from repro.ir.build import EmitCtx, StyleOptions
from repro.ir.ops import Comment, Program
from repro.model.graph import Model

_IDENT = re.compile(r"[^0-9a-zA-Z_]+")


def sanitize(name: str) -> str:
    """Turn an arbitrary block/model name into a C identifier stem."""
    stem = _IDENT.sub("_", name).strip("_")
    if not stem:
        stem = "blk"
    if stem[0].isdigit():
        stem = "_" + stem
    return stem


@dataclass
class GeneratedCode:
    """The result of generating code for one model."""

    program: Program
    analyzed: AnalyzedModel
    ranges: RangeResult
    #: Inport block name -> program input buffer name.
    input_buffers: dict[str, str] = field(default_factory=dict)
    #: Outport block name -> program output buffer name.
    output_buffers: dict[str, str] = field(default_factory=dict)

    @property
    def generator(self) -> str:
        return self.program.generator

    def map_inputs(self, named: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Translate Inport-name-keyed inputs to buffer-keyed inputs."""
        mapped: dict[str, np.ndarray] = {}
        for name, value in named.items():
            if name not in self.input_buffers:
                known = ", ".join(sorted(self.input_buffers))
                raise CodegenError(f"unknown inport {name!r}; known: {known}")
            mapped[self.input_buffers[name]] = value
        return mapped

    def map_outputs(self, buffers: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Translate buffer-keyed outputs back to Outport names."""
        return {name: buffers[buf] for name, buf in self.output_buffers.items()}


class CodeGenerator:
    """Base class: subclasses set ``name``, ``style`` and a range policy."""

    name = "base"
    range_policy = "full"  # "full" | "frodo" | "direct"
    #: Run the elementwise loop-fusion pass (expression folding) after
    #: lowering.  Off by default so generator comparisons stay calibrated.
    fuse_elementwise = False
    #: Optional translation-order strategy (see repro.core.schedule);
    #: None keeps the analysis default (lexicographic).
    schedule_strategy: str | None = None
    #: Liveness-based temp-buffer sharing (Embedded Coder's "variable
    #: reuse").  Off by default so the §5 memory comparison stays a
    #: like-for-like buffer census.
    reuse_buffers = False
    #: Evaluate blocks whose inputs are all compile-time constants at
    #: generation time (expression folding at model level).  Off by
    #: default to keep generator comparisons calibrated.
    fold_constants = False

    def make_style(self) -> StyleOptions:
        return StyleOptions()

    def compute_ranges(self, analyzed: AnalyzedModel) -> RangeResult:
        if self.range_policy == "frodo":
            return determine_ranges(analyzed)
        if self.range_policy == "direct":
            return determine_ranges(analyzed, direct_only=True)
        return full_ranges(analyzed)

    # -- driver -------------------------------------------------------------

    def generate(self, model: Model) -> GeneratedCode:
        analyzed = analyze(model)
        if self.schedule_strategy is not None:
            from repro.core.schedule import reschedule
            analyzed = reschedule(analyzed, self.schedule_strategy)
        ranges = self.compute_ranges(analyzed)
        program = Program(sanitize(model.name), generator=self.name)
        style = self.make_style()

        folded = self._fold_constants(analyzed) if self.fold_constants else {}
        buffer_names = self._declare_buffers(program, analyzed, ranges, folded)
        generated = GeneratedCode(program, analyzed, ranges)
        for block in analyzed.inports:
            generated.input_buffers[block.name] = buffer_names[block.name]
        for block in analyzed.outports:
            generated.output_buffers[block.name] = buffer_names[block.name]

        contexts: dict[str, EmitCtx] = {}
        for name in analyzed.schedule:
            block = analyzed.block(name)
            spec = spec_for(block)
            if block.block_type in ("Inport", "Constant", "Terminator"):
                continue
            if name in folded:
                program.notes[name] = "folded to a compile-time constant"
                continue
            out_range = ranges.output_range[name]
            if out_range.is_empty:
                program.notes[name] = "eliminated (empty calculation range)"
                continue
            sig = analyzed.signal_of(name)
            ctx = EmitCtx(
                program=program,
                block_name=name,
                inputs=[buffer_names[src] for src, _ in analyzed.drivers[name]],
                in_shapes=[s.shape for s in analyzed.input_signals(name)],
                in_dtypes=[s.dtype for s in analyzed.input_signals(name)],
                output=buffer_names[name],
                out_shape=sig.shape,
                out_dtype=sig.dtype,
                out_range=out_range,
                style=style,
            )
            contexts[name] = ctx
            program.step.append(Comment(
                f"{block.block_type} {name} range={out_range.describe()}"
            ))
            spec.emit(block, ctx)

        for name in analyzed.schedule:
            block = analyzed.block(name)
            if spec_for(block).is_stateful and name in contexts:
                program.step.append(Comment(f"state update {name}"))
                spec_for(block).emit_update(block, contexts[name])

        if self.fuse_elementwise:
            # No buffer contraction: the variant's static-memory stats
            # keep describing the program as generated.
            from repro.ir.fuse import fuse_step_inplace
            fused = fuse_step_inplace(program, contract=False).nests_fused
            if fused:
                program.notes["__fusion__"] = f"{fused} loop pair(s) fused"
        if self.reuse_buffers:
            from repro.codegen.bufreuse import reuse_buffers
            reuse_buffers(program)
        return generated

    def _fold_constants(self, analyzed: AnalyzedModel) -> dict[str, np.ndarray]:
        """Blocks computable at generation time (all inputs constant)."""
        values: dict[str, np.ndarray] = {}
        folded: dict[str, np.ndarray] = {}
        for name in analyzed.schedule:
            block = analyzed.block(name)
            spec = spec_for(block)
            if block.block_type == "Constant":
                values[name] = np.asarray(block.require_param("value"))
                continue
            if (spec.is_source or spec.is_sink or spec.is_stateful
                    or not analyzed.drivers[name]):
                continue
            if all(src in values for src, _ in analyzed.drivers[name]):
                sig = analyzed.signal_of(name)
                inputs = [values[src].reshape(
                    analyzed.signal_of(src).shape
                    if analyzed.signal_of(src).shape else ())
                    for src, _ in analyzed.drivers[name]]
                result = np.asarray(spec.step(block, inputs, {}),
                                    dtype=sig.dtype)
                values[name] = result
                folded[name] = result
        return folded

    # -- buffers ---------------------------------------------------------------

    def _declare_buffers(self, program: Program, analyzed: AnalyzedModel,
                         ranges: RangeResult,
                         folded: dict[str, np.ndarray] | None = None
                         ) -> dict[str, str]:
        names: dict[str, str] = {}
        folded = folded or {}
        for name in analyzed.schedule:
            block = analyzed.block(name)
            spec = spec_for(block)
            sig = analyzed.signal_of(name)
            buffer = f"b{block.sid}_{sanitize(name)}"
            names[name] = buffer
            if block.block_type == "Terminator":
                continue
            if block.block_type == "Inport":
                program.declare(buffer, sig.shape, sig.dtype, "input")
                continue
            if block.block_type == "Outport":
                program.declare(buffer, sig.shape, sig.dtype, "output")
                continue
            if name in folded:
                program.declare(buffer, sig.shape, sig.dtype, "const",
                                np.asarray(folded[name], dtype=sig.dtype))
                continue
            const_value = spec.constant_value(block)
            if const_value is not None:
                program.declare(buffer, sig.shape, sig.dtype, "const",
                                np.asarray(const_value, dtype=sig.dtype))
                continue
            if ranges.output_range[name].is_empty:
                continue  # fully eliminated: no storage either
            program.declare(buffer, sig.shape, sig.dtype, "temp")
            if spec.is_stateful:
                initial = spec.initial_state(
                    block, analyzed.input_signals(name), sig)
                program.declare(f"{buffer}_z", (np.asarray(initial).size,),
                                sig.dtype, "state", np.asarray(initial))
        return names

"""Native toolchain harness: compile emitted C with the host gcc and run it.

Used for the end-to-end validation of the C emitter (generated binaries
must agree with the reference simulator) and for real ``-O3`` timing of
FRODO vs the baselines on this machine — the closest available stand-in
for the paper's x86/GCC column.

The harness synthesizes a ``main.c`` next to the emitted model source:
inputs are embedded as static initializers, every input, output, state
and temp buffer gets one instance of static storage behind the ``bufs``
pointer table of the model's ABI (:mod:`repro.codegen.ctext`), the step
function is called ``steps`` times with ``nb = 1`` and ``nsteps = 1``
(exercising stateful blocks), outputs are printed in full precision, and
an optional timing loop reports seconds for ``repetitions`` further
one-step calls — one call per repetition, so recorded timings include
the call itself.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.codegen.base import GeneratedCode
from repro.codegen.ctext import _c_literal, abi_buffers, emit_c
from repro.errors import NativeToolchainError
from repro.ir.ops import BufferDecl, c_type


#: Default compile flags.  ``-fno-tree-slp-vectorize`` works around a
#: miscompilation in this sandbox's gcc 12.2: at plain ``-O3`` its SLP
#: vectorizer produces wrong values for the boundary-judgment
#: accumulation pattern (guarded ``out[i] += k[j] * u[i-j]``).  The bug
#: was isolated by differential testing — ``-O0``, ``-O2``,
#: ``-fno-tree-slp-vectorize``, UBSan, the IR VM, and the reference
#: simulator all agree with each other and disagree with plain ``-O3``.
DEFAULT_FLAGS: tuple[str, ...] = ("-std=c11", "-O3", "-fno-tree-slp-vectorize")


# PATH scans and `cc --version` subprocess probes are pure functions of
# the installed toolchain, which does not change within a process — but
# they are on the request path of every native-backend VM construction,
# so both are memoized.  clear_compiler_caches() exists for tests that
# simulate a toolchain swap.
_COMPILER_CACHE: dict[tuple[str, ...], Optional[str]] = {}
_IDENTITY_CACHE: dict[str, "CompilerIdentity"] = {}
_COMPILER_LOCK = threading.Lock()


def find_compiler(preferred: Sequence[str] = ("gcc", "cc", "clang")) -> Optional[str]:
    """First available C compiler on PATH, or None (memoized per-process).

    Setting ``REPRO_NO_CC`` in the environment forces "no toolchain":
    the knob CI's scheduled full-matrix run uses to exercise the
    no-compiler code paths (typed ``native_unavailable`` errors,
    ``@pytest.mark.native`` skips) on runners that do have gcc.  Checked
    before the memo so flipping it mid-process takes effect immediately.
    """
    if os.environ.get("REPRO_NO_CC"):
        return None
    key = tuple(preferred)
    with _COMPILER_LOCK:
        if key in _COMPILER_CACHE:
            return _COMPILER_CACHE[key]
    found = None
    for name in preferred:
        path = shutil.which(name)
        if path:
            found = path
            break
    with _COMPILER_LOCK:
        _COMPILER_CACHE[key] = found
    return found


@dataclass(frozen=True)
class CompilerIdentity:
    """What exactly will compile the code: resolved path + version hash.

    ``version_hash`` is the sha256 of the compiler's ``--version`` output,
    so a toolchain upgrade (same path, new binary) changes the identity.
    Feeds the shared-object cache key (:mod:`repro.native.sharedlib`): a
    ``.so`` built by one compiler is never served for another.
    """

    path: str
    version_hash: str

    @property
    def cache_token(self) -> str:
        return f"{self.path}:{self.version_hash}"


def compiler_identity(cc: Optional[str] = None) -> CompilerIdentity:
    """Resolved identity of ``cc`` (default: :func:`find_compiler`).

    Memoized per compiler path.  Raises :class:`NativeToolchainError`
    when no compiler is available or the probe fails.
    """
    compiler = cc or find_compiler()
    if compiler is None:
        raise NativeToolchainError("no C compiler found on PATH")
    with _COMPILER_LOCK:
        cached = _IDENTITY_CACHE.get(compiler)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainError(
            f"cannot probe compiler {compiler!r}: {exc}") from exc
    if proc.returncode != 0:
        raise NativeToolchainError(
            f"{compiler!r} --version exited with {proc.returncode}:\n"
            f"{proc.stderr}")
    digest = hashlib.sha256(
        (proc.stdout + proc.stderr).encode()).hexdigest()[:16]
    identity = CompilerIdentity(path=compiler, version_hash=digest)
    with _COMPILER_LOCK:
        _IDENTITY_CACHE[compiler] = identity
    return identity


def clear_compiler_caches() -> None:
    """Forget memoized compiler discovery/identity (test hook)."""
    with _COMPILER_LOCK:
        _COMPILER_CACHE.clear()
        _IDENTITY_CACHE.clear()


@dataclass
class NativeResult:
    """Outputs (keyed by Outport name) and optional timing of a native run."""

    outputs: dict[str, np.ndarray]
    seconds: Optional[float] = None
    source_dir: Optional[Path] = None


def _input_initializer(decl: BufferDecl, value: np.ndarray) -> str:
    flat = np.asarray(value, dtype=decl.dtype).ravel()
    if flat.size != decl.size:
        raise NativeToolchainError(
            f"input {decl.name!r} expects {decl.size} elements, got {flat.size}"
        )
    literals = ", ".join(
        _c_literal(v.item() if hasattr(v, "item") else v, decl.dtype)
        for v in flat
    )
    return (f"static const {c_type(decl.dtype)} {decl.name}_data"
            f"[{max(decl.size, 1)}] = {{{literals}}};")


def _print_loop(decl: BufferDecl) -> list[str]:
    size = max(decl.size, 1)
    if decl.dtype == "complex128":
        return [f'    for (int i = 0; i < {size}; i++) '
                f'printf("%.17g %.17g\\n", creal({decl.name}_out[i]), '
                f'cimag({decl.name}_out[i]));']
    if decl.dtype == "uint32":
        return [f'    for (int i = 0; i < {size}; i++) '
                f'printf("%u\\n", {decl.name}_out[i]);']
    return [f'    for (int i = 0; i < {size}; i++) '
            f'printf("%.17g\\n", {decl.name}_out[i]);']


def generate_main(code: GeneratedCode, inputs: Mapping[str, np.ndarray],
                  steps: int = 1, repetitions: int = 0) -> str:
    """Synthesize the driver translation unit."""
    program = code.program
    buffer_inputs = code.map_inputs(dict(inputs))

    lines = [
        "#define _POSIX_C_SOURCE 199309L",  # clock_gettime under -std=c11
        "#include <stdio.h>",
        "#include <stdint.h>",
        "#include <stdbool.h>",
        "#include <time.h>",
        "#include <complex.h>",
        "",
        f"void {program.name}_init(int64_t nb, void *const *bufs);",
        f"void {program.name}_step(int64_t nb, int64_t nsteps, "
        "void *const *bufs);",
        "",
    ]
    table: list[str] = []
    for decl in abi_buffers(program):
        if decl.kind == "input":
            lines.append(_input_initializer(decl, buffer_inputs[decl.name]))
            table.append(f"(void *){decl.name}_data")
            continue
        # Rings of a fused program are stored at their window size, as
        # emit_c lowers them.
        suffix = "_out" if decl.kind == "output" else "_mem"
        lines.append(f"static {c_type(decl.dtype)} {decl.name}{suffix}"
                     f"[{max(decl.storage_size, 1)}];")
        table.append(f"{decl.name}{suffix}")
    lines.append(f"static void *const bufs[] = "
                 f"{{{', '.join(table) or '0'}}};")
    lines += [
        "",
        "int main(void) {",
        f"    {program.name}_init(1, bufs);",
        f"    for (int s = 0; s < {steps}; s++) "
        f"{program.name}_step(1, 1, bufs);",
    ]
    if repetitions > 0:
        lines += [
            "    struct timespec t0, t1;",
            "    clock_gettime(CLOCK_MONOTONIC, &t0);",
            f"    for (int r = 0; r < {repetitions}; r++) "
            f"{program.name}_step(1, 1, bufs);",
            "    clock_gettime(CLOCK_MONOTONIC, &t1);",
            '    printf("TIME %.9f\\n", (t1.tv_sec - t0.tv_sec)'
            " + (t1.tv_nsec - t0.tv_nsec) * 1e-9);",
        ]
    for decl in program.buffers_of_kind("output"):
        lines.extend(_print_loop(decl))
    lines += ["    return 0;", "}", ""]
    return "\n".join(lines)


def compile_and_run(code: GeneratedCode, inputs: Mapping[str, np.ndarray],
                    steps: int = 1, repetitions: int = 0,
                    cc: Optional[str] = None,
                    flags: Sequence[str] = DEFAULT_FLAGS,
                    workdir: Optional[Path] = None,
                    keep_sources: bool = False) -> NativeResult:
    """Emit, compile, execute; parse outputs back into numpy arrays."""
    compiler = cc or find_compiler()
    if compiler is None:
        raise NativeToolchainError("no C compiler found on PATH")

    own_dir = workdir is None
    directory = Path(tempfile.mkdtemp(prefix="repro_native_")) if own_dir \
        else Path(workdir)
    # Every exit below — compile failure, nonzero exit, output-parse
    # mismatch — must release a directory we created ourselves, or each
    # failed run leaks a repro_native_* tree (keep_sources opts out).
    try:
        directory.mkdir(parents=True, exist_ok=True)
        model_c = directory / f"{code.program.name}.c"
        main_c = directory / "main.c"
        binary = directory / "model_bin"
        model_c.write_text(emit_c(code.program))
        main_c.write_text(generate_main(code, inputs, steps, repetitions))

        compile_cmd = [compiler, *flags, "-o", str(binary), str(model_c),
                       str(main_c), "-lm"]
        try:
            proc = subprocess.run(compile_cmd, capture_output=True, text=True)
        except FileNotFoundError as exc:
            raise NativeToolchainError(
                f"compiler {compiler!r} not found") from exc
        if proc.returncode != 0:
            raise NativeToolchainError(
                f"compilation failed ({' '.join(compile_cmd)}):\n{proc.stderr}"
            )
        run = subprocess.run([str(binary)], capture_output=True, text=True,
                             timeout=600)
        if run.returncode != 0:
            raise NativeToolchainError(
                f"generated binary exited with {run.returncode}:\n{run.stderr}"
            )

        tokens = run.stdout.split("\n")
        seconds: Optional[float] = None
        values: list[str] = []
        for line in tokens:
            if line.startswith("TIME "):
                seconds = float(line.split()[1])
            elif line.strip():
                values.append(line.strip())

        outputs: dict[str, np.ndarray] = {}
        cursor = 0
        for decl in code.program.buffers_of_kind("output"):
            size = max(decl.size, 1)
            chunk = values[cursor:cursor + size]
            cursor += size
            if len(chunk) != size:
                raise NativeToolchainError(
                    f"binary printed {len(values)} values; expected more for "
                    f"{decl.name!r}"
                )
            if decl.dtype == "complex128":
                pairs = [tuple(map(float, line.split())) for line in chunk]
                outputs[decl.name] = np.array(
                    [complex(re, im) for re, im in pairs], dtype="complex128"
                ).reshape(decl.shape if decl.shape else ())
            elif decl.dtype == "uint32":
                outputs[decl.name] = np.array(
                    [int(v) for v in chunk], dtype="uint32"
                ).reshape(decl.shape if decl.shape else ())
            else:
                outputs[decl.name] = np.array(
                    [float(v) for v in chunk], dtype=decl.dtype
                ).reshape(decl.shape if decl.shape else ())

        named = code.map_outputs(outputs)
    finally:
        if own_dir and not keep_sources:
            shutil.rmtree(directory, ignore_errors=True)
    if own_dir and not keep_sources:
        return NativeResult(named, seconds, None)
    return NativeResult(named, seconds, directory)

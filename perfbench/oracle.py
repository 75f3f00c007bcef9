"""Output oracle: references from the block-level simulator.

``repro.sim`` interprets the model graph directly and shares no code
with code generation, so it can judge generated code.  Outputs are
compared with ``allclose`` at the tolerances of the repository's own
oracles; repeated answers for one (model, input seed) must carry the
same ``output_sha256`` across backends and repeats.
"""

from __future__ import annotations

import numpy as np

#: ``repro.eval.validate.validate_generator`` defaults (zoo models).
ZOO_TOLERANCE = {"rtol": 1e-9, "atol": 1e-9, "equal_nan": False}

#: ``repro.fuzz.differential.fuzz_model``: ``np.allclose`` defaults with
#: ``equal_nan`` (corpus models).
CORPUS_TOLERANCE = {"rtol": 1e-5, "atol": 1e-8, "equal_nan": True}


def decode_json_array(value) -> np.ndarray:
    """A served output back to an array: nested lists, with complex
    elements as ``{"re": .., "im": ..}`` objects."""
    def walk(v):
        if isinstance(v, dict):
            return complex(v["re"], v["im"])
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v
    return np.asarray(walk(value))


def mismatches(got: dict, want: dict, tolerance: dict) -> list[str]:
    """Names of outputs in ``want`` that ``got`` misses or gets wrong."""
    problems = []
    for name, expected in want.items():
        if name not in got:
            problems.append(f"output {name!r} missing")
            continue
        g = np.asarray(got[name]).ravel()
        w = np.asarray(expected).ravel()
        if g.shape != w.shape:
            problems.append(f"output {name!r}: {g.size} elements, "
                            f"expected {w.size}")
            continue
        kind = (np.complex128 if np.iscomplexobj(g) or np.iscomplexobj(w)
                else np.float64)
        if not np.allclose(g.astype(kind), w.astype(kind), **tolerance):
            worst = np.max(np.abs(g.astype(np.complex128)
                                  - w.astype(np.complex128)))
            problems.append(f"output {name!r}: max |err| {worst:.3e}")
    unexpected = sorted(set(got) - set(want))
    if unexpected:
        problems.append(f"unexpected outputs {unexpected}")
    return problems

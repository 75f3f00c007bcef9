"""Property tests for the optimization passes and the second container.

* fusion and buffer reuse must preserve program semantics on arbitrary
  generated chains, and fusion must be idempotent;
* `.mdl` round-trips must preserve semantics like `.slx` does;
* the worklist Algorithm 1 must agree with the recursion on arbitrary
  acyclic chains.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen import FrodoGenerator
from repro.codegen.bufreuse import reuse_buffers
from repro.core.analysis import analyze
from repro.core.ranges import determine_ranges, determine_ranges_worklist
from repro.ir.fuse import fuse_step_inplace
from repro.ir.interp import VirtualMachine
from repro.model.mdl import load_mdl, save_mdl
from repro.sim.simulator import random_inputs, simulate
from tests.property.test_pipeline_props import chain_models

common = settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def run_program(code, inputs):
    return np.asarray(code.map_outputs(
        VirtualMachine(code.program).run(code.map_inputs(inputs)).outputs
    )["y"]).ravel()


@common
@given(chain_models(), st.integers(0, 5))
def test_fusion_preserves_semantics(model, seed):
    inputs = random_inputs(model, seed=seed)
    plain = FrodoGenerator().generate(model)
    expected = run_program(plain, inputs)
    fused = FrodoGenerator(fuse=True).generate(model)
    np.testing.assert_allclose(run_program(fused, inputs), expected,
                               rtol=1e-9, atol=1e-9, equal_nan=True)
    assert fused.program.loop_count <= plain.program.loop_count


@common
@given(chain_models())
def test_fusion_is_idempotent(model):
    code = FrodoGenerator().generate(model)
    fuse_step_inplace(code.program, contract=False)
    assert fuse_step_inplace(code.program, contract=False).nests_fused == 0


@common
@given(chain_models(), st.integers(0, 5))
def test_buffer_reuse_preserves_semantics(model, seed):
    inputs = random_inputs(model, seed=seed)
    plain = FrodoGenerator().generate(model)
    expected = run_program(plain, inputs)
    reused = FrodoGenerator().generate(model)
    reuse_buffers(reused.program)
    np.testing.assert_allclose(run_program(reused, inputs), expected,
                               rtol=1e-9, atol=1e-9, equal_nan=True)
    assert reused.program.static_bytes <= plain.program.static_bytes


@common
@given(chain_models(), st.integers(0, 5))
def test_passes_compose(model, seed):
    """fold + fuse + reuse together still match the simulator."""
    inputs = random_inputs(model, seed=seed)
    expected = np.asarray(simulate(model, inputs)["y"]).ravel()
    code = FrodoGenerator(fuse=True, reuse=True, fold=True).generate(model)
    np.testing.assert_allclose(run_program(code, inputs), expected,
                               rtol=1e-9, atol=1e-9, equal_nan=True)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_models(), st.integers(0, 3))
def test_mdl_round_trip_preserves_outputs(tmp_path_factory, model, seed):
    path = tmp_path_factory.mktemp("mdl") / "m.mdl"
    reloaded = load_mdl(save_mdl(model, path))
    inputs = random_inputs(model, seed=seed)
    a = np.asarray(simulate(model, inputs)["y"]).ravel()
    b = np.asarray(simulate(reloaded, inputs)["y"]).ravel()
    np.testing.assert_allclose(a, b, equal_nan=True)


@common
@given(chain_models())
def test_worklist_equals_recursion_on_chains(model):
    analyzed = analyze(model)
    recursive = determine_ranges(analyzed)
    worklist = determine_ranges_worklist(analyzed)
    assert recursive.output_range == worklist.output_range
    assert recursive.optimizable == worklist.optimizable


@common
@given(chain_models())
def test_coalesce_covers_exact(model):
    analyzed = analyze(model)
    exact = determine_ranges(analyzed)
    coalesced = determine_ranges(analyzed, coalesce=True)
    for name, rng in exact.output_range.items():
        assert coalesced.output_range[name].covers(rng)
        assert coalesced.output_range[name].is_contiguous


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_models())
def test_slx_and_mdl_agree(tmp_path_factory, model):
    """Both containers must reconstruct structurally identical models."""
    from repro.model.slx import load_slx, save_slx
    directory = tmp_path_factory.mktemp("formats")
    via_slx = load_slx(save_slx(model, directory / "m.slx"))
    via_mdl = load_mdl(save_mdl(model, directory / "m.mdl"))
    assert set(via_slx.blocks) == set(via_mdl.blocks)
    assert sorted(map(str, via_slx.connections)) \
        == sorted(map(str, via_mdl.connections))
    a = determine_ranges(analyze(via_slx))
    b = determine_ranges(analyze(via_mdl))
    assert a.output_range == b.output_range

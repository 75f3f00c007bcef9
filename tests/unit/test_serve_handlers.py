"""Unit tests for serve request handlers (inline, no sockets/processes)."""

import base64

import numpy as np
import pytest

from repro.serve.cache import ArtifactCache
from repro.serve.handlers import handle_request
from repro.serve.protocol import ServeError


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path)


def _error_type(req, cache=None, **kwargs):
    with pytest.raises(ServeError) as exc:
        handle_request(req, cache, **kwargs)
    return exc.value.error_type


class TestCompile:
    def test_miss_then_hit(self, cache):
        req = {"op": "compile", "model": "Motivating", "generator": "frodo"}
        result, meta = handle_request(req, cache)
        assert meta["artifact_cache"] == "miss"
        assert result["stats"]["eliminated_elements"] == 10
        result2, meta2 = handle_request(req, cache)
        assert meta2["artifact_cache"] == "hit"
        assert result2["model_fingerprint"] == result["model_fingerprint"]

    def test_no_cache_configured(self):
        result, meta = handle_request(
            {"op": "compile", "model": "Motivating"}, None)
        assert meta["artifact_cache"] == "off"
        assert result["generator"] == "frodo"

    def test_include_source(self, cache):
        result, _ = handle_request(
            {"op": "compile", "model": "Motivating",
             "include_source": True}, cache)
        assert "#include <math.h>" in result["c_source"]

    def test_backends_share_one_artifact(self, cache):
        base = {"op": "compile", "model": "Motivating"}
        _, meta = handle_request({**base, "backend": "auto"}, cache)
        assert meta["artifact_cache"] == "miss"
        _, meta = handle_request({**base, "backend": "closure"}, cache)
        assert meta["artifact_cache"] == "hit"


class TestFuseOnce:
    """An artifact stores the fused program, so a compiled program is
    fused once and every consumer runs or emits it as stored."""

    @pytest.fixture()
    def fuse_calls(self, monkeypatch):
        import repro.ir.fuse as fuse_module
        from repro.ir.interp import clear_vm_cache
        clear_vm_cache()  # a warm VM from another test would hide a fusion
        calls = []
        real = fuse_module.fuse_program

        def counting(program, **kwargs):
            calls.append(program.name)
            return real(program, **kwargs)

        monkeypatch.setattr(fuse_module, "fuse_program", counting)
        yield calls
        clear_vm_cache()

    @pytest.mark.parametrize("req", [
        {"op": "run", "model": "Simpson"},
        {"op": "compile", "model": "Simpson", "include_source": True}])
    def test_cold_request_fuses_once(self, cache, fuse_calls, req):
        _, meta = handle_request(req, cache)
        assert meta["artifact_cache"] == "miss"
        assert len(fuse_calls) == 1

    def test_native_after_auto_reuses_the_artifact(self, cache, fuse_calls):
        from repro.native import find_compiler
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        req = {"op": "run", "model": "Simpson", "include_outputs": False}
        auto, meta = handle_request({**req, "backend": "auto"}, cache)
        assert meta["artifact_cache"] == "miss"
        del fuse_calls[:]
        native, meta = handle_request({**req, "backend": "native"}, cache)
        assert meta["artifact_cache"] == "hit"
        assert fuse_calls == []
        assert native["backend_effective"] == "native"
        assert native["output_sha256"] == auto["output_sha256"]
        assert native["fusion"] == auto["fusion"]

    def test_fusion_total_counts_each_compiled_artifact_once(self, cache):
        from repro.serve.server import ReproServer, ServeConfig
        server = ReproServer(ServeConfig(workers=0))
        req = {"op": "run", "model": "Simpson", "include_outputs": False}
        for backend in ("auto", "closure"):
            result, meta = handle_request({**req, "backend": backend}, cache)
            server._record_cache_meta(meta)
        totals = {row["labels"]["stat"]: row["value"] for row
                  in server.metrics.snapshot()["fusion_total"]}
        assert totals["nests_fused"] == result["fusion"]["nests_fused"] > 0

    def test_include_source_is_the_stored_fused_program(self, cache):
        from repro.codegen import emit_c, make_generator
        from repro.serve.handlers import get_or_compile
        from repro.zoo import build_model
        result, _ = handle_request({"op": "compile", "model": "Simpson",
                                    "include_source": True}, cache)
        model = build_model("Simpson")
        artifact, source = get_or_compile(
            model, result["model_fingerprint"], "frodo", cache)
        assert source == "hit"
        assert result["c_source"] == emit_c(artifact.program)
        generated = make_generator("frodo").generate(model).program
        assert artifact.program.loop_count < generated.loop_count
        assert result["stats"]["fusion"]["nests_fused"] >= 1


class TestRun:
    def test_deterministic_and_matches_simulation(self, cache):
        from repro.sim.simulator import random_inputs, simulate
        from repro.zoo import build_model
        req = {"op": "run", "model": "Motivating", "generator": "frodo",
               "steps": 2, "seed": 5}
        result, meta = handle_request(req, cache)
        result2, meta2 = handle_request(req, cache)
        assert result["output_sha256"] == result2["output_sha256"]
        assert meta2["vm_cache"] == "hit" and meta2["artifact_cache"] == "hit"
        model = build_model("Motivating")
        expected = simulate(model, random_inputs(model, seed=5), steps=2)
        for name, value in expected.items():
            np.testing.assert_allclose(
                np.asarray(result["outputs"][name], dtype=float).ravel(),
                np.asarray(value).ravel(), rtol=1e-9, atol=1e-12)

    def test_explicit_inputs(self, cache):
        u = np.linspace(-1, 1, 60)
        result, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "inputs": {"u": u.tolist()}}, cache)
        result2, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "inputs": {"u": u.tolist()}}, cache)
        assert result["output_sha256"] == result2["output_sha256"]

    def test_include_outputs_false(self, cache):
        result, _ = handle_request(
            {"op": "run", "model": "Motivating",
             "include_outputs": False}, cache)
        assert "outputs" not in result and "output_sha256" in result

    def test_bad_fields(self, cache):
        assert _error_type({"op": "run", "model": "Motivating",
                            "steps": 0}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "steps": "many"}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "backend": "gpu"}, cache) == "bad_request"
        assert _error_type({"op": "run", "model": "Motivating",
                            "inputs": {"nope": [1.0]}},
                           cache) == "bad_request"

    def test_unknown_model_and_generator(self, cache):
        assert _error_type({"op": "run", "model": "Zzz"},
                           cache) == "unknown_model"
        assert _error_type({"op": "run", "model": "Motivating",
                            "generator": "gcc"},
                           cache) == "unknown_generator"

    def test_missing_model(self, cache):
        assert _error_type({"op": "run"}, cache) == "bad_request"


class TestCorpusSpecs:
    def test_corpus_spec_compiles(self, cache):
        result, _ = handle_request(
            {"op": "compile", "model": "corpus:3:10"}, cache)
        assert result["model"] == "Corpus_s3_b10_t35"

    def test_corpus_spec_fingerprint_is_stable(self, cache):
        req = {"op": "compile", "model": "corpus:5:10"}
        first, meta = handle_request(req, cache)
        second, meta2 = handle_request(req, cache)
        assert first["model_fingerprint"] == second["model_fingerprint"]
        assert meta["artifact_cache"] == "miss"
        assert meta2["artifact_cache"] == "hit"

    def test_corpus_spec_runs(self, cache):
        result, _ = handle_request(
            {"op": "run", "model": "corpus:0:8", "steps": 2,
             "backend": "vector"}, cache)
        assert result["outputs"]

    def test_bad_corpus_spec_is_invalid_model(self, cache):
        assert _error_type({"op": "run", "model": "corpus:zzz"},
                           cache) == "invalid_model"
        assert _error_type({"op": "run", "model": "corpus:-4"},
                           cache) == "invalid_model"

    def test_unknown_model_error_mentions_corpus_form(self, cache):
        with pytest.raises(ServeError) as exc:
            handle_request({"op": "run", "model": "Zzz"}, None)
        assert "corpus:<seed>" in str(exc.value)


class TestPayloadUpload:
    def test_slx_payload_round_trip(self, cache, tmp_path):
        from repro.model.slx import save_slx
        from repro.zoo import build_model
        path = save_slx(build_model("Simpson"), tmp_path / "m.slx")
        payload = base64.b64encode(path.read_bytes()).decode()
        result, _ = handle_request(
            {"op": "compile", "model_payload": payload,
             "model_format": "slx"}, cache)
        zoo_result, _ = handle_request(
            {"op": "compile", "model": "Simpson"}, cache)
        # Same model content -> same fingerprint -> shared artifact.
        assert result["model_fingerprint"] == zoo_result["model_fingerprint"]

    def test_invalid_payloads(self, cache):
        assert _error_type({"op": "compile", "model_payload": "!!!"},
                           cache) == "invalid_model"
        garbage = base64.b64encode(b"not a zip").decode()
        assert _error_type({"op": "compile", "model_payload": garbage},
                           cache) == "invalid_model"
        assert _error_type({"op": "compile", "model_payload": garbage,
                            "model_format": "xml"},
                           cache) == "bad_request"


class TestRangesAndReport:
    def test_ranges(self, cache):
        result, _ = handle_request(
            {"op": "ranges", "model": "Motivating"}, cache)
        assert result["optimizable_blocks"] == 1
        assert result["eliminated_elements"] == 10
        optimizable = [b for b in result["blocks"] if b["optimizable"]]
        assert len(optimizable) == 1

    def test_report_rows(self, cache):
        result, _ = handle_request(
            {"op": "report", "model": "Motivating"}, cache)
        by_gen = {row["generator"]: row for row in result["rows"]}
        assert set(by_gen) == {"simulink", "dfsynth", "hcg", "frodo"}
        # FRODO eliminates work, so it beats the Simulink baseline.
        assert by_gen["frodo"]["total_element_ops"] < \
            by_gen["simulink"]["total_element_ops"]
        assert by_gen["frodo"]["ops_vs_baseline"] > 1.0

    def test_report_bad_generators(self, cache):
        assert _error_type({"op": "report", "model": "Motivating",
                            "generators": []}, cache) == "bad_request"
        assert _error_type({"op": "report", "model": "Motivating",
                            "generators": ["gcc"]},
                           cache) == "unknown_generator"


class TestDebugOps:
    def test_sleep_gated(self, cache):
        assert _error_type({"op": "sleep", "seconds": 0}, cache,
                           allow_debug=False) == "bad_request"
        result, _ = handle_request({"op": "sleep", "seconds": 0}, cache,
                                   allow_debug=True)
        assert result["slept"] == 0.0

    def test_ping(self, cache):
        result, _ = handle_request({"op": "ping"}, cache)
        assert result["pong"] is True

    def test_front_end_only_op_rejected(self, cache):
        assert _error_type({"op": "metrics"}, cache) == "bad_request"

"""Unit tests for the persistent content-addressed artifact cache."""

import numpy as np

from repro.codegen import make_generator
from repro.ir.interp import VirtualMachine
from repro.serve.cache import (Artifact, ArtifactCache, artifact_key,
                               model_fingerprint)
from repro.sim.simulator import random_inputs
from repro.zoo import build_model


def _make_artifact(model_name="Motivating", generator="frodo"):
    model = build_model(model_name)
    code = make_generator(generator).generate(model)
    fp = model_fingerprint(model)
    return model, Artifact(
        model_fingerprint=fp, model_name=model.name, generator=generator,
        backend="auto", program=code.program,
        input_buffers=dict(code.input_buffers),
        output_buffers=dict(code.output_buffers),
        stats={"static_bytes": code.program.static_bytes},
    )


class TestModelFingerprint:
    def test_stable_across_rebuilds(self):
        assert model_fingerprint(build_model("Motivating")) == \
            model_fingerprint(build_model("Motivating"))

    def test_distinguishes_models(self):
        assert model_fingerprint(build_model("Motivating")) != \
            model_fingerprint(build_model("Simpson"))

    def test_format_agnostic(self, tmp_path):
        """Same model via .slx or .mdl round-trip shares one fingerprint."""
        from repro.model.mdl import load_mdl, save_mdl
        from repro.model.slx import load_slx, save_slx
        model = build_model("Simpson")
        save_slx(model, tmp_path / "m.slx")
        save_mdl(model, tmp_path / "m.mdl")
        assert model_fingerprint(load_slx(tmp_path / "m.slx")) == \
            model_fingerprint(load_mdl(tmp_path / "m.mdl"))


class TestArtifactKey:
    def test_depends_on_all_components(self):
        base = artifact_key("fp", "frodo", "auto")
        assert base != artifact_key("fp2", "frodo", "auto")
        assert base != artifact_key("fp", "hcg", "auto")
        assert base != artifact_key("fp", "frodo", "closure")
        assert base == artifact_key("fp", "frodo", "auto")


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _, artifact = _make_artifact()
        key = artifact_key(artifact.model_fingerprint, "frodo", "auto")
        assert cache.get(key) is None
        cache.put(key, artifact)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.model_name == artifact.model_name
        # One layout: the artifact is one blob of the cache's store.
        assert [p.relative_to(tmp_path).as_posix()
                for p in tmp_path.rglob("*") if p.is_file()] == \
            [f"artifact/{key[:2]}/{key}.blob"]

    def test_restart_persistence_and_equivalence(self, tmp_path):
        """A second cache instance (a 'restarted server') serves the same
        program, and the deserialized program executes identically."""
        model, artifact = _make_artifact("Simpson")
        key = artifact_key(artifact.model_fingerprint, "frodo", "auto")
        ArtifactCache(tmp_path).put(key, artifact)

        reloaded = ArtifactCache(tmp_path).get(key)  # fresh instance
        assert reloaded is not None
        inputs = {reloaded.input_buffers[name]: value
                  for name, value in random_inputs(model, seed=3).items()}
        fresh = VirtualMachine(artifact.program).run(inputs, steps=2)
        thawed = VirtualMachine(reloaded.program).run(inputs, steps=2)
        assert fresh.counts == thawed.counts
        for name in fresh.outputs:
            np.testing.assert_array_equal(fresh.outputs[name],
                                          thawed.outputs[name])

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _, artifact = _make_artifact()
        key = artifact_key(artifact.model_fingerprint, "frodo", "auto")
        cache.put(key, artifact)
        path = cache.store.path("artifact", key)
        path.write_bytes(path.read_bytes()[:100])
        assert cache.get(key) is None
        assert not path.exists()
        cache.put(key, artifact)  # the caller's recompile replaces it
        assert cache.get(key) is not None

    def test_version_skew_is_a_miss(self, tmp_path):
        import pickle
        cache = ArtifactCache(tmp_path)
        _, artifact = _make_artifact()
        key = artifact_key(artifact.model_fingerprint, "frodo", "auto")
        cache.store.put("artifact", key, pickle.dumps((999, artifact)))
        assert cache.get(key) is None
        cache.put(key, artifact)  # the recompile overwrites the entry
        assert cache.get(key) is not None

    def test_overwrite_is_atomic_replace(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _, artifact = _make_artifact()
        key = artifact_key("same", "frodo")
        cache.put(key, artifact)
        cache.put(key, artifact)  # racing writers overwrite identically
        assert cache.get(key) is not None
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == [cache.store.path("artifact", key)]

"""Compiled inference engine: parity, allocation, and cache guarantees.

Four guarantees pinned here:

* **Bitwise parity** — float64 latents from the compiled plan
  (``REPRO_INFER=compiled``) are bitwise identical to the eager sampler,
  with and without ControlNet, guided and unguided, under both GEMM
  backends, and for tail batches that don't fill ``generation_batch``.
  The float32 tier is held to the same standard (bitwise today; the
  engine contract only promises tolerance there).
* **Zero-allocation steady state** — after one warm-up sample, further
  sampling performs zero workspace allocations (``infer.ws_miss`` /
  ``infer.ws_bytes`` deltas are exactly 0 while ``infer.ws_hit`` climbs).
* **Cross-chunk conditioning cache** — a multi-chunk streaming run pays
  the prompt/ControlNet/time-embedding hoist once, not once per chunk.
* **Graceful fallback** — module trees the compiler cannot express (live
  LoRA adapters) raise :class:`~repro.core.infer.CompileError` and the
  pipeline silently falls back to eager with identical output.
"""

import copy

import numpy as np
import pytest

from repro import perf
from repro.core.denoiser import (
    sinusoidal_time_embedding,
    time_embedding_row,
)
from repro.core.infer import (
    CompiledDenoiser,
    CompileError,
    WorkspacePool,
    compile_denoiser,
    infer_mode,
    set_infer_mode,
    use_infer_mode,
)
from repro.core.lora import inject_lora, merge_lora
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.ml.nn import Linear, Tensor
from repro.ml.nn.backend import set_backend, use_backend
from repro.traffic.dataset import generate_app_flows


@pytest.fixture(scope="module")
def fitted():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, seed=9,
    )
    return TextToTrafficPipeline(config).fit(flows)


@pytest.fixture(autouse=True)
def _reset_engine_state():
    set_infer_mode(None)
    set_backend(None)
    yield
    set_infer_mode(None)
    set_backend(None)


def _latents(pipeline, mode, n=6, steps=8, seed=21, dtype=None, **kwargs):
    with use_infer_mode(mode):
        return pipeline.sample_latents(
            "netflix", n, steps=steps,
            rng=np.random.default_rng(seed), dtype=dtype, **kwargs,
        )


class TestBitwiseParity:
    @pytest.mark.parametrize("guidance_weight", [2.0, 0.5, 0.0])
    def test_fp64_with_control(self, fitted, guidance_weight):
        ref = _latents(fitted, "eager", guidance_weight=guidance_weight)
        got = _latents(fitted, "compiled", guidance_weight=guidance_weight)
        assert ref.dtype == got.dtype == np.float64
        assert np.array_equal(ref, got)

    def test_fp64_without_control(self, fitted):
        mask = fitted.class_masks.pop("netflix")
        try:
            ref = _latents(fitted, "eager")
            got = _latents(fitted, "compiled")
        finally:
            fitted.class_masks["netflix"] = mask
        assert np.array_equal(ref, got)

    def test_fp64_blocked_backend(self, fitted):
        with use_backend("blocked"):
            ref = _latents(fitted, "eager")
            got = _latents(fitted, "compiled")
        assert np.array_equal(ref, got)

    def test_fp64_tail_batches(self, fitted):
        """n that doesn't divide generation_batch exercises tail rows."""
        original = fitted.config.generation_batch
        fitted.config.generation_batch = 5
        try:
            ref = _latents(fitted, "eager", n=13, steps=6)
            got = _latents(fitted, "compiled", n=13, steps=6)
        finally:
            fitted.config.generation_batch = original
        assert np.array_equal(ref, got)

    def test_fp32_matches_eager_tier(self, fitted):
        ref = _latents(fitted, "eager", dtype=np.float32)
        got = _latents(fitted, "compiled", dtype=np.float32)
        assert ref.dtype == got.dtype == np.float32
        np.testing.assert_allclose(ref, got, rtol=1e-6, atol=1e-6)
        # Stronger than the contract requires: the kernels replicate the
        # eager ufunc sequence, so float32 is bitwise-equal today too.
        assert np.array_equal(ref, got)

    def test_generate_flows_identical(self, fitted):
        with use_infer_mode("compiled"):
            flows = fitted.generate(
                "netflix", 4, rng=np.random.default_rng(11))
        with use_infer_mode("eager"):
            ref_flows = fitted.generate(
                "netflix", 4, rng=np.random.default_rng(11))
        assert len(flows) == len(ref_flows)
        for a, b in zip(flows, ref_flows):
            assert len(a) == len(b)
            assert [p.timestamp for p in a.packets] == \
                   [p.timestamp for p in b.packets]


class TestSteadyStateAllocation:
    def test_zero_workspace_misses_after_warmup(self, fitted):
        _latents(fitted, "compiled", seed=1)  # warm pool + caches
        miss0 = perf.counter("infer.ws_miss")
        bytes0 = perf.counter("infer.ws_bytes")
        hit0 = perf.counter("infer.ws_hit")
        _latents(fitted, "compiled", seed=2)
        _latents(fitted, "compiled", seed=3)
        assert perf.counter("infer.ws_miss") - miss0 == 0
        assert perf.counter("infer.ws_bytes") - bytes0 == 0
        assert perf.counter("infer.ws_hit") - hit0 > 0

    def test_prewarm_leaves_first_step_allocation_free(self, fitted):
        engine = compile_denoiser(
            fitted.denoiser, batch=4, dtype=None)
        miss0 = perf.counter("infer.ws_miss")
        cond = fitted.prompt_encoder(["x"] * 4).data
        null = fitted.prompt_encoder(["y"] * 4).data
        eps = engine.eps_model(cond, null, 2.0)
        x = np.zeros((4, fitted.denoiser.latent_dim))
        out = eps(x, np.full(4, 3, dtype=np.int64))
        assert out.shape == (4, fitted.denoiser.latent_dim)
        assert perf.counter("infer.ws_miss") - miss0 == 0

    def test_pool_reuses_free_buffers_and_skips_held(self):
        pool = WorkspacePool()
        a = pool.take((4, 8), np.float64)
        b = pool.take((4, 8), np.float64)  # a still held -> new buffer
        assert a is not b
        a_id, b_id = id(a), id(b)
        del a, b
        c = pool.take((4, 8), np.float64)
        assert id(c) in (a_id, b_id)
        # Different shape or dtype never aliases.
        d = pool.take((4, 8), np.float32)
        assert id(d) not in (a_id, b_id)

    def test_pool_bounded_per_key(self):
        pool = WorkspacePool()
        held = [pool.take((2, 2), np.float64)
                for _ in range(WorkspacePool._MAX_PER_KEY + 3)]
        key = ((2, 2), np.dtype(np.float64).str)
        assert len(pool._store[key]) == WorkspacePool._MAX_PER_KEY
        del held
        pool.clear()
        assert not pool._store


class TestForwardCounter:
    @pytest.mark.parametrize("mode", ["eager", "compiled"])
    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_one_denoiser_forward_per_ddim_step(self, fitted, mode, dtype):
        """Both engines count a fused CFG forward as ``denoiser.forward``,
        one per DDIM step per sampler batch."""
        _latents(fitted, mode, n=3, steps=2, dtype=dtype)  # warm the engine
        registry = perf.get_registry()
        before = registry.count("denoiser.forward")
        before_rows = registry.count("denoiser.rows")
        steps, n = 7, 5
        _latents(fitted, mode, n=n, steps=steps, dtype=dtype)
        assert registry.count("denoiser.forward") - before == steps
        # cond + null rows per forward
        assert registry.count("denoiser.rows") - before_rows == 2 * n * steps


class TestConditioningCache:
    def test_stream_hoists_conditioning_once(self, fitted):
        """Chunks 2..k of a streaming run re-encode nothing."""
        registry = perf.get_registry()
        with use_infer_mode("compiled"):
            list(fitted.generate_stream(
                "netflix", 4, chunk=4,
                rng=np.random.default_rng(0)))  # build engine + closure
            before = dict(registry.counters)
            chunks = list(fitted.generate_stream(
                "netflix", 12, chunk=4, rng=np.random.default_rng(1)))
        assert len(chunks) == 3
        delta = {
            name: registry.count(name) - before.get(name, 0)
            for name in (
                "prompt_encoder.forward", "controlnet.forward_data",
                "infer.eps_cache_hit", "infer.t_cache_miss",
            )
        }
        assert delta["prompt_encoder.forward"] == 0
        assert delta["controlnet.forward_data"] == 0
        assert delta["infer.eps_cache_hit"] == 3
        assert delta["infer.t_cache_miss"] == 0

    def test_t_hidden_cached_per_timestep_and_rows(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        first = engine.t_hidden(5, 4)
        miss0 = perf.counter("infer.t_cache_miss")
        again = engine.t_hidden(5, 4)
        assert again is first
        assert perf.counter("infer.t_cache_miss") == miss0
        other = engine.t_hidden(5, 7)
        assert other is not first
        assert other.shape == (7, fitted.denoiser.hidden)

    def test_time_embedding_row_matches_batch_and_is_cached(self):
        row = time_embedding_row(17, 32, np.float64)
        batch = sinusoidal_time_embedding(
            np.asarray([17], dtype=np.int64), 32)
        assert np.array_equal(row, batch)
        assert not row.flags.writeable  # shared cache entry is frozen
        assert time_embedding_row(17, 32, np.float64) is row
        row32 = time_embedding_row(17, 32, np.float32)
        assert row32.dtype == np.float32
        assert row32 is not row

    def test_eager_constant_t_uses_row_cache(self, fitted):
        before = perf.counter("denoiser.time_emb_rows")
        t = np.full(6, 9, dtype=np.int64)
        z = Tensor(np.zeros((6, fitted.denoiser.latent_dim)))
        cond = Tensor(np.zeros((6, fitted.denoiser.cond_proj.in_features)))
        fitted.denoiser(z, t, cond, None)
        fitted.denoiser(z, t, cond, None)
        # Both forwards resolve the same cached row: at most one compute.
        assert perf.counter("denoiser.time_emb_rows") - before <= 1


class TestEagerLinearWorkspace:
    @staticmethod
    def _frozen_linear(rows_in=8, rows_out=8):
        """An inference-form Linear (frozen params, like cast_module)."""
        layer = Linear(rows_in, rows_out, rng=np.random.default_rng(0))
        layer.weight.requires_grad = False
        layer.bias.requires_grad = False
        return layer

    def test_workspace_reused_when_result_dropped(self):
        layer = self._frozen_linear()
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        first = layer(x)
        expected = first.data.copy()
        assert layer._infer_ws is not None
        ws_id = id(layer._infer_ws)  # id only: a live ref would defeat
        del first                    # the refcount guard under test
        hit0 = perf.counter("nn.linear.ws_hit")
        second = layer(x)
        assert perf.counter("nn.linear.ws_hit") - hit0 == 1
        assert id(second.data) == ws_id
        assert np.array_equal(second.data, expected)

    def test_workspace_not_reused_while_held(self):
        layer = self._frozen_linear()
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        first = layer(x)
        second = layer(x)
        assert second.data is not first.data
        assert np.array_equal(first.data, second.data)

    def test_shape_change_allocates_fresh(self):
        layer = self._frozen_linear()
        out4 = layer(Tensor(np.zeros((4, 8))))
        del out4
        out6 = layer(Tensor(np.zeros((6, 8))))
        assert out6.data.shape == (6, 8)


class TestFallback:
    def test_lora_tree_raises_compile_error(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        with pytest.raises(CompileError):
            compile_denoiser(denoiser)

    def test_merged_lora_tree_compiles(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        merge_lora(denoiser)
        assert isinstance(compile_denoiser(denoiser), CompiledDenoiser)

    def test_pipeline_falls_back_to_eager(self, fitted):
        ref = _latents(fitted, "eager", n=4, steps=5)
        lora_pipe = copy.deepcopy(fitted)
        lora_pipe._invalidate_cast_cache()
        inject_lora(lora_pipe.denoiser, rng=np.random.default_rng(0))
        # Fresh adapters are identity (B starts at zero), so eager
        # output is unchanged -- and compiled mode must match it via
        # the fallback, not crash.
        fb0 = perf.counter("infer.fallback_eager")
        got = _latents(lora_pipe, "compiled", n=4, steps=5)
        assert perf.counter("infer.fallback_eager") - fb0 == 1
        assert lora_pipe._infer_engines[np.dtype(np.float64).str] is None
        assert np.array_equal(ref, got)

    def test_non_constant_timestep_rejected(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        cond = np.zeros((3, fitted.denoiser.cond_proj.in_features))
        eps = engine.eps_model(cond, None, 0.0)
        x = np.zeros((3, fitted.denoiser.latent_dim))
        with pytest.raises(CompileError):
            eps(x, np.asarray([1, 2, 3], dtype=np.int64))

    def test_wrong_row_count_rejected(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        cond = np.zeros((4, fitted.denoiser.cond_proj.in_features))
        eps = engine.eps_model(cond, cond.copy(), 2.0)
        with pytest.raises(ValueError):
            eps(np.zeros((3, fitted.denoiser.latent_dim)),
                np.full(3, 1, dtype=np.int64))


class TestModeSelection:
    def test_env_var_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_INFER", "compiled")
        set_infer_mode(None)
        assert infer_mode() == "compiled"
        monkeypatch.setenv("REPRO_INFER", "eager")
        set_infer_mode(None)
        assert infer_mode() == "eager"

    def test_unknown_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_INFER", "warp")
        set_infer_mode(None)
        with pytest.raises(ValueError):
            infer_mode()
        set_infer_mode(None)
        monkeypatch.delenv("REPRO_INFER")
        assert infer_mode() == "eager"

    def test_use_infer_mode_restores(self):
        base = infer_mode()
        with use_infer_mode("compiled"):
            assert infer_mode() == "compiled"
        assert infer_mode() == base

    def test_engine_cache_invalidated_with_cast_cache(self, fitted):
        with use_infer_mode("compiled"):
            fitted.sample_latents(
                "netflix", 3, steps=2, rng=np.random.default_rng(0))
        assert fitted._infer_engines
        fitted._invalidate_cast_cache()
        assert not fitted._infer_engines


class TestFp32PackRoundtrip:
    def test_pack_seeds_cast_cache_and_matches(self, fitted, tmp_path):
        from repro.core.serialization import load_pipeline, save_pipeline

        plain = tmp_path / "plain.npz"
        packed = tmp_path / "packed.npz"
        save_pipeline(fitted, plain)
        save_pipeline(fitted, packed, fp32_pack=True)

        loaded_plain = load_pipeline(plain)
        loads0 = perf.counter("pipeline.load_fp32_pack")
        loaded_packed = load_pipeline(packed)
        assert perf.counter("pipeline.load_fp32_pack") - loads0 == 1
        key = np.dtype(np.float32).str
        assert key in loaded_packed._cast_cache
        assert key not in loaded_plain._cast_cache

        a = loaded_plain.sample_latents(
            "netflix", 4, steps=5, rng=np.random.default_rng(2),
            dtype=np.float32)
        b = loaded_packed.sample_latents(
            "netflix", 4, steps=5, rng=np.random.default_rng(2),
            dtype=np.float32)
        assert np.array_equal(a, b)

    def test_digest_unchanged_by_pack(self, fitted, tmp_path):
        from repro.core.serialization import load_pipeline, save_pipeline

        plain = tmp_path / "plain.npz"
        packed = tmp_path / "packed.npz"
        save_pipeline(fitted, plain)
        save_pipeline(fitted, packed, fp32_pack=True)
        a = load_pipeline(plain)
        b = load_pipeline(packed)
        assert np.array_equal(
            a.sample_latents("netflix", 3, steps=4,
                             rng=np.random.default_rng(5)),
            b.sample_latents("netflix", 3, steps=4,
                             rng=np.random.default_rng(5)),
        )


class TestPredictX0FastPath:
    def test_constant_t_matches_gather(self, fitted):
        diff = fitted.diffusion
        rng = np.random.default_rng(3)
        x_t = rng.normal(size=(5, fitted.codec.latent_dim))
        eps = rng.normal(size=x_t.shape)
        t = np.full(5, 11, dtype=np.int64)
        fast = diff.predict_x0(x_t, t, eps)
        s1m = diff.schedule.sqrt_one_minus_alpha_bars[t][:, None]
        sab = diff.schedule.sqrt_alpha_bars[t][:, None]
        assert np.array_equal(fast, (x_t - s1m * eps) / sab)

    def test_mixed_t_uses_gather(self, fitted):
        diff = fitted.diffusion
        rng = np.random.default_rng(4)
        x_t = rng.normal(size=(3, fitted.codec.latent_dim))
        eps = rng.normal(size=x_t.shape)
        t = np.asarray([1, 7, 20], dtype=np.int64)
        s1m = diff.schedule.sqrt_one_minus_alpha_bars[t][:, None]
        sab = diff.schedule.sqrt_alpha_bars[t][:, None]
        assert np.allclose(
            diff.predict_x0(x_t, t, eps), (x_t - s1m * eps) / sab)

"""Compiled inference engine: parity, allocation, cache and memory guarantees.

The compiled plan is the only sampling path; the module forwards
(``ConditionalDenoiser`` / ``PromptEncoder`` / ``ControlNetBranch`` on
the autograd tape) are the oracle it is held to.  Guarantees pinned here:

* **Bitwise parity** — float64 latents from the compiled plan are
  bitwise identical to a DDIM run over the module forwards, with and
  without ControlNet, guided and unguided, under both GEMM backends,
  for tail batches that don't fill ``generation_batch``, for float32,
  and for live LoRA adapters before and after ``merge_lora``.
* **Row invariance** — every conditioning block (``t_hidden``, class
  conditioning, ControlNet injections) sliced to ``rows`` equals the
  module forward at exactly ``rows`` rows, for 1..2x ``generation_batch``.
* **Zero-allocation steady state** — after one warm-up sample, further
  sampling performs zero workspace allocations.
* **Bounded memory** — an engine driven through many row counts retains
  no more bytes than one driven at the largest count alone.
* **Cross-chunk conditioning cache** — a multi-chunk streaming run pays
  the prompt/ControlNet/time-embedding hoist once, not once per chunk.
"""

import copy

import numpy as np
import pytest

from repro import perf
from repro.core.ddim import DDIMSampler
from repro.core.denoiser import sinusoidal_time_embedding
from repro.core.infer import (
    CompiledDenoiser,
    CompileError,
    WorkspacePool,
    compile_denoiser,
    time_embedding_row,
)
from repro.core.lora import inject_lora, merge_lora
from repro.core.pipeline import (
    NULL_PROMPT,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.ml.nn import Tensor
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
def _reset_backend():
    set_backend(None)
    yield
    set_backend(None)


# -- the module-forward oracle ----------------------------------------------


def _tape_eps(pipeline, prompt, n, mask, guidance_weight, dtype=None):
    """eps over the module forwards: fused CFG, hoisted conditioning."""
    prompt_encoder, denoiser, controlnet = pipeline._inference_modules(dtype)
    cond = prompt_encoder([prompt] * n).data
    null = prompt_encoder([NULL_PROMPT] * n).data
    controls = None
    if mask is not None and controlnet is not None:
        batch = np.ascontiguousarray(np.broadcast_to(mask, (n, len(mask))))
        if dtype is not None:
            batch = batch.astype(dtype)
        controls = [c.data for c in controlnet(batch)]

    def eps(x_t, t):
        m = len(x_t)
        if guidance_weight <= 0:
            ctrl = None
            if controls is not None:
                ctrl = [Tensor(c[:m]) for c in controls]
            return denoiser(Tensor(x_t), t, Tensor(cond[:m]), ctrl).data
        x2 = np.concatenate([x_t, x_t])
        t2 = np.concatenate([t, t])
        c2 = Tensor(np.concatenate([cond[:m], null[:m]]))
        ctrl = None
        if controls is not None:
            ctrl = [Tensor(np.concatenate([c[:m], np.zeros_like(c[:m])]))
                    for c in controls]
        out = denoiser(Tensor(x2), t2, c2, ctrl).data
        return (1 + guidance_weight) * out[:m] - guidance_weight * out[m:]

    return eps


def _tape_latents(pipeline, class_name, n, steps, rng, dtype=None,
                  guidance_weight=None, use_control=True):
    """``sample_latents`` with the module forwards in place of the plan."""
    cfg = pipeline.config
    weight = (cfg.guidance_weight if guidance_weight is None
              else guidance_weight)
    prompt = pipeline.codebook.prompt_for(class_name)
    mask = pipeline.class_masks.get(class_name) if use_control else None
    sampler = DDIMSampler(pipeline.diffusion)
    out = []
    remaining = n
    while remaining > 0:
        batch = min(remaining, cfg.generation_batch)
        eps = _tape_eps(pipeline, prompt, batch, mask, weight, dtype)
        out.append(sampler.sample(
            eps, (batch, pipeline.codec.latent_dim), rng,
            steps=steps, dtype=dtype))
        remaining -= batch
    return np.concatenate(out)


def _latents(pipeline, mode, n=6, steps=8, seed=21, dtype=None, **kwargs):
    """``mode='eager'``: the module-forward oracle; ``'compiled'``: the
    pipeline's own sampler."""
    rng = np.random.default_rng(seed)
    if mode == "eager":
        return _tape_latents(pipeline, "netflix", n, steps, rng,
                             dtype=dtype, **kwargs)
    return pipeline.sample_latents(
        "netflix", n, steps=steps, rng=rng, dtype=dtype, **kwargs)


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
        """n that doesn't divide generation_batch exercises tail rows,
        including a 1-row tail."""
        original = fitted.config.generation_batch
        fitted.config.generation_batch = 4
        try:
            for weight in (2.0, 0.0):
                ref = _latents(fitted, "eager", n=13, steps=6,
                               guidance_weight=weight)
                got = _latents(fitted, "compiled", n=13, steps=6,
                               guidance_weight=weight)
                assert np.array_equal(ref, got)
        finally:
            fitted.config.generation_batch = original

    def test_fp32_matches_eager_tier(self, fitted):
        ref = _latents(fitted, "eager", dtype=np.float32)
        got = _latents(fitted, "compiled", dtype=np.float32)
        assert ref.dtype == got.dtype == np.float32
        np.testing.assert_allclose(ref, got, rtol=1e-6, atol=1e-6)
        # Stronger than the contract requires: the kernels replicate the
        # eager ufunc sequence, so float32 is bitwise-equal today too.
        assert np.array_equal(ref, got)

    def test_generate_flows_identical(self, fitted):
        flows = fitted.generate("netflix", 4, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        latents = _tape_latents(fitted, "netflix", 4,
                                fitted.config.ddim_steps, rng)
        ref_flows = fitted._finalize_latents(latents, "netflix", rng=rng)
        assert len(flows) == len(ref_flows.flows)
        for a, b in zip(flows, ref_flows.flows):
            assert [p.to_bytes() for p in a.packets] == \
                   [p.to_bytes() for p in b.packets]
            assert [p.timestamp for p in a.packets] == \
                   [p.timestamp for p in b.packets]


class TestRowInvariance:
    """Conditioning blocks sliced to ``rows`` equal the module forward at
    exactly ``rows`` rows, from 1 to 2x ``generation_batch``."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_blocks_match_module_forwards(self, fitted, dtype):
        fitted._invalidate_cast_cache()
        engine = fitted._infer_engine(dtype)
        prompt_encoder, denoiser, controlnet = fitted._inference_modules(
            dtype)
        dt = np.dtype(dtype or np.float64)
        top = 2 * fitted.config.generation_batch
        prompt = fitted.codebook.prompt_for("netflix")
        mask = fitted.class_masks["netflix"]
        key = mask.tobytes()
        timestep = 37
        # Grow every block to the top row count first, so every smaller
        # lookup below is a leading-row view of that one block.
        engine.t_hidden(timestep, top)
        engine.cond_hidden(prompt, NULL_PROMPT, top)
        engine.cond_hidden(prompt, None, top)
        engine.controls(mask, key, top)

        enc = prompt_encoder([prompt]).data
        null = prompt_encoder([NULL_PROMPT]).data
        emb = sinusoidal_time_embedding(
            np.full(top, timestep), denoiser.time_dim).astype(dt)
        masks = np.repeat(mask[None, :], top, axis=0).astype(dt)
        for rows in range(1, top + 1):
            ref_t = denoiser.time_proj2(
                denoiser.time_proj1(Tensor(emb[:rows])).silu()).data
            assert np.array_equal(engine.t_hidden(timestep, rows), ref_t)

            fused = np.concatenate([np.repeat(enc, rows, axis=0),
                                    np.repeat(null, rows, axis=0)])
            ref_c = denoiser.cond_proj(Tensor(fused)).data
            got_c, got_null = engine.cond_hidden(prompt, NULL_PROMPT, rows)
            assert np.array_equal(got_c, ref_c[:rows])
            assert np.array_equal(got_null, ref_c[rows:])
            ref_u = denoiser.cond_proj(
                Tensor(np.repeat(enc, rows, axis=0))).data
            assert np.array_equal(engine.cond_hidden(prompt, None, rows)[0],
                                  ref_u)

            ref_ctrl = [c.data for c in controlnet(masks[:rows])]
            got_ctrl = engine.controls(mask, key, rows)
            assert all(np.array_equal(g, r)
                       for g, r in zip(got_ctrl, ref_ctrl))
        # One block per key (plus the 1-row entries): nothing per rows.
        assert len(engine._t_blocks.blocks) == 2
        assert len(engine._cond_blocks.blocks) == 3
        assert len(engine._ctrl_blocks.blocks) == 2


class TestMemoryBound:
    @staticmethod
    def _drive(fitted, counts):
        prompt_encoder, denoiser, controlnet = fitted._inference_modules(
            None)
        engine = compile_denoiser(
            denoiser, prompt_encoder=prompt_encoder, controlnet=controlnet)
        prompt = fitted.codebook.prompt_for("netflix")
        mask = fitted.class_masks["netflix"]
        sampler = DDIMSampler(fitted.diffusion)
        for m in counts:
            eps = engine.eps_model(prompt, NULL_PROMPT, 2.0, mask=mask)
            sampler.sample(eps, (m, denoiser.latent_dim),
                           np.random.default_rng(m), steps=3)
        return engine

    def test_retained_bytes_independent_of_row_counts(self, fitted):
        many = self._drive(fitted, range(2, 36))
        largest = self._drive(fitted, [35])
        assert many.retained_bytes() <= largest.retained_bytes()
        # Leading-row views: no key holds more than the largest batch.
        for key, bucket in many.pool._store.items():
            assert len(bucket) <= len(largest.pool._store[key])


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
            fitted.denoiser, batch=4, dtype=None,
            prompt_encoder=fitted.prompt_encoder)
        eps = engine.eps_model("x", "y", 2.0, rows=4)
        miss0 = perf.counter("infer.ws_miss")
        x = np.zeros((4, fitted.denoiser.latent_dim))
        out = eps(x, np.full(4, 3, dtype=np.int64))
        assert out.shape == (4, fitted.denoiser.latent_dim)
        assert perf.counter("infer.ws_miss") - miss0 == 0

    def test_pool_reuses_free_buffers_and_skips_held(self):
        pool = WorkspacePool()
        a = pool.take((4, 8), np.float64)
        b = pool.take((4, 8), np.float64)  # a still held -> new buffer
        assert a.base is not b.base
        a_id, b_id = id(a.base), id(b.base)
        del a, b
        c = pool.take((4, 8), np.float64)
        assert id(c.base) in (a_id, b_id)
        # Different trailing shape or dtype never aliases.
        d = pool.take((4, 8), np.float32)
        e = pool.take((4, 9), np.float64)
        assert id(d.base) not in (a_id, b_id)
        assert id(e.base) not in (a_id, b_id)

    def test_pool_hands_out_leading_rows_of_one_arena(self):
        pool = WorkspacePool()
        big = pool.take((8, 4), np.float64)
        arena_id = id(big.base)
        del big
        small = pool.take((3, 4), np.float64)
        assert small.shape == (3, 4) and small.flags.c_contiguous
        assert id(small.base) == arena_id
        del small
        grown = pool.take((16, 4), np.float64)  # regrows the free arena
        assert grown.shape == (16, 4)
        key = ((4,), np.dtype(np.float64).str)
        assert len(pool._store[key]) == 1
        assert pool.nbytes() == 16 * 4 * 8

    def test_pool_skips_arena_behind_held_view(self):
        pool = WorkspacePool()
        a = pool.take((4, 8), np.float64)
        view = a[:2]
        del a
        b = pool.take((4, 8), np.float64)
        assert b.base is not view.base

    def test_pool_bounded_per_key(self):
        pool = WorkspacePool()
        held = [pool.take((2, 2), np.float64)
                for _ in range(WorkspacePool._MAX_PER_KEY + 3)]
        key = ((2,), np.dtype(np.float64).str)
        assert len(pool._store[key]) == WorkspacePool._MAX_PER_KEY
        del held
        pool.clear()
        assert not pool._store


class TestForwardCounter:
    @pytest.mark.parametrize("mode", ["eager", "compiled"])
    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_one_denoiser_forward_per_ddim_step(self, fitted, mode, dtype):
        """The module forward and the plan both count a fused CFG forward
        as ``denoiser.forward``, one per DDIM step per sampler batch."""
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
        list(fitted.generate_stream(
            "netflix", 4, chunk=4,
            rng=np.random.default_rng(0)))  # build engine + caches
        before = dict(registry.counters)
        chunks = list(fitted.generate_stream(
            "netflix", 12, chunk=4, rng=np.random.default_rng(1)))
        assert len(chunks) == 3
        delta = {
            name: registry.count(name) - before.get(name, 0)
            for name in (
                "prompt_encoder.forward", "controlnet.forward",
                "infer.cond_cache_miss", "infer.ctrl_cache_miss",
                "infer.t_cache_miss", "infer.t_cache_hit",
            )
        }
        assert delta["prompt_encoder.forward"] == 0
        assert delta["controlnet.forward"] == 0
        assert delta["infer.cond_cache_miss"] == 0
        assert delta["infer.ctrl_cache_miss"] == 0
        assert delta["infer.t_cache_miss"] == 0
        assert delta["infer.t_cache_hit"] > 0

    def test_t_hidden_keyed_by_timestep(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        small = engine.t_hidden(5, 4)
        miss0 = perf.counter("infer.t_cache_miss")
        grown = engine.t_hidden(5, 7)  # regrows the timestep's block
        assert perf.counter("infer.t_cache_miss") - miss0 == 1
        assert grown.shape == (7, fitted.denoiser.hidden)
        assert np.array_equal(grown[:4], small)
        view = engine.t_hidden(5, 3)  # a leading-row view, no rebuild
        assert perf.counter("infer.t_cache_miss") - miss0 == 1
        assert view.base is grown.base
        single = engine.t_hidden(5, 1)  # 1 row: its own entry
        assert perf.counter("infer.t_cache_miss") - miss0 == 2
        assert single.base is not grown.base
        engine.t_hidden(6, 2)
        assert sorted(engine._t_blocks.blocks) == [(5, 0), (5, 1), (6, 0)]

    def test_conditioning_keyed_by_prompt_and_mask(self, fitted):
        fitted._invalidate_cast_cache()
        engine = fitted._infer_engine(None)
        before = perf.counter("prompt_encoder.forward")
        for n in (3, 5, 2):
            fitted.sample_latents("netflix", n, steps=2,
                                  rng=np.random.default_rng(n))
        # cond + null encoded once: built at 3 rows, regrown at 5
        assert perf.counter("prompt_encoder.forward") - before == 4
        prompt = fitted.codebook.prompt_for("netflix")
        assert list(engine._cond_blocks.blocks) == [
            ((prompt, NULL_PROMPT), 0)]
        key = fitted.class_masks["netflix"].tobytes()
        assert list(engine._ctrl_blocks.blocks) == [(key, 0)]

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


class TestFallback:
    def test_lora_tree_compiles(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        engine = compile_denoiser(denoiser)
        assert engine.input_proj.lora_a is not None
        assert engine._exact_rows

    def test_merged_lora_tree_compiles(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        merge_lora(denoiser)
        engine = compile_denoiser(denoiser)
        assert isinstance(engine, CompiledDenoiser)
        assert engine.input_proj.lora_a is None

    def test_add_class_compiles_and_matches_tape(self, fitted):
        lora_pipe = copy.deepcopy(fitted)
        lora_pipe._invalidate_cast_cache()
        lora_pipe.add_class(
            "zoom", generate_app_flows("zoom", 6, seed=5), rank=2, steps=10)
        for merged in (False, True):
            if merged:
                assert merge_lora(lora_pipe.denoiser) > 0
                lora_pipe._invalidate_cast_cache()
            compiles0 = perf.counter("infer.compile")
            got = lora_pipe.generate_raw(
                "zoom", 5, steps=6, rng=np.random.default_rng(4))
            assert perf.counter("infer.compile") - compiles0 == 1
            engine = lora_pipe._infer_engines[np.dtype(np.float64).str]
            assert isinstance(engine, CompiledDenoiser)
            assert engine._exact_rows is not merged
            rng = np.random.default_rng(4)
            latents = _tape_latents(lora_pipe, "zoom", 5, 6, rng)
            ref = lora_pipe._finalize_latents(latents, "zoom", rng=rng)
            assert np.array_equal(got.matrices, ref.matrices)
            assert np.array_equal(got.continuous, ref.continuous)
            for dtype in (None, np.float32):
                for n in (1, 3, 4):
                    assert np.array_equal(
                        lora_pipe.sample_latents(
                            "zoom", n, steps=4, dtype=dtype,
                            rng=np.random.default_rng(n)),
                        _tape_latents(lora_pipe, "zoom", n, 4,
                                      np.random.default_rng(n), dtype=dtype),
                    )

    def test_non_constant_timestep_rejected(self, fitted):
        engine = compile_denoiser(
            fitted.denoiser, prompt_encoder=fitted.prompt_encoder)
        eps = engine.eps_model("x", None, 0.0)
        x = np.zeros((3, fitted.denoiser.latent_dim))
        with pytest.raises(CompileError):
            eps(x, np.asarray([1, 2, 3], dtype=np.int64))

    def test_closure_serves_any_row_count(self, fitted):
        """One closure serves every batch size, each bitwise-equal to
        the module forward at that size."""
        prompt = fitted.codebook.prompt_for("netflix")
        mask = fitted.class_masks["netflix"]
        engine = fitted._infer_engine(None)
        eps = engine.eps_model(prompt, NULL_PROMPT, 2.0, mask=mask)
        rng = np.random.default_rng(8)
        for m in (4, 1, 7, 2):
            x = rng.normal(size=(m, fitted.denoiser.latent_dim))
            t = np.full(m, 9, dtype=np.int64)
            ref = _tape_eps(fitted, prompt, m, mask, 2.0)(x, t)
            assert np.array_equal(eps(x, t), ref)


class TestModeSelection:
    def test_engine_cache_invalidated_with_cast_cache(self, fitted):
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

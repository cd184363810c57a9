"""Parity, allocation and fallback tests for the compiled training engine.

``compile_training`` walks the denoiser (+ prompt encoder, optionally
the ControlNet branch) into a fused forward+backward+Adam plan over
packed parameter/gradient arrays.  The contract mirrors the inference
engine (``tests/test_infer.py``) but is stricter — training parity is
**bitwise**, not a tolerance:

* **Golden loss** — the compiled engine reproduces the exact pinned
  final loss from ``tests/test_training_fastpath.py``, so compiled and
  eager share one golden constant.
* **Bitwise parity** — loss histories (base + ControlNet phases),
  post-fit weights and the fitted-pipeline cache digest are identical
  across engines, with and without EMA.
* **Zero allocations in steady state** — after a batch shape's plan is
  built, further steps perform no workspace-pool traffic at all
  (``infer.ws_miss`` / ``infer.ws_bytes`` pinned flat).
* **Graceful fallback** — LoRA-adapted trees, warm or non-Adam
  optimizers raise :class:`CompileError`; the pipeline falls back to
  the eager tape (``train.eager_fallback``) and still matches it.
"""

import numpy as np
import pytest

from repro import perf
from repro.core.denoiser import ConditionalDenoiser
from repro.core.lora import inject_lora, lora_parameters
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.core.prompt import PromptEncoder, Vocabulary
from repro.core.serialization import pipeline_state_digest
from repro.core.train import (
    CompileError,
    compile_training,
    train_mode,
    use_train_mode,
)
from repro.ml.nn import SGD, Adam
from repro.traffic.dataset import generate_app_flows

# Same pinned constant as tests/test_training_fastpath.py: the compiled
# engine must land on the eager loop's exact golden value.
GOLDEN_FINAL_LOSS = 0.7113555794537234


def _config(**overrides):
    base = dict(
        max_packets=10, latent_dim=24, hidden=48, blocks=2,
        timesteps=60, train_steps=40, controlnet_steps=20,
        ddim_steps=8, seed=9,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _flows():
    return generate_app_flows("netflix", 10, seed=3) + \
        generate_app_flows("teams", 10, seed=3)


@pytest.fixture(scope="module")
def eager():
    with use_train_mode("eager"):
        return TextToTrafficPipeline(_config()).fit(_flows())


@pytest.fixture(scope="module")
def compiled():
    fb0 = perf.counter("train.eager_fallback")
    steps0 = perf.counter("train.compiled_step")
    with use_train_mode("compiled"):
        pipeline = TextToTrafficPipeline(_config()).fit(_flows())
    return {
        "pipeline": pipeline,
        "fallbacks": perf.counter("train.eager_fallback") - fb0,
        "compiled_steps": perf.counter("train.compiled_step") - steps0,
    }


class TestGoldenLoss:
    def test_compiled_hits_the_pinned_value(self, compiled):
        history = compiled["pipeline"].training_history
        assert history[-1] == pytest.approx(GOLDEN_FINAL_LOSS, abs=1e-12)

    def test_both_phases_ran_compiled(self, compiled):
        cfg = _config()
        assert compiled["fallbacks"] == 0
        assert compiled["compiled_steps"] == \
            cfg.train_steps + cfg.controlnet_steps


class TestBitwiseParity:
    def test_loss_histories_identical(self, eager, compiled):
        fast = compiled["pipeline"]
        assert fast.training_history == eager.training_history
        assert fast.controlnet_history == eager.controlnet_history

    def test_trained_weights_identical(self, eager, compiled):
        fast = compiled["pipeline"]
        for module in ("denoiser", "prompt_encoder", "controlnet"):
            fast_state = getattr(fast, module).state_dict()
            eager_state = getattr(eager, module).state_dict()
            assert fast_state.keys() == eager_state.keys()
            for name in fast_state:
                assert np.array_equal(fast_state[name],
                                      eager_state[name]), (module, name)

    def test_cache_digest_invariant_across_engines(self, eager, compiled):
        assert pipeline_state_digest(compiled["pipeline"]) == \
            pipeline_state_digest(eager)

    def test_sampled_latents_identical(self, eager, compiled):
        za = compiled["pipeline"].sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        zb = eager.sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        assert np.array_equal(za, zb)

    def test_ema_fit_identical(self):
        cfg = dict(train_steps=16, controlnet_steps=8, use_ema=True)
        with use_train_mode("eager"):
            ref = TextToTrafficPipeline(_config(**cfg)).fit(_flows())
        fb0 = perf.counter("train.eager_fallback")
        with use_train_mode("compiled"):
            fast = TextToTrafficPipeline(_config(**cfg)).fit(_flows())
        assert perf.counter("train.eager_fallback") - fb0 == 0
        assert fast.training_history == ref.training_history
        for name, arr in fast.denoiser.state_dict().items():
            assert np.array_equal(arr, ref.denoiser.state_dict()[name]), name


def _tiny_trainer(seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["traffic", "class", "netflix", "teams"])
    encoder = PromptEncoder(vocab, 16, rng=rng)
    denoiser = ConditionalDenoiser(
        latent_dim=12, hidden=24, blocks=2, cond_dim=16, time_dim=16,
        rng=rng,
    )
    optimizer = Adam(
        denoiser.parameters() + encoder.parameters(), lr=1e-3
    )
    return denoiser, encoder, optimizer


def _batch(rng, trainer, batch, width, latent_dim=12, timesteps=50):
    rows = trainer._table.shape[0]
    return (
        rng.standard_normal((batch, latent_dim)),
        rng.integers(0, timesteps, size=batch),
        rng.integers(0, rows, size=(batch, width)),
        np.ones((batch, width)),
        rng.standard_normal((batch, latent_dim)),
    )


class TestZeroAllocationSteadyState:
    def test_no_pool_traffic_after_plan_warmup(self):
        denoiser, encoder, optimizer = _tiny_trainer()
        trainer = compile_training(denoiser, encoder, optimizer)
        rng = np.random.default_rng(1)
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        miss0 = perf.counter("infer.ws_miss")
        bytes0 = perf.counter("infer.ws_bytes")
        steps0 = perf.counter("train.compiled_step")
        for _ in range(5):
            trainer.step(*_batch(rng, trainer, batch=8, width=3))
        assert perf.counter("infer.ws_miss") - miss0 == 0
        assert perf.counter("infer.ws_bytes") - bytes0 == 0
        assert perf.counter("train.compiled_step") - steps0 == 5

    def test_new_batch_shape_builds_one_plan_then_settles(self):
        denoiser, encoder, optimizer = _tiny_trainer(seed=2)
        trainer = compile_training(denoiser, encoder, optimizer)
        rng = np.random.default_rng(3)
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        miss0 = perf.counter("infer.ws_miss")
        trainer.step(*_batch(rng, trainer, batch=4, width=2))  # tail batch
        assert perf.counter("infer.ws_miss") - miss0 > 0
        miss1 = perf.counter("infer.ws_miss")
        trainer.step(*_batch(rng, trainer, batch=4, width=2))
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        assert perf.counter("infer.ws_miss") - miss1 == 0


class TestCompileErrors:
    def test_sgd_is_rejected(self):
        denoiser, encoder, _ = _tiny_trainer(seed=4)
        sgd = SGD(denoiser.parameters() + encoder.parameters(), lr=1e-2)
        with pytest.raises(CompileError):
            compile_training(denoiser, encoder, sgd)

    def test_warm_optimizer_is_rejected(self):
        denoiser, encoder, optimizer = _tiny_trainer(seed=5)
        optimizer._t = 3
        with pytest.raises(CompileError):
            compile_training(denoiser, encoder, optimizer)

    def test_lora_tree_is_rejected(self):
        denoiser, encoder, _ = _tiny_trainer(seed=6)
        rng = np.random.default_rng(7)
        inject_lora(denoiser, rank=2, rng=rng)
        params = lora_parameters(denoiser) + encoder.parameters()
        optimizer = Adam(params, lr=1e-3)
        with pytest.raises(CompileError):
            compile_training(denoiser, encoder, optimizer)

    def test_mode_validation(self):
        from repro.core.train import set_train_mode
        with pytest.raises(ValueError):
            set_train_mode("jit")
        with use_train_mode("compiled"):
            assert train_mode() == "compiled"


class TestLoRAFallback:
    def test_add_class_falls_back_and_matches_eager(self):
        new_flows = generate_app_flows("zoom", 6, seed=5)
        with use_train_mode("compiled"):
            fast = TextToTrafficPipeline(
                _config(train_steps=16, controlnet_steps=8)).fit(_flows())
            fb0 = perf.counter("train.eager_fallback")
            fast_hist = fast.add_class("zoom", new_flows, rank=2, steps=10)
            assert perf.counter("train.eager_fallback") - fb0 == 1
        with use_train_mode("eager"):
            ref = TextToTrafficPipeline(
                _config(train_steps=16, controlnet_steps=8)).fit(_flows())
            ref_hist = ref.add_class("zoom", new_flows, rank=2, steps=10)
        assert fast_hist == ref_hist

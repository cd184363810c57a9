"""The text-to-traffic synthesis pipeline (the paper's three-tier system).

Tier 1 — a generative base model for granularity: a latent diffusion model
(whitened-PCA codec + conditional denoiser) trained on nprint images of
real flows, conditioned on encoded class prompts ("type-0 traffic").

Tier 2 — coverage extension: LoRA adapters + new prompt tokens add classes
to a frozen base model (:meth:`TextToTrafficPipeline.add_class`).

Tier 3 — control: a ControlNet branch trained on per-flow structure masks,
plus optional hard structure guidance at decode time, enforcing protocol
usage patterns (all-TCP Amazon flows, all-UDP Teams flows — Fig. 2).

Typical use::

    pipeline = TextToTrafficPipeline(PipelineConfig(max_packets=32))
    pipeline.fit(real_flows)                       # fine-tune on real data
    flows = pipeline.generate("netflix", n=100)    # text-to-traffic
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.core.autoencoder import LatentCodec
from repro.core.controlnet import (
    ControlNetBranch,
    apply_structure_guidance,
    structure_mask,
)
from repro.core import infer as _infer
from repro.core import train as _train
from repro.core.ddim import DDIMSampler
from repro.core.ddpm import GaussianDiffusion
from repro.core.denoiser import ConditionalDenoiser
from repro.core.lora import inject_lora, lora_parameters
from repro.core.postprocess import (
    channel_to_gaps,
    gaps_to_channel,
    matrix_to_flow,
)
from repro.core.prompt import PromptCodebook, PromptEncoder, Vocabulary
from repro.core.schedule import NoiseSchedule
from repro.core.staterepair import repair_flows_state
from repro import perf
from repro.ml.nn import Adam, Tensor, mse_loss
from repro.net.flow import Flow
from repro.net.flowbatch import FlowBatch
from repro.nprint.encoder import (
    encode_flow,
    encode_flows,
    interarrival_channel,
    interarrival_channels,
)
from repro.nprint.fields import NPRINT_BITS

#: prompt used for the unconditional branch of classifier-free guidance
NULL_PROMPT = "null"

#: seed-sequence salt separating sharded per-chunk generation streams from
#: every other RNG family in the repository
_SHARD_SALT = 0x5EED5EED

#: archive path -> loaded pipeline, memoised per worker process so each
#: worker pays the fitted-pipeline load exactly once
_WORKER_PIPELINES: dict[str, "TextToTrafficPipeline"] = {}


def _shard_chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The deterministic RNG for chunk ``index`` of a sharded run.

    Derived from (seed, salt, chunk index) only — never from which worker
    runs the chunk or in what order — so any worker count, including the
    in-process ``workers=1`` path, produces byte-identical output.
    """
    return np.random.default_rng([int(seed), _SHARD_SALT, int(index)])


class _SegmentedRNG:
    """Concatenates independent per-segment generator draws into one batch.

    The serving tier coalesces several requests into a single sampler
    batch, but each request must keep its *own* RNG stream so its rows
    are bitwise what a solo run would produce.  This shim quacks like the
    one generator :class:`~repro.core.ddim.DDIMSampler` expects: every
    ``standard_normal`` draw over the batch axis is assembled from one
    draw per segment, in segment order, so segment ``i`` consumes exactly
    the stream it would consume alone.
    """

    def __init__(self, rngs, counts):
        self._rngs = list(rngs)
        self._counts = [int(c) for c in counts]
        self._total = sum(self._counts)

    def standard_normal(self, shape) -> np.ndarray:
        shape = tuple(shape)
        if not shape or shape[0] != self._total:
            raise ValueError(
                f"segmented draw expects a leading axis of {self._total}, "
                f"got shape {shape}"
            )
        tail = shape[1:]
        return np.concatenate(
            [rng.standard_normal((count, *tail))
             for rng, count in zip(self._rngs, self._counts)],
            axis=0,
        )


def _shard_worker_pipeline(archive: str) -> "TextToTrafficPipeline":
    pipeline = _WORKER_PIPELINES.get(archive)
    if pipeline is None:
        from repro.core.serialization import load_pipeline

        pipeline = _WORKER_PIPELINES[archive] = load_pipeline(archive)
    return pipeline


def _shard_chunk_worker(
    archive: str,
    out_dir: str,
    class_name: str,
    count: int,
    seed: int,
    index: int,
    opts: dict,
):
    """Generate one chunk in a worker process.

    The chunk result is persisted as an on-disk stage artifact (pickle +
    ``.npy`` sidecars) instead of being shipped back through the result
    pipe; only the perf snapshot delta for this chunk returns, which the
    parent merges so end-to-end counters match a single-process run.
    """
    pipeline = _shard_worker_pipeline(archive)
    from repro.experiments.artifacts import save_stage_result

    perf.reset()
    result = pipeline._generate_chunk(
        class_name, count, _shard_chunk_rng(seed, index), opts
    )
    save_stage_result(result, out_dir)
    return perf.snapshot()


@dataclass
class PipelineConfig:
    """Scale and training knobs for the pipeline.

    Defaults are laptop-sized: the paper's Stable Diffusion base is
    replaced by a latent DDPM whose capacity these fields control.
    ``max_packets`` bounds the image height (the paper's is 1024).
    """

    max_packets: int = 64
    latent_dim: int = 96
    hidden: int = 256
    blocks: int = 4
    cond_dim: int = 64
    time_dim: int = 64
    timesteps: int = 400
    schedule: str = "cosine"  # "cosine" or "linear"
    train_steps: int = 1500
    batch_size: int = 64
    learning_rate: float = 1e-3
    controlnet_steps: int = 500
    cond_dropout: float = 0.1  # classifier-free guidance training dropout
    guidance_weight: float = 2.0
    use_ema: bool = False  # sample from an EMA of the base weights
    ema_decay: float = 0.999
    ddim_steps: int = 40
    generation_batch: int = 256
    seed: int = 0

    def make_schedule(self) -> NoiseSchedule:
        if self.schedule == "cosine":
            return NoiseSchedule.cosine(self.timesteps)
        if self.schedule == "linear":
            return NoiseSchedule.linear(self.timesteps)
        raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass
class GenerationResult:
    """Raw generation artefacts before/after the pcap back-transform.

    The array fields are ``None`` when a streaming caller asked for flows
    only (``yield_arrays=False``) — sharded workers then skip shipping the
    large intermediates across the process boundary.
    """

    #: a lazy Sequence[Flow] over packet columns
    flows: FlowBatch
    #: (n, P, 1088) int8 ternary tensor, structure-repaired: the nprint
    #: matrices ``flows`` were decoded from (before any state repair)
    matrices: np.ndarray | None
    continuous: np.ndarray | None
    gaps: np.ndarray | None
    label: str


class TextToTrafficPipeline:
    """Fine-tune on real flows; generate class-conditional synthetic flows."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.codec = LatentCodec(self.config.latent_dim)
        self.diffusion = GaussianDiffusion(self.config.make_schedule())
        self.codebook: PromptCodebook | None = None
        self.vocab = Vocabulary()
        self.vocab.add(NULL_PROMPT)
        self.vocab.add("traffic")
        self.prompt_encoder: PromptEncoder | None = None
        self.denoiser: ConditionalDenoiser | None = None
        self.controlnet: ControlNetBranch | None = None
        self.class_masks: dict[str, np.ndarray] = {}
        self.class_heights: dict[str, float] = {}
        self.training_history: list[float] = []
        self.controlnet_history: list[float] = []
        # dtype str -> (prompt_encoder, denoiser, controlnet) inference
        # clones; see _inference_modules.
        self._cast_cache: dict[str, tuple] = {}
        # dtype str -> CompiledDenoiser (or None when the module tree is
        # not compilable, e.g. live LoRA adapters); see _infer_engine.
        self._infer_engines: dict[str, object] = {}

    # -- representation -------------------------------------------------------
    def _flow_vector(self, flow: Flow) -> tuple[np.ndarray, np.ndarray]:
        matrix = encode_flow(flow, self.config.max_packets)
        gaps = interarrival_channel(flow, self.config.max_packets)
        return matrix, gaps

    def _vectorize(
        self, matrices: np.ndarray, gap_channels: np.ndarray
    ) -> np.ndarray:
        flat = matrices.reshape(matrices.shape[0], -1).astype(np.float32)
        return np.concatenate(
            [flat, gap_channels.astype(np.float32)], axis=1
        )

    def _devectorize(
        self, vectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        p = self.config.max_packets
        split = p * NPRINT_BITS
        matrices = vectors[:, :split].reshape(-1, p, NPRINT_BITS)
        gap_channels = vectors[:, split:]
        return matrices, gap_channels

    # -- training ----------------------------------------------------------------
    def fit(
        self,
        flows: list[Flow],
        verbose: bool = False,
        memmap_dir: str | None = None,
    ) -> "TextToTrafficPipeline":
        """Fine-tune the base model, then the ControlNet branch.

        ``flows`` must carry labels; the prompt codebook is built from the
        distinct labels in sorted order ("type-0 traffic" etc.).

        ``memmap_dir`` switches on the memory-mapped fit tier: training
        matrices are encoded chunk-by-chunk straight into ``.npy``-backed
        memmaps under that directory and the codec fits blockwise, so the
        full ``(n, max_packets*1088 + max_packets)`` float matrix is never
        materialised in RAM.  Class templates stay bitwise-identical to
        the in-RAM path; codec components (and therefore latents/weights)
        agree to float32 gemm-accumulation tolerance.  The training loop
        itself is memmap-agnostic — batch gathers (``latents[idx]``,
        ``masks[idx]``) copy just the batch rows out of the mapping.
        """
        if not flows:
            raise ValueError("cannot fit on an empty flow list")
        self._invalidate_cast_cache()
        labels = [f.label for f in flows]
        if any(not l for l in labels):
            raise ValueError("every training flow needs a label")
        classes = sorted(set(labels))
        self.codebook = PromptCodebook(classes)
        for name in classes:
            for token in self.codebook.prompt_for(name).split():
                self.vocab.add(token)

        cfg = self.config
        memmap_masks = None
        if memmap_dir is None:
            with perf.timer("pipeline.fit.encode"):
                matrices = encode_flows(flows, cfg.max_packets)
                gap_channels = gaps_to_channel(
                    interarrival_channels(flows, cfg.max_packets)
                )
                vectors = self._vectorize(matrices, gap_channels)
            with perf.timer("pipeline.fit.codec"):
                self.codec.fit(vectors)
                latents = self.codec.encode(vectors)
            self._store_class_templates(matrices, labels)
        else:
            with perf.timer("pipeline.fit.encode"):
                vectors, memmap_masks, heights = (
                    self._encode_training_memmap(flows, memmap_dir)
                )
            with perf.timer("pipeline.fit.codec"):
                self.codec.fit(vectors)
                latents = self.codec.encode(vectors)
            self._store_class_templates_lowmem(memmap_masks, heights, labels)

        self.prompt_encoder = PromptEncoder(self.vocab, cfg.cond_dim,
                                            rng=self._rng)
        self.denoiser = ConditionalDenoiser(
            latent_dim=self.codec.latent_dim,
            hidden=cfg.hidden,
            blocks=cfg.blocks,
            cond_dim=cfg.cond_dim,
            time_dim=cfg.time_dim,
            rng=self._rng,
        )
        prompts = [self.codebook.prompt_for(l) for l in labels]
        with perf.timer("pipeline.fit.train_base"):
            self.training_history = self._train_base(latents, prompts, verbose)

        self.controlnet = ControlNetBranch(cfg.hidden, cfg.blocks,
                                           rng=self._rng)
        masks = (
            memmap_masks
            if memmap_masks is not None
            else np.stack([structure_mask(m) for m in matrices])
        )
        with perf.timer("pipeline.fit.train_controlnet"):
            self.controlnet_history = self._train_controlnet(
                latents, prompts, masks, verbose
            )
        return self

    def _encode_training_memmap(
        self, flows: list[Flow], memmap_dir: str
    ) -> tuple[np.memmap, np.memmap, np.ndarray]:
        """Encode training flows chunkwise into ``.npy``-backed memmaps.

        Returns ``(vectors, masks, heights)``: the float32 ``(n, D)``
        training matrix and float64 ``(n, NPRINT_BITS)`` structure masks
        as writable memmaps under ``memmap_dir``, plus the in-RAM per-flow
        packet counts.  Each chunk's rows are bitwise what the full-batch
        encoder would produce (the encoders are per-flow deterministic),
        so only peak memory changes, not values.
        """
        cfg = self.config
        n = len(flows)
        p = cfg.max_packets
        dim = p * NPRINT_BITS + p
        os.makedirs(memmap_dir, exist_ok=True)
        from repro.experiments.artifacts import create_memmap

        vectors = create_memmap(
            os.path.join(memmap_dir, "train_vectors.npy"), (n, dim), np.float32
        )
        masks = create_memmap(
            os.path.join(memmap_dir, "train_masks.npy"),
            (n, NPRINT_BITS),
            np.float64,
        )
        heights = np.empty(n, dtype=np.float64)
        step = 256
        for start in range(0, n, step):
            batch = flows[start:start + step]
            stop = start + len(batch)
            m = encode_flows(batch, p)
            gaps = gaps_to_channel(interarrival_channels(batch, p))
            vectors[start:stop] = self._vectorize(m, gaps)
            masks[start:stop] = np.stack([structure_mask(x) for x in m])
            heights[start:stop] = [
                float((~np.all(x == -1, axis=1)).sum()) for x in m
            ]
        vectors.flush()
        masks.flush()
        return vectors, masks, heights

    def _store_class_templates_lowmem(
        self, masks: np.ndarray, heights: np.ndarray, labels: list[str]
    ) -> None:
        """Class templates from precomputed per-flow masks/heights.

        Same reductions over the same rows as
        :meth:`_store_class_templates`, so the resulting templates are
        bitwise-identical to the in-RAM fit path.
        """
        labels_arr = np.asarray(labels)
        for name in self.codebook.classes:
            sel = labels_arr == name
            if not sel.any():
                continue
            self.class_masks[name] = np.asarray(masks[sel]).mean(axis=0)
            self.class_heights[name] = float(np.mean(heights[sel]))

    def _store_class_templates(
        self, matrices: np.ndarray, labels: list[str]
    ) -> None:
        """Per-class mean structure mask + mean packet count."""
        labels_arr = np.asarray(labels)
        for name in self.codebook.classes:
            rows = matrices[labels_arr == name]
            if len(rows) == 0:
                continue
            masks = np.stack([structure_mask(m) for m in rows])
            self.class_masks[name] = masks.mean(axis=0)
            heights = [
                float((~np.all(m == -1, axis=1)).sum()) for m in rows
            ]
            self.class_heights[name] = float(np.mean(heights))

    def _train_base(
        self, latents: np.ndarray, prompts: list[str], verbose: bool
    ) -> list[float]:
        cfg = self.config
        params = self.denoiser.parameters() + self.prompt_encoder.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)
        ema = None
        if cfg.use_ema:
            from repro.ml.nn.ema import ExponentialMovingAverage

            ema = [
                ExponentialMovingAverage(self.denoiser, cfg.ema_decay),
                ExponentialMovingAverage(self.prompt_encoder, cfg.ema_decay),
            ]
        history = self._training_loop(
            latents, prompts, optimizer, cfg.train_steps,
            use_control=False, masks=None, verbose=verbose, tag="base",
            ema=ema,
        )
        if ema is not None:
            ema[0].copy_to(self.denoiser)
            ema[1].copy_to(self.prompt_encoder)
        return history

    def _train_controlnet(
        self,
        latents: np.ndarray,
        prompts: list[str],
        masks: np.ndarray,
        verbose: bool,
    ) -> list[float]:
        """Train only the control branch; the base stays frozen."""
        cfg = self.config
        optimizer = Adam(self.controlnet.parameters(),
                         lr=cfg.learning_rate)
        return self._training_loop(
            latents, prompts, optimizer, cfg.controlnet_steps,
            use_control=True, masks=masks, verbose=verbose, tag="controlnet",
        )

    def _training_loop(
        self,
        latents: np.ndarray,
        prompts: list[str],
        optimizer: Adam,
        steps: int,
        use_control: bool,
        masks: np.ndarray | None,
        verbose: bool,
        tag: str,
        ema: list | None = None,
    ) -> list[float]:
        cfg = self.config
        n = len(latents)
        history: list[float] = []
        prompts = list(prompts)
        # Fast path: each distinct prompt is tokenised exactly once, up
        # front.  Per step, the batch conditioning rows are gathered by
        # integer index from the precomputed table and classifier-free
        # guidance dropout is a single vectorized RNG draw that redirects
        # dropped rows to the null prompt (row 0).  The RNG stream and
        # the encoder math are identical to the per-row string path, so
        # losses stay bitwise-equal (pinned by the golden-loss test).
        unique_prompts = [NULL_PROMPT] + sorted(set(prompts) - {NULL_PROMPT})
        prompt_row = {p: i for i, p in enumerate(unique_prompts)}
        row_of = np.array([prompt_row[p] for p in prompts], dtype=np.int64)
        ids_table, mask_table = self.prompt_encoder.prompt_table(
            unique_prompts
        )
        row_lens = mask_table.sum(axis=1).astype(np.int64)
        batch_size = min(cfg.batch_size, n)
        # Compiled engine: walk the module tree once into a fused
        # forward+backward+update plan (bitwise-identical fp64 losses
        # and weights, same RNG stream).  Trees or optimizer states the
        # compiler rejects — live LoRA adapters during add_class, a
        # frozen-parameter mix — fall back to the eager tape below.
        trainer = None
        if _train.train_mode() == "compiled":
            try:
                with perf.timer("pipeline.compile_training"):
                    trainer = _train.compile_training(
                        self.denoiser,
                        self.prompt_encoder,
                        optimizer,
                        controlnet=(
                            self.controlnet
                            if use_control and masks is not None
                            else None
                        ),
                        ema=ema,
                    )
            except _train.CompileError:
                perf.incr("train.fallback_eager")
        if trainer is not None:
            # Steady-state batch-prep buffers for the compiled branch:
            # gathers and the forward-noising products write through
            # these instead of allocating per step.  Values and the RNG
            # stream are identical to the allocating expressions below.
            dim = latents.shape[1]
            b_x0 = np.empty((batch_size, dim))
            b_xt = np.empty((batch_size, dim))
            b_noise = np.empty((batch_size, dim))
            b_scratch = np.empty((batch_size, dim))
            b_rows = np.empty(batch_size, dtype=row_of.dtype)
            b_ids = np.empty(
                (batch_size, ids_table.shape[1]), dtype=ids_table.dtype
            )
            b_mask = np.empty(
                (batch_size, mask_table.shape[1]), dtype=mask_table.dtype
            )
            b_masks = (
                np.empty((batch_size, masks.shape[1]))
                if use_control and masks is not None else None
            )
        for step in range(steps):
            idx = self._rng.integers(0, n, size=batch_size)
            if trainer is not None:
                x0 = latents.take(idx, axis=0, out=b_x0)
            else:
                x0 = latents[idx]
            dropped = self._rng.random(size=batch_size) < cfg.cond_dropout
            if trainer is not None:
                # == np.where(dropped, 0, row_of[idx]) without the temps.
                rows = row_of.take(idx, out=b_rows)
                rows[dropped] = 0
                x_t, t, noise = self.diffusion.sample_training_batch(
                    x0, self._rng, out=(b_xt, b_noise, b_scratch)
                )
                width = int(row_lens[rows].max())
                history.append(trainer.step(
                    x_t, t,
                    ids_table.take(rows, axis=0, out=b_ids)[:, :width],
                    mask_table.take(rows, axis=0, out=b_mask)[:, :width],
                    noise,
                    masks.take(idx, axis=0, out=b_masks)
                    if b_masks is not None else None,
                ))
                if verbose and (step + 1) % 200 == 0:
                    recent = float(np.mean(history[-200:]))
                    print(f"[{tag}] step {step + 1}/{steps} "
                          f"loss {recent:.4f}")
                continue
            rows = np.where(dropped, 0, row_of[idx])
            x_t, t, noise = self.diffusion.sample_training_batch(x0, self._rng)
            # Legacy padded each batch to its own longest tokenisation;
            # slicing to the batch max keeps the arrays bitwise-matching.
            width = int(row_lens[rows].max())
            cond = self.prompt_encoder.forward_ids(
                ids_table[rows, :width], mask_table[rows, :width]
            )
            controls = None
            if use_control and masks is not None:
                controls = self.controlnet(masks[idx])
            eps = self.denoiser(Tensor(x_t), t, cond, controls)
            loss = mse_loss(eps, noise)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            if ema is not None:
                ema[0].update(self.denoiser)
                ema[1].update(self.prompt_encoder)
            history.append(float(loss.data))
            if verbose and (step + 1) % 200 == 0:
                recent = float(np.mean(history[-200:]))
                print(f"[{tag}] step {step + 1}/{steps} loss {recent:.4f}")
        return history

    # -- sampling ---------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.denoiser is None or self.codebook is None:
            raise RuntimeError("pipeline is not fitted")

    def _invalidate_cast_cache(self) -> None:
        cache = getattr(self, "_cast_cache", None)
        if cache:
            cache.clear()
        engines = getattr(self, "_infer_engines", None)
        if engines:
            engines.clear()

    def _inference_modules(self, dtype):
        """(prompt_encoder, denoiser, controlnet) at inference precision.

        ``dtype=None`` (or float64) returns the live training modules —
        the unchanged default path.  Other dtypes return cached
        :func:`~repro.ml.nn.modules.cast_module` clones, built once per
        dtype and invalidated whenever the weights change (fit /
        add_class).
        """
        if dtype is None or np.dtype(dtype) == np.float64:
            return self.prompt_encoder, self.denoiser, self.controlnet
        cache = getattr(self, "_cast_cache", None)
        if cache is None:
            cache = self._cast_cache = {}
        key = np.dtype(dtype).str
        clones = cache.get(key)
        if clones is None:
            from repro.ml.nn import cast_module

            with perf.timer("pipeline.cast_modules"):
                clones = (
                    cast_module(self.prompt_encoder, dtype),
                    cast_module(self.denoiser, dtype),
                    cast_module(self.controlnet, dtype)
                    if self.controlnet is not None else None,
                )
            cache[key] = clones
        return clones

    def _infer_engine(self, dtype):
        """The cached :class:`~repro.core.infer.CompiledDenoiser`, or None.

        Built once per dtype from the same modules the eager path uses
        and invalidated alongside the cast cache whenever the weights
        change (fit / add_class).  ``None`` is cached when the module
        tree is not compilable — live LoRA adapters before
        ``merge_lora`` — so the eager fallback is decided once, not per
        batch.
        """
        engines = getattr(self, "_infer_engines", None)
        if engines is None:
            engines = self._infer_engines = {}
        key = np.dtype(dtype or np.float64).str
        if key not in engines:
            _, denoiser, _ = self._inference_modules(dtype)
            try:
                with perf.timer("pipeline.compile_denoiser"):
                    engines[key] = _infer.compile_denoiser(
                        denoiser,
                        batch=self.config.generation_batch,
                        dtype=dtype,
                    )
            except _infer.CompileError:
                perf.incr("infer.fallback_eager")
                engines[key] = None
        return engines[key]

    def _compiled_eps_model(
        self,
        prompt: str,
        n: int,
        mask: np.ndarray | None,
        guidance_weight: float,
        dtype=None,
    ):
        """Compiled-engine eps closure, or None to fall back to eager.

        Closures are cached on the engine per (prompt, rows, weight,
        masked) — the projected class conditioning, ControlNet
        injections and per-step time embeddings survive across batches,
        chunks and the lifetime of a sharded worker process, so a
        streaming run pays the conditioning hoist exactly once.
        """
        engine = self._infer_engine(dtype)
        if engine is None:
            return None
        key = (prompt, int(n), float(guidance_weight), mask is not None)
        cached = engine.eps_cache.get(key)
        if cached is not None:
            perf.incr("infer.eps_cache_hit")
            return cached
        prompt_encoder, _, controlnet = self._inference_modules(dtype)
        with perf.timer("pipeline.hoist_conditioning"):
            cond_full = prompt_encoder([prompt] * n).data
            null_full = (
                prompt_encoder([NULL_PROMPT] * n).data
                if guidance_weight > 0 else None
            )
            controls_full = None
            if mask is not None and controlnet is not None:
                mask_batch = np.ascontiguousarray(
                    np.broadcast_to(mask, (n, mask.shape[0]))
                )
                if dtype is not None:
                    mask_batch = mask_batch.astype(dtype, copy=False)
                controls_full = controlnet.forward_data(mask_batch)
        return engine.eps_model(
            cond_full, null_full, guidance_weight,
            controls=controls_full, key=key,
        )

    def _eps_model(
        self,
        prompt: str,
        n: int,
        mask: np.ndarray | None,
        guidance_weight: float,
        dtype=None,
    ):
        """Closure evaluating (classifier-free-guided) noise prediction.

        Fast path: prompts and the control mask are loop-invariant across
        DDIM steps, so their encodings are hoisted out of the closure and
        computed exactly once per sampler batch.  With guidance on, the
        conditional and unconditional denoiser passes are fused into a
        single ``2m``-row forward (the null half receives zero control
        injections, reproducing ``controls=None``) — one denoiser call per
        step instead of two, and zero prompt/ControlNet re-encodes inside
        the step loop.

        Under ``REPRO_INFER=compiled`` the closure instead comes from the
        no-tape compiled plan (:mod:`repro.core.infer`) — bitwise-equal
        at float64, conditioning cached across chunks — with a silent
        eager fallback when the module tree is not compilable.
        """
        if _infer.infer_mode() == "compiled":
            compiled = self._compiled_eps_model(
                prompt, n, mask, guidance_weight, dtype=dtype
            )
            if compiled is not None:
                return compiled
        prompt_encoder, denoiser, controlnet = self._inference_modules(dtype)
        with perf.timer("pipeline.hoist_conditioning"):
            cond_full = prompt_encoder([prompt] * n).data
            null_full = (
                prompt_encoder([NULL_PROMPT] * n).data
                if guidance_weight > 0 else None
            )
            controls_full = None
            if mask is not None and controlnet is not None:
                # broadcast_to yields a read-only zero-stride view;
                # materialize it so downstream reshapes are cheap and the
                # batch is a normal writable array.
                mask_batch = np.ascontiguousarray(
                    np.broadcast_to(mask, (n, mask.shape[0]))
                )
                if dtype is not None:
                    mask_batch = mask_batch.astype(dtype, copy=False)
                controls_full = [c.data for c in controlnet(mask_batch)]

        def eps(x_t: np.ndarray, t: np.ndarray) -> np.ndarray:
            m = len(x_t)
            if guidance_weight <= 0:
                controls = None
                if controls_full is not None:
                    controls = [Tensor(c[:m]) for c in controls_full]
                return denoiser(
                    Tensor(x_t), t, Tensor(cond_full[:m]), controls
                ).data
            # Fused classifier-free guidance: [cond rows; null rows].
            x2 = np.concatenate([x_t, x_t], axis=0)
            t2 = np.concatenate([t, t], axis=0)
            c2 = Tensor(np.concatenate([cond_full[:m], null_full[:m]], axis=0))
            controls2 = None
            if controls_full is not None:
                controls2 = [
                    Tensor(np.concatenate(
                        [c[:m], np.zeros_like(c[:m])], axis=0))
                    for c in controls_full
                ]
            out = denoiser(Tensor(x2), t2, c2, controls2).data
            eps_cond, eps_null = out[:m], out[m:]
            return (1 + guidance_weight) * eps_cond - guidance_weight * eps_null

        return eps

    def sample_latents(
        self,
        class_name: str,
        n: int,
        steps: int | None = None,
        use_control: bool = True,
        guidance_weight: float | None = None,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> np.ndarray:
        """Sample ``n`` latent vectors for ``class_name`` via DDIM.

        ``dtype=np.float32`` runs the whole denoiser stack in single
        precision (the fast inference tier); ``None`` keeps the float64
        default bit-for-bit.  The RNG stream is dtype-independent.
        """
        self._require_fitted()
        if n < 1:
            raise ValueError("n must be >= 1")
        cfg = self.config
        rng = rng or self._rng
        steps = steps or cfg.ddim_steps
        weight = cfg.guidance_weight if guidance_weight is None else guidance_weight
        prompt = self.codebook.prompt_for(class_name)
        mask = self.class_masks.get(class_name) if use_control else None
        sampler = DDIMSampler(self.diffusion)
        out = []
        remaining = n
        with perf.timer("pipeline.sample_latents"):
            while remaining > 0:
                batch = min(remaining, cfg.generation_batch)
                perf.incr("pipeline.sample_batches")
                eps = self._eps_model(prompt, batch, mask, weight,
                                      dtype=dtype)
                z = sampler.sample(eps, (batch, self.codec.latent_dim), rng,
                                   steps=steps, dtype=dtype)
                out.append(z)
                remaining -= batch
        perf.incr("pipeline.sampled_flows", n)
        return np.concatenate(out, axis=0)

    def generate_raw(
        self,
        class_name: str,
        n: int,
        steps: int | None = None,
        use_control: bool = True,
        hard_guidance: bool = True,
        guidance_weight: float | None = None,
        state_repair: bool = False,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> GenerationResult:
        """Generate flows and return every intermediate artefact.

        ``state_repair`` additionally rebuilds cross-packet protocol state
        (handshake, sequence numbers) so the flows replay cleanly through
        stateful network functions — the §4 open-challenge extension; see
        :mod:`repro.core.staterepair`.
        """
        self._require_fitted()
        if class_name not in self.class_masks:
            raise KeyError(f"unknown class {class_name!r}")
        latents = self.sample_latents(
            class_name, n, steps=steps, use_control=use_control,
            guidance_weight=guidance_weight, rng=rng, dtype=dtype,
        )
        return self._finalize_latents(
            latents, class_name, hard_guidance=hard_guidance,
            state_repair=state_repair, rng=rng,
        )

    def _finalize_latents(
        self,
        latents: np.ndarray,
        class_name: str,
        hard_guidance: bool = True,
        state_repair: bool = False,
        rng: np.random.Generator | None = None,
    ) -> GenerationResult:
        """Latents -> decoded, structure-guided, labelled flows.

        The second half of :meth:`generate_raw`, shared verbatim with the
        streaming path so chunked generation is byte-identical to batch.
        """
        with perf.timer("pipeline.finalize_latents"):
            vectors = self.codec.decode(latents)
            result = self._emit(vectors, class_name, hard_guidance)
            if state_repair:
                # Batch repair assigns distinct client ports so flows from
                # one generation call never collide on a 5-tuple at replay.
                result.flows = repair_flows_state(result.flows,
                                                  rng or self._rng)
        return result

    def _emit(
        self,
        vectors: np.ndarray,
        class_name: str,
        hard_guidance: bool,
    ) -> GenerationResult:
        """Decoded codec vectors -> one columnar FlowBatch (no state repair).

        Guidance and quantisation, structure repair and decoding each run
        once over the whole ``(n, P, 1088)`` tensor.
        """
        continuous, gap_channels = self._devectorize(vectors)
        if hard_guidance:
            ternary = apply_structure_guidance(
                continuous, self.class_masks[class_name], quantise=True
            )
        else:
            ternary = continuous  # quantised by matrix_to_flow
        flows = matrix_to_flow(
            ternary, gaps_channel=gap_channels, label=class_name
        )
        # The repaired ternary tensor moves to the result, so flows
        # handed on alone do not keep it alive.
        matrices, flows.matrices = flows.matrices, None
        return GenerationResult(
            flows=flows,
            matrices=matrices,
            continuous=continuous,
            gaps=channel_to_gaps(gap_channels),
            label=class_name,
        )

    def _generate_chunk(
        self,
        class_name: str,
        count: int,
        rng: np.random.Generator,
        opts: dict,
    ) -> GenerationResult:
        """One stream chunk: sample -> decode -> flows (shared with workers)."""
        latents = self.sample_latents(
            class_name, count, steps=opts["steps"],
            use_control=opts["use_control"],
            guidance_weight=opts["guidance_weight"], rng=rng,
            dtype=opts["dtype"],
        )
        result = self._finalize_latents(
            latents, class_name, hard_guidance=opts["hard_guidance"],
            state_repair=opts["state_repair"], rng=rng,
        )
        if not opts["yield_arrays"]:
            result = GenerationResult(
                flows=result.flows, matrices=None, continuous=None,
                gaps=None, label=result.label,
            )
        return result

    def generate_stream(
        self,
        class_name: str,
        n: int,
        chunk: int | None = None,
        steps: int | None = None,
        use_control: bool = True,
        hard_guidance: bool = True,
        guidance_weight: float | None = None,
        state_repair: bool = False,
        rng: np.random.Generator | None = None,
        dtype=None,
        workers: int | None = None,
        seed: int | None = None,
        shard_dir: str | None = None,
        yield_arrays: bool = True,
    ):
        """Generate ``n`` flows lazily, one :class:`GenerationResult` chunk
        at a time, with peak memory bounded by the chunk size.

        Each chunk runs ``sample_latents -> decode -> flows`` for at most
        ``chunk`` flows (default: 4x ``generation_batch``) and is yielded
        before the next begins, so a million-flow run never materialises
        more than one chunk of intermediates.

        **Sequential mode** (``workers=None``, the default): one shared
        ``rng`` drives every chunk in order.  With ``state_repair=False``
        and ``chunk`` a multiple of ``generation_batch``, the concatenated
        stream is bitwise-identical to one :meth:`generate_raw` call under
        the same rng — including when ``n % chunk != 0``: the short tail
        chunk splits into the same trailing batch shapes the batch path
        uses, so the RNG stream is consumed identically.  A ``chunk`` that
        is *not* a multiple of ``generation_batch`` changes the sequence
        of sampler batch shapes and therefore yields different (equally
        deterministic and valid) flows than the batch path.
        ``state_repair=True`` draws client ports per chunk rather than
        once up front, which changes the port assignment (but not its
        distribution) relative to the batch path.

        **Sharded mode** (``workers=N``): chunk ``i`` is generated from
        the deterministic RNG ``default_rng([seed, salt, i])``, so output
        depends only on ``(seed, chunk, n)`` — never on the worker count —
        and ``workers=1`` (run in-process) is byte-identical to
        ``workers=2+`` (fanned out to worker processes).  Workers load
        their fitted-pipeline copies from a content-addressed archive
        (``shard_dir``, defaulting to ``REPRO_CACHE_DIR`` or a run-scoped
        temp dir), persist chunk results as on-disk artifacts, and return
        `repro.perf` snapshots that are merged into this process, so
        counters match a single-process run.  Chunks are yielded strictly
        in index order.  ``seed`` defaults to ``config.seed``; passing an
        explicit ``rng`` is an error in sharded mode (a shared generator
        cannot be split deterministically across processes).
        ``yield_arrays=False`` drops the large array intermediates from
        each result (flows only) — worth it in sharded mode, where the
        arrays would otherwise be written to and read back from disk.
        """
        self._require_fitted()
        if class_name not in self.class_masks:
            raise KeyError(f"unknown class {class_name!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if chunk is None:
            chunk = 4 * self.config.generation_batch
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        opts = {
            "steps": steps,
            "use_control": use_control,
            "hard_guidance": hard_guidance,
            "guidance_weight": guidance_weight,
            "state_repair": state_repair,
            "dtype": dtype,
            "yield_arrays": yield_arrays,
        }
        if workers is not None:
            if workers < 1:
                raise ValueError("workers must be >= 1")
            if rng is not None:
                raise ValueError(
                    "sharded generation derives per-chunk seeds; "
                    "pass seed=..., not rng=..."
                )
            yield from self._generate_stream_sharded(
                class_name, n, chunk, workers,
                self.config.seed if seed is None else seed,
                shard_dir, opts,
            )
            return
        rng = rng or self._rng
        remaining = n
        while remaining > 0:
            m = min(chunk, remaining)
            latents = self.sample_latents(
                class_name, m, steps=steps, use_control=use_control,
                guidance_weight=guidance_weight, rng=rng, dtype=dtype,
            )
            perf.incr("pipeline.stream_chunks")
            result = self._finalize_latents(
                latents, class_name, hard_guidance=hard_guidance,
                state_repair=state_repair, rng=rng,
            )
            if not yield_arrays:
                result = GenerationResult(
                    flows=result.flows, matrices=None, continuous=None,
                    gaps=None, label=result.label,
                )
            yield result
            remaining -= m

    def _ensure_shard_archive(
        self, shard_dir: str | None
    ) -> tuple[str, str | None]:
        """(archive path, temp dir to clean up or None) for sharded mode."""
        from repro.core.serialization import ensure_pipeline_archive

        created = None
        if shard_dir is None:
            shard_dir = os.environ.get("REPRO_CACHE_DIR")
        if shard_dir is None:
            shard_dir = created = tempfile.mkdtemp(prefix="repro-shard-")
        try:
            archive = ensure_pipeline_archive(self, shard_dir)
        except BaseException:
            if created is not None:
                shutil.rmtree(created, ignore_errors=True)
            raise
        return str(archive), created

    def _generate_stream_sharded(
        self,
        class_name: str,
        n: int,
        chunk: int,
        workers: int,
        seed: int,
        shard_dir: str | None,
        opts: dict,
    ):
        counts = [min(chunk, n - start) for start in range(0, n, chunk)]
        if workers == 1:
            # In-process reference: same per-chunk RNG scheme, no pool.
            for index, count in enumerate(counts):
                result = self._generate_chunk(
                    class_name, count, _shard_chunk_rng(seed, index), opts
                )
                perf.incr("pipeline.stream_chunks")
                perf.incr("pipeline.shard_chunks")
                yield result
            return
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.artifacts import load_stage_result

        archive, tmp_shard_dir = self._ensure_shard_archive(shard_dir)
        artifact_root = tempfile.mkdtemp(prefix="repro-shard-chunks-")
        executor = ProcessPoolExecutor(max_workers=workers)
        futures: dict[int, object] = {}
        # Bounded submission window: enough chunks in flight to keep every
        # worker busy, few enough that completed-but-unconsumed results
        # never pile up on disk faster than the consumer drains them.
        window = workers + 2

        def _submit(index: int) -> None:
            futures[index] = executor.submit(
                _shard_chunk_worker, archive,
                os.path.join(artifact_root, f"chunk-{index:06d}"),
                class_name, counts[index], seed, index, opts,
            )

        try:
            for index in range(min(window, len(counts))):
                _submit(index)
            for index in range(len(counts)):
                snapshot = futures.pop(index).result()
                if index + window < len(counts):
                    _submit(index + window)
                perf.merge_snapshot(snapshot)
                perf.incr("pipeline.stream_chunks")
                perf.incr("pipeline.shard_chunks")
                chunk_dir = os.path.join(
                    artifact_root, f"chunk-{index:06d}"
                )
                # Plain in-RAM load (not mmap) so the chunk dir can be
                # reclaimed as soon as the result is yielded.
                result = load_stage_result(chunk_dir, mmap_mode=None)
                shutil.rmtree(chunk_dir, ignore_errors=True)
                yield result
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
            shutil.rmtree(artifact_root, ignore_errors=True)
            if tmp_shard_dir is not None:
                shutil.rmtree(tmp_shard_dir, ignore_errors=True)

    def generate_coalesced(
        self,
        class_name: str,
        parts: list[tuple[int, np.random.Generator]],
        steps: int | None = None,
        use_control: bool = True,
        hard_guidance: bool = True,
        guidance_weight: float | None = None,
        state_repair: bool = False,
        dtype=None,
    ) -> list[GenerationResult]:
        """Sample several requests' flows in ONE fused DDIM run.

        ``parts`` is one ``(count, rng)`` pair per request.  All parts
        share a single sampler batch — one denoiser forward per DDIM step
        for the whole group instead of one per request — but every part
        draws its initial latents and per-step noise from its *own*
        generator (:class:`_SegmentedRNG`).  Guidance, repair and decoding
        run once over the whole group; state repair runs per part with
        that part's rng.

        Determinism contract (pinned by ``tests/test_serve.py``): each
        part's flows are byte-identical to a solo
        ``generate_raw(class_name, count, rng=rng)`` call with the same
        options, for ``count <= generation_batch`` — whatever the other
        parts in the group are, and in whatever order they appear.  This
        is what lets the serving tier micro-batch concurrent requests
        without perturbing any single request's output.
        """
        self._require_fitted()
        if class_name not in self.class_masks:
            raise KeyError(f"unknown class {class_name!r}")
        if not parts:
            raise ValueError("parts must be non-empty")
        counts = [int(count) for count, _ in parts]
        if any(count < 1 for count in counts):
            raise ValueError("every part count must be >= 1")
        cfg = self.config
        steps = steps or cfg.ddim_steps
        weight = (
            cfg.guidance_weight if guidance_weight is None
            else guidance_weight
        )
        prompt = self.codebook.prompt_for(class_name)
        mask = self.class_masks.get(class_name) if use_control else None
        total = sum(counts)
        sampler = DDIMSampler(self.diffusion)
        seg_rng = _SegmentedRNG([rng for _, rng in parts], counts)
        with perf.timer("pipeline.sample_latents"):
            perf.incr("pipeline.sample_batches")
            eps = self._eps_model(prompt, total, mask, weight, dtype=dtype)
            latents = sampler.sample(
                eps, (total, self.codec.latent_dim), seg_rng,
                steps=steps, dtype=dtype,
            )
        perf.incr("pipeline.sampled_flows", total)
        perf.incr("pipeline.coalesced_parts", len(parts))
        # The codec decodes each part's rows on their own: a GEMM's
        # rounding depends on its row count, and each part must match a
        # solo run.  Everything after it is row-exact, so it runs once.
        bounds = np.cumsum([0] + counts)
        results: list[GenerationResult] = []
        with perf.timer("pipeline.finalize_latents"):
            vectors = np.concatenate([
                self.codec.decode(latents[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ])
            whole = self._emit(vectors, class_name, hard_guidance)
            for (_, rng), lo, hi in zip(parts, bounds[:-1], bounds[1:]):
                flows = whole.flows[lo:hi]
                if state_repair:
                    flows = repair_flows_state(flows, rng)
                results.append(GenerationResult(
                    flows=flows,
                    matrices=whole.matrices[lo:hi],
                    continuous=whole.continuous[lo:hi],
                    gaps=whole.gaps[lo:hi],
                    label=class_name,
                ))
        return results

    def generate(
        self,
        class_name: str,
        n: int,
        **kwargs,
    ) -> list[Flow]:
        """Generate ``n`` labelled synthetic flows for ``class_name``."""
        return list(self.generate_raw(class_name, n, **kwargs).flows)

    def generate_balanced(
        self, n_per_class: int, **kwargs
    ) -> list[Flow]:
        """Invoke generation equally per class (§3.2 'Coverage').

        The paper's balanced-coverage recipe: "to create a balanced
        synthetic network dataset spanning all classes ... we merely
        invoke the generation process an equal number of times for each."
        """
        self._require_fitted()
        flows: list[Flow] = []
        for name in self.codebook.classes:
            flows.extend(self.generate(name, n_per_class, **kwargs))
        return flows

    # -- coverage extension (LoRA) ----------------------------------------------
    def add_class(
        self,
        class_name: str,
        flows: list[Flow],
        rank: int = 4,
        steps: int = 400,
        verbose: bool = False,
    ) -> list[float]:
        """Add a new traffic class to a frozen base model via LoRA.

        New prompt tokens are minted for the class; LoRA adapters absorb
        the new distribution while base weights stay untouched (asserted
        by the test suite).  Returns the fine-tuning loss history.
        """
        self._require_fitted()
        if not flows:
            raise ValueError("need flows for the new class")
        self._invalidate_cast_cache()
        cfg = self.config
        prompt = self.codebook.add_class(class_name)
        for token in prompt.split():
            self.vocab.add(token)
        self.prompt_encoder.grow_to_vocab()

        with perf.timer("pipeline.add_class.encode"):
            matrices = encode_flows(flows, cfg.max_packets)
            gap_channels = gaps_to_channel(
                interarrival_channels(flows, cfg.max_packets)
            )
            vectors = self._vectorize(matrices, gap_channels)
        latents = self.codec.encode(vectors)
        labels = [class_name] * len(flows)
        self._append_class_templates(matrices, class_name)

        adapters = inject_lora(self.denoiser, rank=rank, rng=self._rng)
        if not adapters:
            raise RuntimeError("no linear layers found to adapt")
        params = lora_parameters(self.denoiser)
        params.extend(self.prompt_encoder.parameters())
        optimizer = Adam(params, lr=cfg.learning_rate)
        prompts = [prompt] * len(flows)
        return self._training_loop(
            latents, prompts, optimizer, steps,
            use_control=False, masks=None, verbose=verbose, tag="lora",
        )

    def _append_class_templates(
        self, matrices: np.ndarray, class_name: str
    ) -> None:
        masks = np.stack([structure_mask(m) for m in matrices])
        self.class_masks[class_name] = masks.mean(axis=0)
        heights = [float((~np.all(m == -1, axis=1)).sum()) for m in matrices]
        self.class_heights[class_name] = float(np.mean(heights))

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

    A sampler batch may hold rows of several parts (served requests, or
    one generation's slice), but each part must keep its *own* RNG stream
    so its rows are bitwise what a solo run would produce.  This shim
    quacks like the one generator :class:`~repro.core.ddim.DDIMSampler`
    expects: every ``standard_normal`` draw over the batch axis is
    assembled from one draw per segment, in segment order, so segment
    ``i`` consumes exactly the stream it would consume alone.
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


def _shard_chunk_worker(
    archive: str,
    class_name: str,
    count: int,
    seed: int,
    index: int,
    **options,
):
    """Generate chunk ``index`` of a sharded run in a worker process.

    Returns the chunk's result, through the pool's result pipe, with this
    chunk's `repro.perf` snapshot, which the parent merges so end-to-end
    counters match a single-process run.
    """
    pipeline = _WORKER_PIPELINES.get(archive)
    if pipeline is None:
        from repro.core.serialization import load_pipeline

        pipeline = _WORKER_PIPELINES[archive] = load_pipeline(archive)
    perf.reset()
    (result,) = pipeline._generate(
        class_name, [(count, _shard_chunk_rng(seed, index))], **options
    )
    return result, perf.snapshot()


def _structure_stats(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-flow structure masks and packet counts of nprint matrices."""
    masks = np.stack([structure_mask(m) for m in matrices])
    heights = (~np.all(matrices == -1, axis=2)).sum(axis=1)
    return masks, heights.astype(np.float64)


def _module_tree(*roots) -> list:
    """Every module under ``roots`` (``None`` skipped), depth-first."""
    tree = []
    stack = [root for root in reversed(roots) if root is not None]
    while stack:
        module = stack.pop()
        tree.append(module)
        stack.extend(reversed(module._modules.values()))
    return tree


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
        # dtype str -> CompiledDenoiser; see _infer_engine.
        self._infer_engines: dict[str, object] = {}
        # the module tree both caches were built from; see _inference_caches
        self._cache_tree: list | None = None

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
        if memmap_dir is None:
            with perf.timer("pipeline.fit.encode"):
                matrices = encode_flows(flows, cfg.max_packets)
                gap_channels = gaps_to_channel(
                    interarrival_channels(flows, cfg.max_packets)
                )
                vectors = self._vectorize(matrices, gap_channels)
            masks, heights = _structure_stats(matrices)
        else:
            with perf.timer("pipeline.fit.encode"):
                vectors, masks, heights = (
                    self._encode_training_memmap(flows, memmap_dir)
                )
        with perf.timer("pipeline.fit.codec"):
            self.codec.fit(vectors)
            latents = self.codec.encode(vectors)
        self._store_class_templates(masks, heights, labels)

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
            masks[start:stop], heights[start:stop] = _structure_stats(m)
        vectors.flush()
        masks.flush()
        return vectors, masks, heights

    def _store_class_templates(
        self, masks: np.ndarray, heights: np.ndarray, labels: list[str]
    ) -> None:
        """Per-class mean structure mask + mean packet count, from the
        per-flow masks and heights of :func:`_structure_stats` (in RAM or
        memory-mapped)."""
        labels_arr = np.asarray(labels)
        for name in self.codebook.classes:
            sel = labels_arr == name
            if not sel.any():
                continue
            self.class_masks[name] = np.asarray(masks[sel]).mean(axis=0)
            self.class_heights[name] = float(np.mean(heights[sel]))

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
                perf.incr("train.eager_fallback")
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
        self._cast_cache.clear()
        self._infer_engines.clear()
        self._cache_tree = None

    def _inference_caches(self) -> tuple[dict, dict]:
        """The (cast clones, engines) caches, for the current module tree.

        Both caches are emptied first when the live modules are no longer
        the ones they were built from — e.g. after
        :func:`~repro.core.lora.merge_lora` swapped the adapters for dense
        layers — so sampling never runs a stale tree.
        """
        tree = _module_tree(self.prompt_encoder, self.denoiser,
                            self.controlnet)
        # Modules compare by identity.
        if self._cache_tree is not None and self._cache_tree != tree:
            self._invalidate_cast_cache()
        self._cache_tree = tree
        return self._cast_cache, self._infer_engines

    def _inference_modules(self, dtype):
        """(prompt_encoder, denoiser, controlnet) at inference precision.

        ``dtype=None`` (or float64) returns the live training modules —
        the unchanged default path.  Other dtypes return cached
        :func:`~repro.ml.nn.modules.cast_module` clones, built once per
        dtype and invalidated whenever the weights change (fit /
        add_class) or the module tree does (merge_lora).
        """
        cache, _ = self._inference_caches()
        if dtype is None or np.dtype(dtype) == np.float64:
            return self.prompt_encoder, self.denoiser, self.controlnet
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
        """The cached :class:`~repro.core.infer.CompiledDenoiser`.

        Built once per dtype from the inference modules and invalidated
        alongside the cast cache.  A module tree the plan cannot express
        raises :class:`~repro.core.infer.CompileError`.
        """
        _, engines = self._inference_caches()
        key = np.dtype(dtype or np.float64).str
        engine = engines.get(key)
        if engine is None:
            prompt_encoder, denoiser, controlnet = (
                self._inference_modules(dtype)
            )
            with perf.timer("pipeline.compile_denoiser"):
                engine = engines[key] = _infer.compile_denoiser(
                    denoiser,
                    batch=self.config.generation_batch,
                    dtype=dtype,
                    prompt_encoder=prompt_encoder,
                    controlnet=controlnet,
                )
        return engine

    def sample_latents(
        self,
        class_name: str,
        n: int | list[tuple[int, np.random.Generator]],
        steps: int | None = None,
        use_control: bool = True,
        guidance_weight: float | None = None,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> np.ndarray:
        """Sample latent vectors for ``class_name`` via DDIM.

        ``n`` is a flow count drawn from ``rng``, or a list of
        ``(count, rng)`` parts.  Sampler batch ``j`` holds the ``j``-th
        ``generation_batch`` slice of every part, and each part draws from
        its own generator (:class:`_SegmentedRNG`), so its rows are
        bitwise what sampling it alone would give.  Rows return in part
        order.

        Each batch runs the compiled plan (:mod:`repro.core.infer`) with
        classifier-free guidance fused into one ``2m``-row forward per
        step; the prompt and control projections come from the engine's
        conditioning caches, shared by every batch, chunk and request.

        ``dtype=np.float32`` runs the whole denoiser stack in single
        precision (the fast inference tier); ``None`` keeps the float64
        default bit-for-bit.  The RNG stream is dtype-independent.
        """
        self._require_fitted()
        parts = (
            [(n, rng or self._rng)] if isinstance(n, (int, np.integer))
            else list(n)
        )
        counts = [int(count) for count, _ in parts]
        if not counts or min(counts) < 1:
            raise ValueError("n must be >= 1")
        cfg = self.config
        steps = steps or cfg.ddim_steps
        weight = cfg.guidance_weight if guidance_weight is None else guidance_weight
        prompt = self.codebook.prompt_for(class_name)
        mask = self.class_masks.get(class_name) if use_control else None
        sampler = DDIMSampler(self.diffusion)
        size = cfg.generation_batch
        out: list[list[np.ndarray]] = [[] for _ in parts]
        with perf.timer("pipeline.sample_latents"):
            engine = self._infer_engine(dtype)
            for start in range(0, max(counts), size):
                live = [i for i, count in enumerate(counts) if count > start]
                rows = [min(size, counts[i] - start) for i in live]
                total = sum(rows)
                perf.incr("pipeline.sample_batches")
                with perf.timer("pipeline.hoist_conditioning"):
                    eps = engine.eps_model(
                        prompt, NULL_PROMPT, weight, mask=mask, rows=total,
                    )
                z = sampler.sample(
                    eps, (total, self.codec.latent_dim),
                    _SegmentedRNG([parts[i][1] for i in live], rows),
                    steps=steps, dtype=dtype,
                )
                offsets = np.cumsum([0] + rows)
                for i, lo, hi in zip(live, offsets[:-1], offsets[1:]):
                    out[i].append(z[lo:hi])
        perf.incr("pipeline.sampled_flows", sum(counts))
        return np.concatenate([z for part in out for z in part])

    def _generate(
        self,
        class_name: str,
        parts: list[tuple[int, np.random.Generator]],
        steps: int | None = None,
        use_control: bool = True,
        hard_guidance: bool = True,
        guidance_weight: float | None = None,
        state_repair: bool = False,
        dtype=None,
        arrays: bool = True,
    ) -> list[GenerationResult]:
        """The generation core behind every public entry point.

        Samples ``parts`` (``(count, rng)`` pairs) in shared sampler
        batches (:meth:`sample_latents`), codec-decodes each part on its
        own — a GEMM's rounding depends on its row count, and each part
        must match a solo run — and emits them all at once: guidance,
        repair and decoding are row-exact.  State repair then runs per
        part with that part's rng, after its sampling draws, and assigns
        distinct client ports so one part's flows never collide on a
        5-tuple at replay.  ``arrays=False`` keeps only the flows.
        """
        self._require_fitted()
        if class_name not in self.class_masks:
            raise KeyError(f"unknown class {class_name!r}")
        latents = self.sample_latents(
            class_name, parts, steps=steps, use_control=use_control,
            guidance_weight=guidance_weight, dtype=dtype,
        )
        bounds = np.cumsum([0] + [int(count) for count, _ in parts])
        results: list[GenerationResult] = []
        with perf.timer("pipeline.finalize_latents"):
            if len(parts) == 1:
                vectors = self.codec.decode(latents)
            else:
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
                    matrices=whole.matrices[lo:hi] if arrays else None,
                    continuous=whole.continuous[lo:hi] if arrays else None,
                    gaps=whole.gaps[lo:hi] if arrays else None,
                    label=class_name,
                ))
        return results

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
        (result,) = self._generate(
            class_name, [(n, rng or self._rng)], steps=steps,
            use_control=use_control, hard_guidance=hard_guidance,
            guidance_weight=guidance_weight, state_repair=state_repair,
            dtype=dtype,
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

        Each chunk is one generation of at most ``chunk`` flows (default:
        4x ``generation_batch``) and is yielded before the next begins, so
        a million-flow run never materialises more than one chunk of
        intermediates.

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
        temp dir) and return each chunk's result with its `repro.perf`
        snapshot through the pool's result pipe; the snapshots are merged
        into this process, so counters match a single-process run.  Chunks
        are yielded strictly in index order.  ``seed`` defaults to
        ``config.seed``; passing an explicit ``rng`` is an error in sharded
        mode (a shared generator cannot be split deterministically across
        processes).  ``yield_arrays=False`` drops the large array
        intermediates from each result (flows only) — worth it in sharded
        mode, where the arrays would otherwise cross the process boundary.
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
        sharded = workers is not None
        if sharded:
            if workers < 1:
                raise ValueError("workers must be >= 1")
            if rng is not None:
                raise ValueError(
                    "sharded generation derives per-chunk seeds; "
                    "pass seed=..., not rng=..."
                )
            seed = self.config.seed if seed is None else seed
        rng = rng or self._rng
        options = dict(
            steps=steps, use_control=use_control,
            hard_guidance=hard_guidance, guidance_weight=guidance_weight,
            state_repair=state_repair, dtype=dtype, arrays=yield_arrays,
        )
        counts = [min(chunk, n - start) for start in range(0, n, chunk)]
        if sharded and workers > 1:
            results = self._sharded_results(
                class_name, counts, workers, seed, shard_dir, options
            )
        else:
            results = (
                self._generate(
                    class_name,
                    [(count,
                      _shard_chunk_rng(seed, index) if sharded else rng)],
                    **options,
                )[0]
                for index, count in enumerate(counts)
            )
        for result in results:
            perf.incr("pipeline.stream_chunks")
            if sharded:
                perf.incr("pipeline.shard_chunks")
            yield result

    def _sharded_results(
        self,
        class_name: str,
        counts: list[int],
        workers: int,
        seed: int,
        shard_dir: str | None,
        options: dict,
    ):
        """Chunk results from a pool of ``workers`` processes, in order."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.core.serialization import ensure_pipeline_archive

        created = None
        if shard_dir is None:
            shard_dir = os.environ.get("REPRO_CACHE_DIR")
        if shard_dir is None:
            shard_dir = created = tempfile.mkdtemp(prefix="repro-shard-")
        executor = None
        futures: dict[int, object] = {}
        # Bounded submission window: enough chunks in flight to keep every
        # worker busy, few enough that completed-but-unconsumed results
        # never pile up faster than the consumer drains them.
        window = workers + 2

        def _submit(index: int) -> None:
            futures[index] = executor.submit(
                _shard_chunk_worker, archive, class_name, counts[index],
                seed, index, **options,
            )

        try:
            archive = str(ensure_pipeline_archive(self, shard_dir))
            executor = ProcessPoolExecutor(max_workers=workers)
            for index in range(min(window, len(counts))):
                _submit(index)
            for index in range(len(counts)):
                result, snapshot = futures.pop(index).result()
                if index + window < len(counts):
                    _submit(index + window)
                perf.merge_snapshot(snapshot)
                yield result
        finally:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
            if created is not None:
                shutil.rmtree(created, ignore_errors=True)

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
        """Generate several requests' flows in shared sampler batches.

        ``parts`` is one ``(count, rng)`` pair per request.  All parts
        share each sampler batch — one denoiser forward per DDIM step for
        the whole group instead of one per request — but every part draws
        its initial latents and per-step noise from its *own* generator
        (:meth:`sample_latents`).  Guidance, repair and decoding run once
        over the whole group; state repair runs per part with that part's
        rng.

        Determinism contract (pinned by ``tests/test_serve.py``): each
        part's flows are byte-identical to a solo
        ``generate_raw(class_name, count, rng=rng)`` call with the same
        options — whatever the other parts in the group are, in whatever
        order they appear, and whatever their size: a part above
        ``generation_batch`` splits exactly as ``generate_raw`` splits it.
        This is what lets the serving tier micro-batch concurrent requests
        without perturbing any single request's output.
        """
        if not parts:
            raise ValueError("parts must be non-empty")
        results = self._generate(
            class_name, list(parts), steps=steps, use_control=use_control,
            hard_guidance=hard_guidance, guidance_weight=guidance_weight,
            state_repair=state_repair, dtype=dtype,
        )
        perf.incr("pipeline.coalesced_parts", len(parts))
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
        self._store_class_templates(*_structure_stats(matrices),
                                    [class_name] * len(flows))

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

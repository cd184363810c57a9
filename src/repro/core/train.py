"""Compiled training plans for the diffusion fit step.

Training is the last eager hot path: every cold ``run_all`` (and every
cache-miss refit in a backend sweep) walks the dynamic autograd tape
step-by-step, paying ``Tensor`` bookkeeping, fresh allocations for every
intermediate *and* every gradient, and a per-parameter Python loop in the
optimizer.  :func:`compile_training` removes all three, mirroring
:func:`repro.core.infer.compile_denoiser` but for the full fit step:

* **Fused forward + analytic backward** — the ``ConditionalDenoiser``
  (+ ``PromptEncoder``, optionally a ``ControlNetBranch``) is walked once
  into a flat plan of raw-``ndarray`` kernels.  ``Linear -> SiLU`` and
  ``LayerNorm -> add-conditioning`` chains and their hand-derived
  backward passes run as in-place ufunc chains writing through ``out=``
  into buffers from the refcount-guarded
  :class:`~repro.core.infer.WorkspacePool` — steady-state steps perform
  **zero** pool allocations (counter-pinned by
  ``tests/test_train_compiled.py``).
* **Packed parameters** — every trained parameter, gradient, Adam
  moment and EMA shadow lives in one contiguous float64 pack;
  weight-gradient GEMMs write straight into pack views through the
  pluggable GEMM backends (:mod:`repro.ml.nn.backend`), and the Adam +
  EMA updates are single fused in-place passes over the flat packs — no
  per-parameter Python loop, no temporaries.
* **Frozen-base shortcut** — the ControlNet phase trains only the
  branch, so the plan propagates data-gradients through the frozen
  denoiser but skips every frozen weight-gradient GEMM the eager tape
  computes and discards.

Parity is a hard guarantee, not a tolerance: every kernel replicates the
eager tape's op sequence ufunc-for-ufunc — the same accumulation order
into shared activations (reverse block order, first-touch copy), the
same ``sum * (1/n)`` means, ``np.power(v + eps, -0.5)`` inverse std,
``(d_rs * -0.5) * v^-1.5`` power backward, scatter-add embedding
gradient, and the bitwise in-place Adam/EMA recipes from
:mod:`repro.ml.nn.optim` / :mod:`repro.ml.nn.ema`.  fp64 losses,
post-fit weights and therefore the fitted-pipeline cache digest are
**bitwise identical** to the eager loop; the golden-loss tests gate it.

Engine selection: ``REPRO_TRAIN=compiled`` (default) or ``eager``,
read lazily on first use, with
:func:`set_train_mode` / :func:`use_train_mode` as programmatic
overrides and ``repro fit --train-mode`` on the CLI.  Module trees or
optimizer states the compiler does not recognise (live LoRA adapters,
a warm optimizer, frozen-parameter mixes) raise
:class:`~repro.core.infer.CompileError` and the pipeline falls back to
eager for that phase, counted under ``train.eager_fallback``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro import perf
from repro.core.controlnet import ControlNetBranch
from repro.core.denoiser import (
    ConditionalDenoiser,
    ResidualBlock,
    sinusoidal_freqs,
    sinusoidal_time_embedding,
)
from repro.core.infer import CompileError, WorkspacePool
from repro.core.prompt import PromptEncoder, pooling_weights
from repro.ml.nn import backend as _backend
from repro.ml.nn.autograd import Tensor
from repro.ml.nn.ema import ExponentialMovingAverage
from repro.ml.nn.modules import Embedding, LayerNorm, Linear
from repro.ml.nn.optim import Adam

__all__ = [
    "CompileError",
    "CompiledTrainer",
    "compile_training",
    "train_mode",
    "set_train_mode",
    "use_train_mode",
]

_MODES = ("eager", "compiled")

_active_mode: str | None = None


def train_mode() -> str:
    """The active training engine: ``eager`` or ``compiled``.

    Resolved from ``REPRO_TRAIN`` on first call (default ``compiled``) and
    cached; :func:`set_train_mode` overrides, ``set_train_mode(None)``
    re-reads the environment.
    """
    global _active_mode
    if _active_mode is None:
        mode = os.environ.get("REPRO_TRAIN", "compiled").strip().lower()
        _active_mode = _validate_mode(mode or "compiled")
    return _active_mode


def _validate_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(
            f"unknown training mode {mode!r}; expected one of {_MODES}"
        )
    return mode


def set_train_mode(mode: str | None) -> None:
    """Select the training engine; ``None`` re-reads ``REPRO_TRAIN``."""
    global _active_mode
    _active_mode = None if mode is None else _validate_mode(mode)


@contextmanager
def use_train_mode(mode: str | None):
    """Temporarily switch the training engine."""
    global _active_mode
    previous = _active_mode
    set_train_mode(mode)
    try:
        yield
    finally:
        _active_mode = previous


class _TrainingPool(WorkspacePool):
    """Workspace pool sized for a training step's working set.

    A fused step keeps ~6 ``(B, H)`` activation buffers per residual
    block live simultaneously (forward saves for the backward pass), so
    the inference pool's per-key cap of 8 would evict the steady-state
    set and re-allocate every step.
    """

    _MAX_PER_KEY = 64


# -- captured layers --------------------------------------------------------
#
# Unlike the inference packs, training captures *aliases* of the live
# parameter arrays (rebound to contiguous pack views for trained layers)
# plus the matching gradient views, so the fused Adam pass over the flat
# pack is immediately visible to every kernel.


class _Lin:
    """Weight/bias aliases + gradient views for one affine layer."""

    __slots__ = ("w", "b", "wT", "gw", "gb")

    def __init__(self, layer: Linear, grads: dict[int, np.ndarray]):
        self.w = layer.weight.data
        self.wT = self.w.T
        self.b = layer.bias.data
        self.gw = grads.get(id(layer.weight))
        self.gb = grads.get(id(layer.bias))


class _Norm:
    """Gamma/beta aliases + gradient views for one LayerNorm."""

    __slots__ = ("gamma", "beta", "eps", "inv_dim", "ggamma", "gbeta")

    def __init__(self, layer: LayerNorm, grads: dict[int, np.ndarray]):
        self.gamma = layer.gamma.data
        self.beta = layer.beta.data
        self.eps = float(layer.eps)
        self.inv_dim = 1.0 / self.gamma.shape[0]
        self.ggamma = grads.get(id(layer.gamma))
        self.gbeta = grads.get(id(layer.beta))


# -- validation -------------------------------------------------------------


def _require_linear(layer, name: str) -> None:
    if (
        not isinstance(layer, Linear)
        or type(layer).forward is not Linear.forward
    ):
        raise CompileError(
            f"{name}: expected a plain Linear, got {type(layer).__name__}"
        )
    if layer.bias is None:
        raise CompileError(f"{name}: bias-free Linear is not compiled")


def _require_norm(layer, name: str) -> None:
    if (
        not isinstance(layer, LayerNorm)
        or type(layer).forward is not LayerNorm.forward
    ):
        raise CompileError(
            f"{name}: expected a LayerNorm, got {type(layer).__name__}"
        )


def _require_float64(module, name: str) -> None:
    for pname, p in module.named_parameters():
        if p.data.dtype != np.float64:
            raise CompileError(
                f"{name}.{pname}: expected float64 parameters, "
                f"got {p.data.dtype}"
            )


def _validate_denoiser(denoiser) -> None:
    if (
        not isinstance(denoiser, ConditionalDenoiser)
        or type(denoiser).forward is not ConditionalDenoiser.forward
    ):
        raise CompileError("denoiser is not a plain ConditionalDenoiser")
    if denoiser.time_dim % 2:
        raise CompileError("time embedding dim must be even")
    for lin_name in ("input_proj", "time_proj1", "time_proj2",
                     "cond_proj", "output_proj"):
        _require_linear(getattr(denoiser, lin_name), f"denoiser.{lin_name}")
    _require_norm(denoiser.out_norm, "denoiser.out_norm")
    for i, block in enumerate(denoiser.blocks):
        if (
            not isinstance(block, ResidualBlock)
            or type(block).forward is not ResidualBlock.forward
        ):
            raise CompileError(f"denoiser.block{i} is not a ResidualBlock")
        _require_norm(block.norm, f"denoiser.block{i}.norm")
        _require_linear(block.fc1, f"denoiser.block{i}.fc1")
        _require_linear(block.fc2, f"denoiser.block{i}.fc2")
    _require_float64(denoiser, "denoiser")


def _validate_prompt_encoder(encoder) -> None:
    if (
        not isinstance(encoder, PromptEncoder)
        or type(encoder).forward_ids is not PromptEncoder.forward_ids
    ):
        raise CompileError("prompt encoder is not a plain PromptEncoder")
    emb = encoder.embedding
    if (
        not isinstance(emb, Embedding)
        or type(emb).forward is not Embedding.forward
    ):
        raise CompileError("prompt embedding is not a plain Embedding")
    _require_float64(encoder, "prompt_encoder")


def _validate_controlnet(controlnet) -> None:
    if (
        not isinstance(controlnet, ControlNetBranch)
        or type(controlnet).forward is not ControlNetBranch.forward
        or type(controlnet).pool_mask is not ControlNetBranch.pool_mask
    ):
        raise CompileError("controlnet is not a plain ControlNetBranch")
    _require_linear(controlnet.encoder1, "controlnet.encoder1")
    _require_linear(controlnet.encoder2, "controlnet.encoder2")
    for i, proj in enumerate(controlnet.zero_projections):
        _require_linear(proj, f"controlnet.zero{i}")
    _require_float64(controlnet, "controlnet")


def _aligned_named_params(module, name: str) -> list[tuple[str, Tensor]]:
    """named_parameters, verified to align with ``parameters()`` order."""
    named = module.named_parameters()
    if [id(p) for _, p in named] != [id(p) for p in module.parameters()]:
        raise CompileError(
            f"{name} has frozen parameters; EMA packing needs the "
            f"named and trainable orders to coincide"
        )
    return named


# -- fused kernels ----------------------------------------------------------
#
# Each kernel replicates the eager tape's op sequence exactly; in-place
# ufuncs (``out=``) are bitwise-identical to their allocating forms, and
# commuted operands are only used for commutative ufuncs.


def _affine(mm, lin: _Lin, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x @ w + b`` through ``mm``, the active backend's matmul.

    The backend method is resolved once per step (not per product) and
    threaded in, skipping the module-level routing wrapper on the ~30
    GEMMs of a fused step.
    """
    out = mm(x, lin.w, out=out)
    out += lin.b
    return out


def _silu_fwd(x: np.ndarray, sig: np.ndarray, out: np.ndarray) -> None:
    """``sig = 1/(1+exp(-x)); out = x * sig`` — eager ``Tensor.silu``."""
    np.negative(x, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    np.multiply(x, sig, out=out)


def _silu_bwd(
    g: np.ndarray, x: np.ndarray, sig: np.ndarray, out: np.ndarray
) -> None:
    """``out = g * (sig * (1 + x * (1 - sig)))`` in the eager op order."""
    np.subtract(1.0, sig, out=out)
    np.multiply(x, out, out=out)
    out += 1.0
    np.multiply(sig, out, out=out)
    np.multiply(g, out, out=out)


def _norm_fwd(
    nrm: _Norm,
    h: np.ndarray,
    mu: np.ndarray,
    sq: np.ndarray,
    cen: np.ndarray,
    vpe: np.ndarray,
    rs: np.ndarray,
    nor: np.ndarray,
) -> None:
    """LayerNorm forward saving (cen, vpe, rs, nor) for the backward.

    The eager tape centres ``h`` twice (once inside ``var``, once for the
    normalised output) — both are bitwise-equal, so one ``cen`` buffer
    serves as both saved activations.
    """
    h.sum(axis=-1, keepdims=True, out=mu)
    mu *= nrm.inv_dim                       # mean = sum * (1/H)
    np.subtract(h, mu, out=cen)             # == h + (-mu) bitwise
    np.multiply(cen, cen, out=sq)
    sq.sum(axis=-1, keepdims=True, out=vpe)
    vpe *= nrm.inv_dim                      # var
    vpe += nrm.eps                          # saved: var + eps
    np.power(vpe, -0.5, out=rs)
    np.multiply(cen, rs, out=nor)


def _norm_bwd(
    nrm: _Norm,
    g: np.ndarray,
    cen: np.ndarray,
    vpe: np.ndarray,
    rs: np.ndarray,
    nor: np.ndarray,
    d_h: np.ndarray,
    first: bool,
    t1: np.ndarray,
    t2: np.ndarray,
    col: np.ndarray,
    col2: np.ndarray,
    train: bool,
) -> None:
    """LayerNorm (+affine) backward, accumulating into ``d_h``.

    ``first=True`` seeds ``d_h`` (the out-norm: no residual contribution
    precedes it); otherwise ``d_h`` already holds the residual-add copy
    and the four contributions append in the eager accumulation order:
    ``d_cen``, its mean term, ``d_hm``, its mean term.
    """
    if train:
        g.sum(axis=0, out=nrm.gbeta)
        np.multiply(g, nor, out=t1)
        t1.sum(axis=0, out=nrm.ggamma)
    np.multiply(g, nrm.gamma, out=t1)       # d_norm
    np.multiply(t1, rs, out=t2)             # d_hm (normalised chain)
    np.multiply(t1, cen, out=t1)
    t1.sum(axis=-1, keepdims=True, out=col)         # d_rs
    np.multiply(col, -0.5, out=col)
    np.power(vpe, -1.5, out=col2)
    np.multiply(col, col2, out=col)         # d_vpe = (d_rs * -0.5) * v^-1.5
    col *= nrm.inv_dim                      # d_sumsq
    np.multiply(cen, col, out=t1)           # q = d_sq * cen (broadcast)
    np.add(t1, t1, out=t1)                  # d_cen = q + q
    if first:
        np.copyto(d_h, t1)
    else:
        d_h += t1
    t1.sum(axis=-1, keepdims=True, out=col)
    np.negative(col, out=col)
    col *= nrm.inv_dim                      # (-sum(d_cen)) * (1/H)
    d_h += col
    d_h += t2
    t2.sum(axis=-1, keepdims=True, out=col)
    np.negative(col, out=col)
    col *= nrm.inv_dim                      # (-sum(d_hm)) * (1/H)
    d_h += col


# -- the compiled trainer ---------------------------------------------------


class CompiledTrainer:
    """A fused forward+backward+update plan for one training phase.

    Built by :func:`compile_training`; one :meth:`step` call replaces the
    eager ``forward -> mse -> zero_grad -> backward -> Adam.step
    [-> EMA]`` sequence bitwise.  Construction rebinds the trained
    parameters (and EMA shadows) to views of contiguous packs, so the
    module, the optimizer and the trainer all observe the same memory.
    """

    def __init__(self, denoiser, prompt_encoder, optimizer, controlnet,
                 ema, mode: str):
        self.mode = mode
        self._optimizer = optimizer
        self._pool = _TrainingPool()
        self._hidden = denoiser.hidden
        self._time_dim = denoiser.time_dim
        self._cond_dim = denoiser.cond_proj.in_features
        self._n_blocks = denoiser.n_blocks
        self._cn = controlnet if mode == "controlnet" else None

        # Flat packs: parameters P, gradients G, Adam moments M/V, two
        # scratch lanes S1/S2, and (base mode with EMA) shadows E.
        params = optimizer.params
        sizes = [p.data.size for p in params]
        total = int(sum(sizes))
        self._P = np.empty(total, dtype=np.float64)
        self._G = np.empty(total, dtype=np.float64)
        self._M = np.zeros(total, dtype=np.float64)
        self._V = np.zeros(total, dtype=np.float64)
        self._S1 = np.empty(total, dtype=np.float64)
        self._S2 = np.empty(total, dtype=np.float64)
        grads: dict[int, np.ndarray] = {}
        offset = 0
        for p, size in zip(params, sizes):
            shape = p.data.shape
            view = self._P[offset:offset + size].reshape(shape)
            view[:] = p.data
            p.data = view
            grads[id(p)] = self._G[offset:offset + size].reshape(shape)
            offset += size

        self._ema_segments = None
        self._E = None
        if ema is not None:
            self._E = np.empty(total, dtype=np.float64)
            self._ema_segments = []
            offset = 0
            for ema_obj, module in zip(
                ema, (denoiser, prompt_encoder)
            ):
                start = offset
                for name, p in _aligned_named_params(module, "ema module"):
                    size = p.data.size
                    seg = self._E[offset:offset + size].reshape(p.data.shape)
                    seg[:] = ema_obj._shadow[name]
                    ema_obj._shadow[name] = seg
                    offset += size
                self._ema_segments.append((ema_obj, slice(start, offset)))

        # Captured layers.  In controlnet mode the denoiser/prompt grad
        # views are absent (grads holds only branch params), so their
        # _Lin/_Norm gradient slots come out None and the plan skips the
        # frozen weight-gradient GEMMs.
        self._lin_in = _Lin(denoiser.input_proj, grads)
        self._lin_t1 = _Lin(denoiser.time_proj1, grads)
        self._lin_t2 = _Lin(denoiser.time_proj2, grads)
        self._lin_c = _Lin(denoiser.cond_proj, grads)
        self._lin_out = _Lin(denoiser.output_proj, grads)
        self._out_norm = _Norm(denoiser.out_norm, grads)
        self._blocks = [
            (_Norm(b.norm, grads), _Lin(b.fc1, grads), _Lin(b.fc2, grads))
            for b in denoiser.blocks
        ]
        self._table = prompt_encoder.embedding.table.data
        self._g_table = grads.get(id(prompt_encoder.embedding.table))
        if mode == "controlnet":
            self._cn_in = controlnet.in_dim
            self._lin_e1 = _Lin(controlnet.encoder1, grads)
            self._lin_e2 = _Lin(controlnet.encoder2, grads)
            self._zeros = [
                _Lin(z, grads) for z in controlnet.zero_projections
            ]
        self._freqs = sinusoidal_freqs(self._time_dim)
        # (B, W, L) -> pinned steady-state buffer set (see _plan).
        self._plans: dict[tuple[int, int, int], dict] = {}

    def _plan(self, B: int, W: int, L: int) -> dict:
        """Steady-state buffer set for one (batch, prompt-width) shape.

        Buffers are drawn from the workspace pool once per distinct input
        shape and pinned on the trainer, so repeat steps skip the pool's
        refcount bucket scan entirely — the per-step pool traffic (and
        allocation count) is exactly zero; the pool's hit/miss counters
        move only while a plan is first built.
        """
        key = (B, W, L)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        take = self._pool.take
        f64 = np.float64
        H = self._hidden
        D = self._cond_dim
        nb = self._n_blocks
        plan = {
            "emb": take((B, W, D), f64),
            "wsum": take((B, 1), f64),
            "w2": take((B, W), f64),
            "prod": take((B, W, D), f64),
            "cond": take((B, D), f64),
            "t_emb": take((B, self._time_dim), f64),
            "angles": take((B, self._time_dim // 2), f64),
            "th_pre": take((B, H), f64),
            "sig_t": take((B, H), f64),
            "s_t": take((B, H), f64),
            "t_hidden": take((B, H), f64),
            "c_hidden": take((B, H), f64),
            "h": take((B, H), f64),
            "mu": take((B, 1), f64),
            "sq": take((B, H), f64),
            "saved": [
                (
                    take((B, H), f64),      # cen
                    take((B, 1), f64),      # vpe
                    take((B, 1), f64),      # rs
                    take((B, H), f64),      # nor
                    take((B, H), f64),      # x
                    take((B, H), f64),      # f1
                    take((B, H), f64),      # sg
                    take((B, H), f64),      # s
                )
                for _ in range(nb)
            ],
            "cen_o": take((B, H), f64),
            "vpe_o": take((B, 1), f64),
            "rs_o": take((B, 1), f64),
            "nor_o": take((B, H), f64),
            "n3": take((B, H), f64),
            "eps": take((B, L), f64),
            "diff": take((B, L), f64),
            "sqd": take((B, L), f64),
            "d_n3": take((B, H), f64),
            "d_h": take((B, H), f64),
            "bufA": take((B, H), f64),
            "bufB": take((B, H), f64),
            "bufC": take((B, H), f64),
            "col_a": take((B, 1), f64),
            "col_b": take((B, 1), f64),
        }
        plan["w3"] = plan["w2"][:, :, None]
        if self.mode == "base":
            plan["d_ch"] = take((B, H), f64)
            plan["d_th"] = take((B, H), f64)
            plan["d_cond"] = take((B, D), f64)
        else:
            plan["pooled"] = take((B, self._cn_in), f64)
            plan["e1b"] = take((B, H), f64)
            plan["sig_e1"] = take((B, H), f64)
            plan["s_e1"] = take((B, H), f64)
            plan["e2b"] = take((B, H), f64)
            plan["sig_e2"] = take((B, H), f64)
            plan["hc"] = take((B, H), f64)
            plan["ctrl"] = [take((B, H), f64) for _ in range(nb)]
            plan["d_hc"] = take((B, H), f64)
        self._plans[key] = plan
        return plan

    def step(
        self,
        x_t: np.ndarray,
        t: np.ndarray,
        ids: np.ndarray,
        mask: np.ndarray,
        noise: np.ndarray,
        ctrl_masks: np.ndarray | None = None,
    ) -> float:
        """One fused training step; returns the fp64 loss.

        Inputs are the per-step batch the eager loop would feed the
        modules: noised latents ``x_t`` with timesteps ``t`` and target
        ``noise``, pre-tokenised prompt rows ``(ids, mask)``, and (the
        ControlNet phase only) the batch structure masks.
        """
        backend = _backend.get_backend()
        # Every mm call below passes out=, where NaiveBackend.matmul is
        # exactly np.matmul — skip its wrapper frame (31 GEMMs/step).
        mm = (
            np.matmul
            if type(backend) is _backend.NaiveBackend
            else backend.matmul
        )
        B = x_t.shape[0]
        nb = self._n_blocks
        train_d = self.mode == "base"
        perf.incr("train.compiled_step")
        p = self._plan(B, ids.shape[1], x_t.shape[1])

        # ---- prompt conditioning (PromptEncoder.forward_ids) ---------
        perf.incr("prompt_encoder.forward")
        emb = p["emb"]
        np.take(self._table, ids, axis=0, out=emb)
        w3 = p["w3"]
        pooling_weights(mask, out=p["w2"], sums=p["wsum"])
        prod = p["prod"]
        np.multiply(emb, w3, out=prod)
        cond = p["cond"]
        prod.sum(axis=1, out=cond)

        # ---- time conditioning ---------------------------------------
        t_emb = p["t_emb"]
        sinusoidal_time_embedding(
            t, self._time_dim, out=t_emb,
            freqs=self._freqs, angles=p["angles"],
        )
        th_pre = p["th_pre"]
        _affine(mm, self._lin_t1, t_emb, th_pre)
        sig_t = p["sig_t"]
        s_t = p["s_t"]
        _silu_fwd(th_pre, sig_t, s_t)
        t_hidden = p["t_hidden"]
        _affine(mm, self._lin_t2, s_t, t_hidden)
        c_hidden = p["c_hidden"]
        _affine(mm, self._lin_c, cond, c_hidden)

        # ---- control branch (ControlNet phase only) ------------------
        ctrl = None
        if self._cn is not None:
            perf.incr("controlnet.forward")
            pooled = p["pooled"]
            self._cn.pool_mask(ctrl_masks, out=pooled)
            e1b = p["e1b"]
            _affine(mm, self._lin_e1, pooled, e1b)
            sig_e1 = p["sig_e1"]
            s_e1 = p["s_e1"]
            _silu_fwd(e1b, sig_e1, s_e1)
            e2b = p["e2b"]
            _affine(mm, self._lin_e2, s_e1, e2b)
            sig_e2 = p["sig_e2"]
            hc = p["hc"]
            _silu_fwd(e2b, sig_e2, hc)
            ctrl = p["ctrl"]
            for z, ck in zip(self._zeros, ctrl):
                _affine(mm, z, hc, ck)

        # ---- denoiser forward ----------------------------------------
        perf.incr("denoiser.forward")
        perf.incr("denoiser.rows", B)
        h = p["h"]
        _affine(mm, self._lin_in, x_t, h)
        mu = p["mu"]
        sq = p["sq"]                    # squares scratch, then fc2 product
        saved = p["saved"]
        for k in range(nb):
            nrm, l1, l2 = self._blocks[k]
            cen, vpe, rs, nor, x, f1, sg, s = saved[k]
            _norm_fwd(nrm, h, mu, sq, cen, vpe, rs, nor)
            np.multiply(nor, nrm.gamma, out=x)
            x += nrm.beta
            x += t_hidden
            x += c_hidden
            if ctrl is not None:
                x += ctrl[k]
            _affine(mm, l1, x, f1)
            _silu_fwd(f1, sg, s)
            mm(s, l2.w, out=sq)
            sq += l2.b
            h += sq                     # residual: h_{k+1} = h_k + fc2(...)
        cen_o = p["cen_o"]
        vpe_o = p["vpe_o"]
        rs_o = p["rs_o"]
        nor_o = p["nor_o"]
        _norm_fwd(self._out_norm, h, mu, sq, cen_o, vpe_o, rs_o, nor_o)
        n3 = p["n3"]
        np.multiply(nor_o, self._out_norm.gamma, out=n3)
        n3 += self._out_norm.beta
        eps = p["eps"]
        _affine(mm, self._lin_out, n3, eps)

        # ---- loss ----------------------------------------------------
        diff = p["diff"]
        np.subtract(eps, noise, out=diff)       # == eps + (-noise)
        sqd = p["sqd"]
        np.multiply(diff, diff, out=sqd)
        inv_size = 1.0 / sqd.size
        loss = float(sqd.sum() * inv_size)

        # ---- backward ------------------------------------------------
        np.multiply(diff, inv_size, out=sqd)    # q
        np.add(sqd, sqd, out=diff)              # d_eps = q + q
        d_eps = diff
        lo = self._lin_out
        if train_d:
            d_eps.sum(axis=0, out=lo.gb)
            mm(n3.T, d_eps, out=lo.gw)
        d_n3 = p["d_n3"]
        mm(d_eps, lo.wT, out=d_n3)
        d_h = p["d_h"]
        bufA = p["bufA"]
        bufB = p["bufB"]
        bufC = p["bufC"]
        col_a = p["col_a"]
        col_b = p["col_b"]
        _norm_bwd(self._out_norm, d_n3, cen_o, vpe_o, rs_o, nor_o,
                  d_h, True, bufA, bufB, col_a, col_b, train_d)
        d_ch = d_th = d_hc = None
        if train_d:
            d_ch = p["d_ch"]
            d_th = p["d_th"]
        else:
            d_hc = p["d_hc"]
        for k in range(nb - 1, -1, -1):
            nrm, l1, l2 = self._blocks[k]
            cen, vpe, rs, nor, x, f1, sg, s = saved[k]
            if train_d:
                d_h.sum(axis=0, out=l2.gb)
            mm(d_h, l2.wT, out=bufA)            # d_s
            if train_d:
                mm(s.T, d_h, out=l2.gw)
            _silu_bwd(bufA, f1, sg, bufB)       # d_f1b
            if train_d:
                bufB.sum(axis=0, out=l1.gb)
            mm(bufB, l1.wT, out=bufC)           # d_x
            if train_d:
                mm(x.T, bufB, out=l1.gw)
            if d_hc is not None:
                z = self._zeros[k]
                bufC.sum(axis=0, out=z.gb)
                mm(hc.T, bufC, out=z.gw)
                mm(bufC, z.wT, out=bufA)
                # Shared h_c accumulates in reverse block order: the
                # deepest block's contribution is the first touch (copy).
                if k == nb - 1:
                    np.copyto(d_hc, bufA)
                else:
                    d_hc += bufA
            if train_d:
                if k == nb - 1:
                    np.copyto(d_ch, bufC)
                    np.copyto(d_th, bufC)
                else:
                    d_ch += bufC
                    d_th += bufC
            _norm_bwd(nrm, bufC, cen, vpe, rs, nor, d_h, False,
                      bufA, bufB, col_a, col_b, train_d)

        if train_d:
            li = self._lin_in
            d_h.sum(axis=0, out=li.gb)
            mm(x_t.T, d_h, out=li.gw)
            # Conditioning chain: cond_proj -> prompt embedding table.
            lc = self._lin_c
            d_ch.sum(axis=0, out=lc.gb)
            d_cond = p["d_cond"]
            mm(d_ch, lc.wT, out=d_cond)
            mm(cond.T, d_ch, out=lc.gw)
            np.multiply(d_cond[:, None, :], w3, out=prod)   # d_emb
            gt = self._g_table
            gt[:] = 0.0
            np.add.at(gt, ids, prod)            # scatter-add, eager order
            # Time chain: time_proj2 -> SiLU -> time_proj1.
            lt2 = self._lin_t2
            d_th.sum(axis=0, out=lt2.gb)
            mm(d_th, lt2.wT, out=bufA)
            mm(s_t.T, d_th, out=lt2.gw)
            _silu_bwd(bufA, th_pre, sig_t, bufB)
            lt1 = self._lin_t1
            bufB.sum(axis=0, out=lt1.gb)
            mm(t_emb.T, bufB, out=lt1.gw)
        else:
            # ControlNet encoder chain (the only trained weights).
            le2 = self._lin_e2
            _silu_bwd(d_hc, e2b, sig_e2, bufA)  # d_e2
            bufA.sum(axis=0, out=le2.gb)
            mm(bufA, le2.wT, out=bufB)          # d_s_e1
            mm(s_e1.T, bufA, out=le2.gw)
            le1 = self._lin_e1
            _silu_bwd(bufB, e1b, sig_e1, bufA)  # d_e1
            bufA.sum(axis=0, out=le1.gb)
            mm(pooled.T, bufA, out=le1.gw)

        # ---- fused Adam over the flat packs --------------------------
        opt = self._optimizer
        opt._t += 1
        b1, b2 = opt.beta1, opt.beta2
        bias1 = 1.0 - b1 ** opt._t
        bias2 = 1.0 - b2 ** opt._t
        P, G = self._P, self._G
        M, V = self._M, self._V
        S1, S2 = self._S1, self._S2
        grad = G
        if opt.weight_decay:
            np.multiply(P, opt.weight_decay, out=S2)
            np.add(G, S2, out=S2)
            grad = S2
        M *= b1
        np.multiply(grad, 1 - b1, out=S1)
        M += S1
        V *= b2
        np.multiply(grad, 1 - b2, out=S1)
        np.multiply(S1, grad, out=S1)
        V += S1
        np.divide(M, bias1, out=S2)             # m_hat
        np.divide(V, bias2, out=S1)             # v_hat
        np.sqrt(S1, out=S1)
        S1 += opt.eps
        np.multiply(S2, opt.lr, out=S2)
        np.divide(S2, S1, out=S2)
        np.subtract(P, S2, out=P)

        # ---- packed EMA ----------------------------------------------
        if self._ema_segments is not None:
            E = self._E
            for ema_obj, sl in self._ema_segments:
                perf.incr("ema.update")
                ema_obj._updates += 1
                decay = min(
                    ema_obj.decay,
                    (1 + ema_obj._updates) / (10 + ema_obj._updates),
                )
                seg = E[sl]
                seg *= decay
                np.multiply(P[sl], 1.0 - decay, out=S1[sl])
                seg += S1[sl]
        return loss


def compile_training(
    denoiser,
    prompt_encoder,
    optimizer,
    controlnet=None,
    ema=None,
) -> CompiledTrainer:
    """Compile one training phase into a :class:`CompiledTrainer`.

    The optimizer's parameter list decides the phase: exactly the
    denoiser + prompt-encoder parameters selects the **base** phase
    (optionally with the pipeline's two-element ``ema`` list); exactly
    the ControlNet branch parameters (with ``controlnet`` supplied)
    selects the **controlnet** phase, where the frozen base propagates
    data-gradients only.  Anything else — a LoRA-adapted tree, a warm
    or non-Adam optimizer, frozen-parameter mixes — raises
    :class:`CompileError`, and callers fall back to the eager tape.
    """
    if type(optimizer) is not Adam:
        raise CompileError(
            f"only plain Adam is compiled, got {type(optimizer).__name__}"
        )
    if optimizer._t != 0:
        raise CompileError("optimizer has already stepped; state is warm")
    _validate_denoiser(denoiser)
    _validate_prompt_encoder(prompt_encoder)

    opt_ids = [id(p) for p in optimizer.params]
    base_ids = [
        id(p)
        for p in denoiser.parameters() + prompt_encoder.parameters()
    ]
    if opt_ids == base_ids:
        mode = "base"
        if ema is not None:
            if len(ema) != 2 or any(
                type(e) is not ExponentialMovingAverage for e in ema
            ):
                raise CompileError("expected the pipeline's two-EMA list")
            for ema_obj, module in zip(ema, (denoiser, prompt_encoder)):
                for name, p in _aligned_named_params(module, "ema module"):
                    shadow = ema_obj._shadow.get(name)
                    if (
                        shadow is None
                        or shadow.shape != p.data.shape
                        or shadow.dtype != np.float64
                    ):
                        raise CompileError(
                            f"EMA shadow mismatch for {name}"
                        )
    elif controlnet is not None:
        _validate_controlnet(controlnet)
        if opt_ids != [id(p) for p in controlnet.parameters()]:
            raise CompileError(
                "optimizer parameters match neither the base nor the "
                "ControlNet phase"
            )
        if ema is not None:
            raise CompileError("EMA is not part of the ControlNet phase")
        mode = "controlnet"
    else:
        raise CompileError(
            "optimizer parameters do not match the base phase"
        )
    return CompiledTrainer(
        denoiser, prompt_encoder, optimizer, controlnet, ema, mode
    )

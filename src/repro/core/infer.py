"""Compiled inference plans for the denoiser sampling path.

§4 of the paper names generative speed — the ``steps x chunks x workers``
denoiser evaluations of the sampling loop — as *the* open challenge for
high-throughput trace generation.  The eager path pays three taxes per
evaluation that training never needs: autograd ``Tensor`` bookkeeping,
fresh allocations for every intermediate, and re-projection of per-step /
per-class conditioning that is constant across an entire streaming run.

:func:`compile_denoiser` removes all three.  It walks a
:class:`~repro.core.denoiser.ConditionalDenoiser` module tree once and
emits a flat plan of raw-``ndarray`` kernels:

* **Fused kernels** — ``Linear -> SiLU`` and ``LayerNorm ->
  add-conditioning`` execute as in-place ufunc chains writing through
  ``out=`` / ``np.matmul(..., out=)`` into buffers from a shape-keyed
  :class:`WorkspacePool`, so steady-state DDIM steps perform **zero**
  large allocations (counter-pinned by ``tests/test_infer.py``).
* **Weight packs** — per-layer contiguous weight/bias arrays routed
  through the pluggable GEMM backends in :mod:`repro.ml.nn.backend`
  (naive and blocked), exactly like the eager path.
* **Conditioning caches** — for a fixed DDIM schedule, the projected
  time embedding ``t_hidden`` is computed once per (timestep, rows) and
  the class conditioning ``c_hidden`` / ControlNet injections once per
  prompt, then reused across every step, chunk and worker batch of a
  streaming run.

Parity is a hard guarantee, not a tolerance: every kernel replicates the
eager op sequence ufunc-for-ufunc (``sum * (1/n)`` for means,
``np.power(v + eps, -0.5)`` for the inverse std, ``x * (1/(1+exp(-x)))``
for SiLU, NEP-50 Python-float scalars), so float64 compiled output is
**bitwise identical** to the eager sampler and float32 matches the eager
float32 tier bitwise as well.  ``tests/test_infer.py`` pins both.

Engine selection mirrors the GEMM-backend switch: ``REPRO_INFER=eager``
(default) or ``compiled``, read lazily on first use, with
:func:`set_infer_mode` / :func:`use_infer_mode` as programmatic
overrides.  Module trees the compiler does not recognise (e.g. live LoRA
adapters before :func:`~repro.core.lora.merge_lora`) raise
:class:`CompileError` and the pipeline falls back to eager for that
configuration, counted under ``infer.fallback_eager``.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

import numpy as np

from repro import perf
from repro.core.denoiser import ConditionalDenoiser, time_embedding_row
from repro.ml.nn import backend as _backend
from repro.ml.nn.modules import LayerNorm, Linear

__all__ = [
    "CompileError",
    "CompiledDenoiser",
    "WorkspacePool",
    "compile_denoiser",
    "infer_mode",
    "set_infer_mode",
    "use_infer_mode",
]

_MODES = ("eager", "compiled")

_active_mode: str | None = None


def infer_mode() -> str:
    """The active inference engine: ``eager`` or ``compiled``.

    Resolved from ``REPRO_INFER`` on first call (default ``eager``) and
    cached; :func:`set_infer_mode` overrides, ``set_infer_mode(None)``
    re-reads the environment.
    """
    global _active_mode
    if _active_mode is None:
        mode = os.environ.get("REPRO_INFER", "eager").strip().lower()
        _active_mode = _validate_mode(mode or "eager")
    return _active_mode


def _validate_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(
            f"unknown inference mode {mode!r}; expected one of {_MODES}"
        )
    return mode


def set_infer_mode(mode: str | None) -> None:
    """Select the inference engine; ``None`` re-reads ``REPRO_INFER``."""
    global _active_mode
    _active_mode = None if mode is None else _validate_mode(mode)


@contextmanager
def use_infer_mode(mode: str | None):
    """Temporarily switch the inference engine."""
    global _active_mode
    previous = _active_mode
    set_infer_mode(mode)
    try:
        yield
    finally:
        _active_mode = previous


class CompileError(TypeError):
    """The module tree is not expressible as a compiled plan."""


class WorkspacePool:
    """Refcount-guarded reusable buffers keyed by (shape, dtype).

    Same invariant as the GEMM backend's pool: a buffer is free for
    reuse iff its only references are the bucket list, the scan loop
    variable and ``sys.getrefcount``'s own argument (== 3).  Buffers the
    caller still holds — the previous step's ``eps`` kept alive by the
    sampler loop, a view's ``.base`` — bump the count and are skipped,
    so a live array is never handed out twice.  After a warm-up step or
    two the per-step working set settles onto the same buffers and
    ``infer.ws_miss`` / ``infer.ws_bytes`` stop moving: steady-state
    sampling allocates nothing.

    Single-threaded by design (one engine per process; the blocked GEMM
    backend's threads never call into the pool).
    """

    _MAX_PER_KEY = 8

    def __init__(self) -> None:
        self._store: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        bucket = self._store.get(key)
        if bucket is None:
            bucket = self._store[key] = []
        for arr in bucket:
            if sys.getrefcount(arr) == 3:
                perf.incr("infer.ws_hit")
                return arr
        arr = np.empty(shape, dtype)
        perf.incr("infer.ws_miss")
        perf.incr("infer.ws_bytes", arr.nbytes)
        if len(bucket) < self._MAX_PER_KEY:
            bucket.append(arr)
        return arr

    def clear(self) -> None:
        self._store.clear()


# -- weight packs ----------------------------------------------------------


class _LinearPack:
    """Contiguous weight/bias arrays for one affine layer."""

    __slots__ = ("w", "b")

    def __init__(self, layer: Linear, dtype: np.dtype, name: str):
        if (
            not isinstance(layer, Linear)
            or type(layer).forward is not Linear.forward
        ):
            raise CompileError(
                f"{name}: expected a plain Linear, got "
                f"{type(layer).__name__}"
            )
        self.w = np.ascontiguousarray(layer.weight.data, dtype=dtype)
        self.b = (
            np.ascontiguousarray(layer.bias.data, dtype=dtype)
            if layer.bias is not None
            else None
        )


class _NormPack:
    """Gamma/beta/eps for one LayerNorm, plus the 1/H mean scale."""

    __slots__ = ("gamma", "beta", "eps", "inv_dim")

    def __init__(self, layer: LayerNorm, dtype: np.dtype, name: str):
        if (
            not isinstance(layer, LayerNorm)
            or type(layer).forward is not LayerNorm.forward
        ):
            raise CompileError(
                f"{name}: expected a LayerNorm, got {type(layer).__name__}"
            )
        self.gamma = np.ascontiguousarray(layer.gamma.data, dtype=dtype)
        self.beta = np.ascontiguousarray(layer.beta.data, dtype=dtype)
        # Python floats: NEP 50 keeps them weak, matching the eager
        # Tensor scalar lift at either dtype.
        self.eps = float(layer.eps)
        self.inv_dim = 1.0 / self.gamma.shape[0]


# -- fused kernels ---------------------------------------------------------
#
# Each kernel replicates the eager Tensor op sequence exactly; in-place
# ufuncs (``out=``) are bitwise-identical to their allocating forms, and
# commuted operands are only used for commutative ufuncs.


def _affine(pack: _LinearPack, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x @ w + b`` through the pluggable GEMM backend."""
    out = _backend.matmul(x, pack.w, out=out)
    if pack.b is not None:
        out += pack.b
    return out


def _silu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x * (1 / (1 + exp(-x)))`` — eager ``Tensor.silu`` order."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.multiply(x, out, out=out)
    return out


def _layernorm(
    pack: _NormPack,
    x: np.ndarray,
    out: np.ndarray,
    sq: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
) -> np.ndarray:
    """LayerNorm into ``out``; ``sq`` is (rows, H) scratch.

    Mirrors the eager form ufunc-for-ufunc: means as ``sum * (1/H)``
    (not ``np.mean``), the inverse std as ``np.power(var + eps, -0.5)``
    (not ``1/sqrt``), and ``x - mu`` computed once — the eager path
    computes it twice, bitwise-identically.
    """
    np.sum(x, axis=-1, keepdims=True, out=mu)
    mu *= pack.inv_dim
    np.subtract(x, mu, out=out)  # == x + (-mu) bitwise
    np.multiply(out, out, out=sq)
    np.sum(sq, axis=-1, keepdims=True, out=var)
    var *= pack.inv_dim
    var += pack.eps
    np.power(var, -0.5, out=var)
    np.multiply(out, var, out=out)
    np.multiply(out, pack.gamma, out=out)
    out += pack.beta
    return out


# -- the compiled engine ---------------------------------------------------


class CompiledDenoiser:
    """A flat no-tape execution plan for one denoiser at one dtype.

    Weight packs alias the live float64 parameters (contiguous float64
    input makes ``ascontiguousarray`` a no-op), so the engine must be
    rebuilt when the weights change — the pipeline invalidates its
    engine cache alongside the cast-module cache on fit / add_class.
    """

    def __init__(self, denoiser: ConditionalDenoiser, dtype=None):
        if not isinstance(denoiser, ConditionalDenoiser):
            raise CompileError(
                f"expected a ConditionalDenoiser, got "
                f"{type(denoiser).__name__}"
            )
        self.dtype = np.dtype(dtype or np.float64)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise CompileError(f"unsupported dtype {self.dtype}")
        self.hidden = denoiser.hidden
        self.time_dim = denoiser.time_dim
        self.latent_dim = denoiser.latent_dim

        dt = self.dtype
        self.input_proj = _LinearPack(denoiser.input_proj, dt, "input_proj")
        self.time_proj1 = _LinearPack(denoiser.time_proj1, dt, "time_proj1")
        self.time_proj2 = _LinearPack(denoiser.time_proj2, dt, "time_proj2")
        self.cond_proj = _LinearPack(denoiser.cond_proj, dt, "cond_proj")
        self.blocks = [
            (
                _NormPack(block.norm, dt, f"block{i}.norm"),
                _LinearPack(block.fc1, dt, f"block{i}.fc1"),
                _LinearPack(block.fc2, dt, f"block{i}.fc2"),
            )
            for i, block in enumerate(denoiser.blocks)
        ]
        self.out_norm = _NormPack(denoiser.out_norm, dt, "out_norm")
        self.output_proj = _LinearPack(
            denoiser.output_proj, dt, "output_proj"
        )

        self.pool = WorkspacePool()
        #: (timestep, rows) -> projected time embedding, shared by every
        #: step of every chunk/batch with that row count
        self._t_hidden: dict[tuple[int, int], np.ndarray] = {}
        #: conditioning key -> ready eps closure (see ``eps_model``)
        self.eps_cache: dict[tuple, "EpsClosure"] = {}
        perf.incr("infer.compile")

    #: cache bounds for long-lived processes (the serving tier sees a
    #: new (rows, prompt) key per distinct batch composition); oldest
    #: entries are evicted first.  A batch-export run never hits these.
    max_eps_cache = 128
    max_t_cache = 4096

    def trim_caches(self, max_eps: int = 0, max_t: int = 0) -> None:
        """Shrink the conditioning caches to the given sizes (0 = clear).

        Cheap housekeeping for a serving process between load spikes;
        entries are rebuilt on demand with identical contents, so
        trimming never changes outputs.
        """
        while len(self.eps_cache) > max(max_eps, 0):
            self.eps_cache.pop(next(iter(self.eps_cache)))
            perf.incr("infer.eps_cache_evict")
        while len(self._t_hidden) > max(max_t, 0):
            self._t_hidden.pop(next(iter(self._t_hidden)))
            perf.incr("infer.t_cache_evict")

    # -- conditioning caches ----------------------------------------------

    def t_hidden(self, timestep: int, rows: int) -> np.ndarray:
        """``time_proj2(silu(time_proj1(embed(t))))`` cached per (t, rows).

        Computed exactly as the eager constant-t branch does — one
        embedded row broadcast to ``rows`` — then projected once and
        reused for every forward at this (timestep, batch) for the
        lifetime of the engine.
        """
        key = (int(timestep), int(rows))
        cached = self._t_hidden.get(key)
        if cached is not None:
            perf.incr("infer.t_cache_hit")
            return cached
        perf.incr("infer.t_cache_miss")
        row = time_embedding_row(key[0], self.time_dim, self.dtype)
        emb = np.broadcast_to(row, (rows, self.time_dim))
        h1 = _backend.matmul(emb, self.time_proj1.w)
        if self.time_proj1.b is not None:
            h1 = h1 + self.time_proj1.b
        sig = 1.0 / (1.0 + np.exp(-h1))
        h1 = h1 * sig
        th = _backend.matmul(h1, self.time_proj2.w)
        if self.time_proj2.b is not None:
            th = th + self.time_proj2.b
        self._t_hidden[key] = th
        if len(self._t_hidden) > self.max_t_cache:
            self._t_hidden.pop(next(iter(self._t_hidden)))
            perf.incr("infer.t_cache_evict")
        return th

    def cond_hidden(self, cond: np.ndarray) -> np.ndarray:
        """Project a conditioning batch once (cached via ``eps_model``)."""
        ch = _backend.matmul(cond, self.cond_proj.w)
        if self.cond_proj.b is not None:
            ch = ch + self.cond_proj.b
        return ch

    # -- the plan ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        timestep: int,
        c_hidden: np.ndarray,
        controls: list[np.ndarray] | None,
    ) -> np.ndarray:
        """One no-tape denoiser evaluation; returns a pooled buffer.

        The returned array stays valid until the caller drops its
        reference (the refcount guard protects it from reuse while
        held).  Bitwise-identical to
        ``denoiser(Tensor(x), t_vec, Tensor(cond), controls).data``.
        """
        rows = x.shape[0]
        hid = self.hidden
        dt = self.dtype
        # Same names as the eager denoiser, so a forward is counted as
        # one whichever engine ran it.
        perf.incr("denoiser.forward")
        perf.incr("denoiser.rows", rows)
        pool = self.pool
        h = pool.take((rows, hid), dt)
        a = pool.take((rows, hid), dt)
        b = pool.take((rows, hid), dt)
        c = pool.take((rows, hid), dt)
        mu = pool.take((rows, 1), dt)
        var = pool.take((rows, 1), dt)
        t_h = self.t_hidden(timestep, rows)

        _affine(self.input_proj, x, h)
        for i, (norm, fc1, fc2) in enumerate(self.blocks):
            # LayerNorm -> add-conditioning, fused in place.
            _layernorm(norm, h, out=a, sq=b, mu=mu, var=var)
            a += t_h
            a += c_hidden
            if controls is not None:
                a += controls[i]
            # Linear -> SiLU, fused through scratch buffers.
            _affine(fc1, a, out=b)
            _silu(b, out=c)
            _affine(fc2, c, out=a)
            h += a
        _layernorm(self.out_norm, h, out=a, sq=b, mu=mu, var=var)
        out = pool.take((rows, self.latent_dim), dt)
        _affine(self.output_proj, a, out=out)
        return out

    def prewarm(self, batch: int, guided: bool = True) -> None:
        """Preallocate the per-forward buffers for ``batch`` sampler rows.

        Guided sampling runs the plan over ``2 * batch`` fused-CFG rows
        and combines into two alternating ``(batch, latent)`` buffers.
        Taking the buffers and dropping the references leaves them in
        the pool at refcount 3 — allocated, and free for the first step.
        """
        rows = 2 * batch if guided else batch
        shapes = (
            [(rows, self.hidden)] * 4
            + [(rows, 1)] * 2
            + [(rows, self.latent_dim)] * 2
        )
        if guided:
            shapes += [(batch, self.latent_dim)] * 2
        grabbed = [self.pool.take(shape, self.dtype) for shape in shapes]
        del grabbed

    # -- sampler-facing closures ------------------------------------------

    def eps_model(
        self,
        cond: np.ndarray,
        null_cond: np.ndarray | None,
        guidance_weight: float,
        controls: list[np.ndarray] | None = None,
        key: tuple | None = None,
    ):
        """Build (or fetch) an eps closure with cached conditioning.

        ``cond`` / ``null_cond`` are raw conditioning batches of the
        closure's fixed row count; ``controls`` the per-block ControlNet
        injections for the conditional half.  The projected conditioning
        and the guided-mode concatenations are computed here, once, and
        captured — repeated calls with the same ``key`` return the same
        closure, so a streaming run re-encodes nothing per chunk.
        """
        if key is not None:
            cached = self.eps_cache.get(key)
            if cached is not None:
                perf.incr("infer.eps_cache_hit")
                return cached
            perf.incr("infer.eps_cache_miss")
        weight = float(guidance_weight)
        rows = cond.shape[0]
        pool = self.pool
        latent = self.latent_dim

        if null_cond is None or weight <= 0:
            c_h = self.cond_hidden(cond)
            ctrl = (
                [np.asarray(ci) for ci in controls]
                if controls is not None
                else None
            )

            def eps(x_t: np.ndarray, t) -> np.ndarray:
                return self.forward(
                    x_t, _constant_timestep(t), c_h, ctrl
                )

        else:
            cond2 = np.concatenate([cond, null_cond], axis=0)
            c_h = self.cond_hidden(cond2)
            ctrl = None
            if controls is not None:
                # Null half receives zero injections (controls=None
                # semantics), exactly as the eager fused-CFG path does.
                ctrl = [
                    np.concatenate([ci, np.zeros_like(ci)], axis=0)
                    for ci in controls
                ]

            def eps(x_t: np.ndarray, t) -> np.ndarray:
                m = len(x_t)
                if m != rows:
                    raise ValueError(
                        f"compiled eps model is specialised for {rows} "
                        f"rows, got {m}"
                    )
                x2 = pool.take((2 * m, x_t.shape[1]), self.dtype)
                x2[:m] = x_t
                x2[m:] = x_t
                out = self.forward(
                    x2, _constant_timestep(t), c_h, ctrl
                )
                guided = pool.take((m, latent), self.dtype)
                scratch = pool.take((m, latent), self.dtype)
                # (1 + w) * eps_cond - w * eps_null, in place.
                np.multiply(out[:m], 1.0 + weight, out=guided)
                np.multiply(out[m:], weight, out=scratch)
                np.subtract(guided, scratch, out=guided)
                return guided

        if key is not None:
            self.eps_cache[key] = eps
            if len(self.eps_cache) > self.max_eps_cache:
                self.eps_cache.pop(next(iter(self.eps_cache)))
                perf.incr("infer.eps_cache_evict")
        return eps


def _constant_timestep(t) -> int:
    """The single timestep shared by a sampler batch."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        return int(t_arr)
    t0 = t_arr.flat[0]
    if t_arr.size > 1 and not np.all(t_arr == t0):
        raise CompileError(
            "compiled inference requires a constant timestep vector"
        )
    return int(t0)


def compile_denoiser(
    denoiser: ConditionalDenoiser,
    batch: int | None = None,
    dtype=None,
) -> CompiledDenoiser:
    """Compile ``denoiser`` into a :class:`CompiledDenoiser` plan.

    ``batch`` pre-warms the workspace pool for that row count so even
    the first step of a run allocates nothing large.  Raises
    :class:`CompileError` for module trees the plan cannot express
    (LoRA-wrapped layers, subclassed forwards, non-float dtypes).
    """
    engine = CompiledDenoiser(denoiser, dtype=dtype)
    if batch is not None:
        engine.prewarm(batch)
    return engine

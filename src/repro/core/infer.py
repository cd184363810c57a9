"""The compiled inference engine: every sampler batch runs through it.

§4 of the paper names generative speed — the ``steps x chunks x workers``
denoiser evaluations of the sampling loop — as *the* open challenge for
high-throughput trace generation.  The autograd tape pays three taxes per
evaluation that sampling never needs: ``Tensor`` bookkeeping, fresh
allocations for every intermediate, and re-projection of per-step /
per-class conditioning that is constant across an entire run.

:func:`compile_denoiser` removes all three.  It walks a
:class:`~repro.core.denoiser.ConditionalDenoiser` module tree once and
emits a flat plan of raw-``ndarray`` kernels:

* **Fused kernels** — ``Linear -> SiLU`` and ``LayerNorm ->
  add-conditioning`` execute as in-place ufunc chains writing through
  ``out=`` / ``np.matmul(..., out=)`` into buffers from a
  :class:`WorkspacePool`, so steady-state DDIM steps perform **zero**
  large allocations (counter-pinned by ``tests/test_infer.py``).
* **Weight packs** — per-layer contiguous weight/bias arrays (plus the
  low-rank pair of a :class:`~repro.core.lora.LoRALinear`) routed
  through the pluggable GEMM backends in :mod:`repro.ml.nn.backend`,
  exactly like the tape.
* **Conditioning caches** — each keyed by what it depends on: the
  projected time embedding by timestep, the class conditioning by
  prompt, the ControlNet injections by class mask.  Each is one
  materialised block at the largest row count asked for so far, handed
  out as ``[:rows]`` leading-row views and reused by every step, chunk
  and served batch of a run.

Memory is bounded by the largest batch, not by how many batch shapes a
process sees: the pool keeps one arena per (trailing shape, dtype) and
every conditioning key one block.  Leading rows of a GEMM are
bitwise-equal to the rows of a smaller GEMM from 2 rows up; a 1-row
product takes BLAS's GEMV path and rounds differently, so 1-row
conditioning keeps its own block, and so does every row count of a tree
with live LoRA adapters, whose skinny ``x @ A`` products are not
row-invariant.

Parity is a hard guarantee, not a tolerance: every kernel replicates the
tape's op sequence ufunc-for-ufunc (``sum * (1/n)`` for means,
``np.power(v + eps, -0.5)`` for the inverse std, ``x * (1/(1+exp(-x)))``
for SiLU, NEP-50 Python-float scalars), so compiled output is **bitwise
identical** to the module forwards at float64 and float32.  Module
trees the compiler does not recognise raise :class:`CompileError`.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import perf
from repro.core.denoiser import ConditionalDenoiser, sinusoidal_time_embedding
from repro.core.lora import LoRALinear
from repro.ml.nn import backend as _backend
from repro.ml.nn.modules import LayerNorm, Linear

__all__ = [
    "CompileError",
    "CompiledDenoiser",
    "WorkspacePool",
    "compile_denoiser",
    "time_embedding_row",
]


class CompileError(TypeError):
    """The module tree is not expressible as a compiled plan."""


#: (timestep, dim, dtype str) -> read-only (1, dim) embedding row; DDIM
#: schedules revisit the same few dozen timesteps every chunk, so the
#: sin/cos work is paid once per (t, dim, dtype) per process.
_TIME_EMB_ROWS: dict[tuple[int, int, str], np.ndarray] = {}

_TIME_EMB_MAX_ROWS = 4096


def time_embedding_row(timestep: int, dim: int, dtype) -> np.ndarray:
    """One cached sinusoidal embedding row, cast to ``dtype``.

    Bitwise-identical to
    ``sinusoidal_time_embedding([timestep], dim).astype(dtype)``; the
    returned array is read-only and shared, so callers must broadcast or
    copy, never write.
    """
    key = (int(timestep), int(dim), np.dtype(dtype).str)
    row = _TIME_EMB_ROWS.get(key)
    if row is None:
        row = sinusoidal_time_embedding(
            np.asarray([key[0]], dtype=np.int64), dim
        ).astype(dtype, copy=False)
        row.setflags(write=False)
        if len(_TIME_EMB_ROWS) < _TIME_EMB_MAX_ROWS:
            _TIME_EMB_ROWS[key] = row
        perf.incr("infer.time_emb_rows")
    return row


class WorkspacePool:
    """Refcount-guarded arenas keyed by (trailing shape, dtype).

    ``take((rows, *tail), dtype)`` hands out the leading ``rows`` of an
    arena: the smallest free one that is large enough, else the largest
    free one regrown to ``rows``, else a new one.  So a process that sees many
    batch sizes holds as many arenas as its largest batch needs, each
    at the largest row count, not one buffer set per shape.

    An arena is free iff its only references are the bucket list, the
    scan variable and ``sys.getrefcount``'s own argument (== 3).  A view
    the caller still holds — the previous step's ``eps`` kept alive by
    the sampler loop — references the arena through ``.base``, so a live
    buffer is never handed out twice.  After a warm-up step or two the
    per-step working set settles onto the same arenas and
    ``infer.ws_miss`` / ``infer.ws_bytes`` stop moving.

    Single-threaded by design (one engine per thread of work; the
    blocked GEMM backend's threads never call into the pool).
    """

    _MAX_PER_KEY = 8

    def __init__(self) -> None:
        self._store: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        rows, tail = int(shape[0]), tuple(shape[1:])
        key = (tail, np.dtype(dtype).str)
        bucket = self._store.get(key)
        if bucket is None:
            bucket = self._store[key] = []
        best = small = None
        best_rows = small_rows = 0
        for i in range(len(bucket)):
            arena = bucket[i]
            if sys.getrefcount(arena) != 3:
                continue
            have = arena.shape[0]
            if have >= rows:
                if best is None or have < best_rows:
                    best, best_rows = i, have
            elif have > small_rows:
                small, small_rows = i, have
        if best is not None:
            perf.incr("infer.ws_hit")
            return bucket[best][:rows]
        arena = np.empty((rows,) + tail, dtype)
        perf.incr("infer.ws_miss")
        perf.incr("infer.ws_bytes", arena.nbytes)
        if small is not None:
            bucket[small] = arena  # regrown: the smaller arena is freed
        elif len(bucket) < self._MAX_PER_KEY:
            bucket.append(arena)
        return arena[:rows]

    def nbytes(self) -> int:
        """Bytes held by the pool's arenas."""
        return sum(a.nbytes for bucket in self._store.values() for a in bucket)

    def clear(self) -> None:
        self._store.clear()


# -- weight packs ----------------------------------------------------------


class _LinearPack:
    """Contiguous arrays for one affine layer.

    A :class:`~repro.core.lora.LoRALinear` packs its frozen base plus
    the low-rank pair ``lora_a`` / ``lora_b`` and the ``alpha / r``
    scale; a plain :class:`Linear` leaves them ``None``.
    """

    __slots__ = ("w", "b", "lora_a", "lora_b", "scale")

    def __init__(self, layer, dtype: np.dtype, name: str):
        lora = (
            isinstance(layer, LoRALinear)
            and type(layer).forward is LoRALinear.forward
        )
        base = layer.base if lora else layer
        if (
            not isinstance(base, Linear)
            or type(base).forward is not Linear.forward
        ):
            raise CompileError(
                f"{name}: expected a Linear or LoRALinear, got "
                f"{type(layer).__name__}"
            )
        self.w = np.ascontiguousarray(base.weight.data, dtype=dtype)
        self.b = (
            np.ascontiguousarray(base.bias.data, dtype=dtype)
            if base.bias is not None
            else None
        )
        self.lora_a = self.lora_b = self.scale = None
        if lora:
            self.lora_a = np.ascontiguousarray(layer.lora_a.data, dtype=dtype)
            self.lora_b = np.ascontiguousarray(layer.lora_b.data, dtype=dtype)
            # The tape lifts the scale at the operand's dtype.
            self.scale = np.dtype(dtype).type(layer.scale)


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


def _affine(
    pack: _LinearPack,
    x: np.ndarray,
    out: np.ndarray | None = None,
    pool: WorkspacePool | None = None,
) -> np.ndarray:
    """``out = x @ w + b [+ ((x @ a) @ lb) * scale]`` — the Linear /
    LoRALinear order.  Without ``out`` (or ``pool`` for the low-rank
    scratch) fresh arrays are allocated."""
    if out is None:
        out = np.empty((x.shape[0], pack.w.shape[1]), pack.w.dtype)
    _backend.matmul(x, pack.w, out=out)
    if pack.b is not None:
        out += pack.b
    if pack.lora_a is not None:
        take = pool.take if pool is not None else np.empty
        low = take((x.shape[0], pack.lora_a.shape[1]), out.dtype)
        _backend.matmul(x, pack.lora_a, out=low)
        up = take(out.shape, out.dtype)
        _backend.matmul(low, pack.lora_b, out=up)
        up *= pack.scale
        out += up
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


class _RowBlocks:
    """Conditioning blocks keyed by what they depend on.

    Each key holds one tuple of ``(n, ...)`` arrays built at the largest
    row count asked for so far (at least 2) and regrown on demand;
    lookups return their leading ``rows``.  An ``exact`` lookup instead
    keys and builds its block at exactly ``rows`` rows: a 1-row product
    (BLAS's GEMV path), and every product of a LoRA tree, whose skinny
    ``x @ A`` GEMMs round differently at different row counts.  Oldest
    keys are evicted past ``limit``.
    """

    def __init__(self, name: str, limit: int) -> None:
        self.blocks: dict[tuple, tuple[np.ndarray, ...]] = {}
        self.limit = limit
        self._hit = f"infer.{name}_cache_hit"
        self._miss = f"infer.{name}_cache_miss"
        self._evict = f"infer.{name}_cache_evict"

    def get(self, key, rows: int, exact: bool, build) -> list[np.ndarray]:
        slot = (key, rows if exact else 0)
        block = self.blocks.get(slot)
        if block is not None and block[0].shape[0] >= rows:
            perf.incr(self._hit)
        else:
            perf.incr(self._miss)
            block = tuple(build(rows if exact else max(rows, 2)))
            self.blocks.pop(slot, None)
            self.blocks[slot] = block
            if len(self.blocks) > self.limit:
                self.blocks.pop(next(iter(self.blocks)))
                perf.incr(self._evict)
        return [b[:rows] for b in block]

    def nbytes(self) -> int:
        return sum(b.nbytes for block in self.blocks.values() for b in block)


def _has_lora(module) -> bool:
    if module is None:
        return False
    if isinstance(module, LoRALinear):
        return True
    return any(_has_lora(child) for child in module._modules.values())


# -- the compiled engine ---------------------------------------------------


class CompiledDenoiser:
    """A flat no-tape execution plan for one denoiser at one dtype.

    ``prompt_encoder`` / ``controlnet`` (modules at the same dtype) feed
    the conditioning caches; each cache miss runs their tape forward
    once.  Weight packs alias the live float64 parameters (contiguous
    float64 input makes ``ascontiguousarray`` a no-op), so the engine
    must be rebuilt when the weights change — the pipeline invalidates
    its engine cache alongside the cast-module cache on fit / add_class.
    """

    #: cache bounds for long-lived processes: every distinct DDIM
    #: schedule adds its timesteps; classes bound the other two.
    max_t_cache = 128
    max_cond_cache = 64

    def __init__(
        self,
        denoiser: ConditionalDenoiser,
        dtype=None,
        prompt_encoder=None,
        controlnet=None,
    ):
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
        self.prompt_encoder = prompt_encoder
        self.controlnet = controlnet

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
        #: what the null (unconditional) half adds in place of control
        #: injections: ``+ 0.0``, as the tape's zero tensors do, so
        #: signed zeros stay bitwise
        self._null_controls = (0.0,) * len(self.blocks)

        #: LoRA products are not row-invariant: key conditioning by rows
        self._exact_rows = _has_lora(denoiser) or _has_lora(controlnet)
        self.pool = WorkspacePool()
        self._t_blocks = _RowBlocks("t", self.max_t_cache)
        self._cond_blocks = _RowBlocks("cond", self.max_cond_cache)
        self._ctrl_blocks = _RowBlocks("ctrl", self.max_cond_cache)
        perf.incr("infer.compile")

    def retained_bytes(self) -> int:
        """Bytes held between runs: the conditioning caches plus the pool."""
        return (
            self.pool.nbytes()
            + self._t_blocks.nbytes()
            + self._cond_blocks.nbytes()
            + self._ctrl_blocks.nbytes()
        )

    # -- conditioning caches ----------------------------------------------

    def t_hidden(self, timestep: int, rows: int) -> np.ndarray:
        """``time_proj2(silu(time_proj1(embed(t))))`` for ``rows`` rows.

        Keyed by timestep: one embedded row repeated to the block's
        rows, projected once and reused for every forward at this
        timestep for the lifetime of the engine.
        """
        timestep = int(timestep)

        def build(n: int):
            row = time_embedding_row(timestep, self.time_dim, self.dtype)
            emb = np.repeat(row, n, axis=0)
            h1 = _affine(self.time_proj1, emb)
            h1 = h1 * (1.0 / (1.0 + np.exp(-h1)))
            return (_affine(self.time_proj2, h1),)

        return self._t_blocks.get(
            timestep, rows, self._exact_rows or rows == 1, build)[0]

    def cond_hidden(
        self, prompt: str, null_prompt: str | None, rows: int
    ) -> list[np.ndarray]:
        """``cond_proj(prompt_encoder(...))`` for ``rows`` rows per prompt.

        Unguided: ``[c]``.  Guided: ``[c_cond, c_null]``, projected
        together as the tape projects the fused batch's conditioning.
        """
        prompts = [prompt] if null_prompt is None else [prompt, null_prompt]

        def build(n: int):
            enc = np.concatenate([
                np.repeat(self.prompt_encoder([p]).data, n, axis=0)
                for p in prompts
            ])
            ch = _affine(self.cond_proj, enc)
            return [ch[i * n:(i + 1) * n] for i in range(len(prompts))]

        single = null_prompt is None and rows == 1
        return self._cond_blocks.get(
            (prompt, null_prompt), rows, self._exact_rows or single, build)

    def controls(self, mask: np.ndarray, key: bytes,
                 rows: int) -> list[np.ndarray]:
        """Per-block ControlNet injections for a class mask, ``rows`` rows.

        A miss runs the ControlNet's tape forward once over a
        materialised mask batch.
        """

        def build(n: int):
            batch = np.repeat(mask[None, :], n, axis=0).astype(
                self.dtype, copy=False)
            return [c.data for c in self.controlnet(batch)]

        return self._ctrl_blocks.get(
            key, rows, self._exact_rows or rows == 1, build)

    # -- the plan ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        timestep: int,
        conds: list[np.ndarray],
        controls: list[np.ndarray] | None,
    ) -> np.ndarray:
        """One no-tape denoiser evaluation; returns a pooled buffer.

        ``conds`` is one projected conditioning block per half of ``x``:
        ``[c]``, or ``[c_cond, c_null]`` for a fused classifier-free
        guidance batch, whose null half adds ``+ 0.0`` for controls.
        The returned array stays valid until the caller drops its
        reference (the refcount guard protects it from reuse while
        held).  Bitwise-identical to
        ``denoiser(Tensor(x), t_vec, Tensor(cond), controls).data``.
        """
        rows = x.shape[0]
        hid = self.hidden
        dt = self.dtype
        # Same names as the eager denoiser, so a forward is counted as
        # one whichever path ran it.
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
        if len(conds) == 1:
            halves = ((a, conds[0], controls),)
        else:
            m = rows // 2
            null = self._null_controls if controls is not None else None
            halves = ((a[:m], conds[0], controls), (a[m:], conds[1], null))

        _affine(self.input_proj, x, h, pool)
        for i, (norm, fc1, fc2) in enumerate(self.blocks):
            # LayerNorm -> add-conditioning, fused in place.
            _layernorm(norm, h, out=a, sq=b, mu=mu, var=var)
            a += t_h
            for part, cond, ctrl in halves:
                part += cond
                if ctrl is not None:
                    part += ctrl[i]
            # Linear -> SiLU, fused through scratch buffers.
            _affine(fc1, a, b, pool)
            _silu(b, out=c)
            _affine(fc2, c, a, pool)
            h += a
        _layernorm(self.out_norm, h, out=a, sq=b, mu=mu, var=var)
        out = pool.take((rows, self.latent_dim), dt)
        _affine(self.output_proj, a, out, pool)
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
        prompt: str,
        null_prompt: str | None,
        guidance_weight: float,
        mask: np.ndarray | None = None,
        rows: int | None = None,
    ):
        """An eps closure for one prompt, over any number of rows.

        ``null_prompt`` with a positive ``guidance_weight`` fuses
        classifier-free guidance into one ``2m``-row forward; ``mask``
        adds ControlNet injections to the conditional half.  ``rows``
        builds the conditioning blocks now, outside the step loop.
        """
        weight = float(guidance_weight)
        null = null_prompt if weight > 0 else None
        if self.controlnet is None:
            mask = None
        if mask is not None:
            mask = np.asarray(mask)
        mask_key = mask.tobytes() if mask is not None else None
        pool = self.pool
        latent = self.latent_dim
        dt = self.dtype

        def conditioning(m: int):
            ctrl = (
                self.controls(mask, mask_key, m)
                if mask is not None else None
            )
            return self.cond_hidden(prompt, null, m), ctrl

        if rows is not None:
            conditioning(int(rows))

        def eps(x_t: np.ndarray, t) -> np.ndarray:
            m = len(x_t)
            step = _constant_timestep(t)
            conds, ctrl = conditioning(m)
            if null is None:
                return self.forward(x_t, step, conds, ctrl)
            x2 = pool.take((2 * m, x_t.shape[1]), dt)
            x2[:m] = x_t
            x2[m:] = x_t
            out = self.forward(x2, step, conds, ctrl)
            result = pool.take((m, latent), dt)
            scratch = pool.take((m, latent), dt)
            # (1 + w) * eps_cond - w * eps_null, in place.
            np.multiply(out[:m], 1.0 + weight, out=result)
            np.multiply(out[m:], weight, out=scratch)
            np.subtract(result, scratch, out=result)
            return result

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
    prompt_encoder=None,
    controlnet=None,
) -> CompiledDenoiser:
    """Compile ``denoiser`` into a :class:`CompiledDenoiser` plan.

    ``batch`` pre-warms the workspace pool for that row count so even
    the first step of a run allocates nothing large.  Raises
    :class:`CompileError` for module trees the plan cannot express
    (subclassed forwards, non-float dtypes).
    """
    engine = CompiledDenoiser(
        denoiser, dtype=dtype, prompt_encoder=prompt_encoder,
        controlnet=controlnet,
    )
    if batch is not None:
        engine.prewarm(batch)
    return engine

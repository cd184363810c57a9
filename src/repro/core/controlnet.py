"""ControlNet-style conditioning branch for inter-packet constraints.

The paper's third tier: "a controlling element which governs the shape and
inter-packet dependencies within each class to ensure synthetic data
reflect realistic protocol usage patterns in flows.  ControlNet serves as
a strong example of this component, guiding the generation process via
one-shot controls" (§3.1).

This module reproduces the two ControlNet ideas at our scale:

* **Zero-initialised side branch** — a control signal (here: the flow's
  per-column protocol *structure mask*) is encoded by a trainable branch
  whose per-block output projections start at exactly zero
  (:class:`~repro.ml.nn.modules.ZeroLinear`), so attaching the branch to a
  pretrained denoiser is initially a no-op and influence grows with
  fine-tuning.
* **One-shot control at inference** — generation for a class is guided by
  a single reference mask (e.g. the class's canonical TCP/UDP occupancy
  pattern), optionally hard-projected onto the final sample
  (:func:`apply_structure_guidance`).
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.ml.nn import Linear, Module, Tensor, ZeroLinear
from repro.ml.nn import backend as _backend
from repro.nprint.fields import NPRINT_BITS, REGION_SLICES, VACANT


def structure_mask(matrix: np.ndarray) -> np.ndarray:
    """Per-column occupancy of a flow's nprint matrix, in [0, 1].

    ``matrix`` is ``(P, 1088)`` ternary; the mask is the fraction of
    non-padding packets in which each bit column is non-vacant.  The mask
    captures exactly the constraint the paper demonstrates in Fig. 2: for
    an all-TCP flow the TCP region is ~1 and the UDP/ICMP regions are 0.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != NPRINT_BITS:
        raise ValueError(f"expected (P, {NPRINT_BITS}), got {matrix.shape}")
    packet_rows = ~np.all(matrix == VACANT, axis=1)
    if not packet_rows.any():
        return np.zeros(NPRINT_BITS)
    rows = matrix[packet_rows]
    return (rows != VACANT).mean(axis=0)


def protocol_mask(proto: str, occupancy: float = 1.0) -> np.ndarray:
    """Canonical structure mask for a pure-``proto`` flow ('tcp'/'udp'/'icmp').

    Marks the IPv4 region and the named transport region occupied; used as
    the one-shot control when no reference flow is supplied.
    """
    if proto not in ("tcp", "udp", "icmp"):
        raise ValueError(f"unknown protocol {proto!r}")
    mask = np.zeros(NPRINT_BITS)
    ipv4 = REGION_SLICES["ipv4"]
    mask[ipv4.start : ipv4.stop] = occupancy
    region = REGION_SLICES[proto]
    mask[region.start : region.stop] = occupancy
    return mask


class ControlNetBranch(Module):
    """Encode a control mask into per-block injections for the denoiser.

    The mask (1088-d) is first pooled into a compact signature, encoded by
    a small MLP, then emitted through one :class:`ZeroLinear` per denoiser
    block — the "zero convolution" connections of ControlNet.
    """

    #: pooling factor from the 1088 mask columns to the branch input
    POOL = 16

    def __init__(self, hidden: int, blocks: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_dim = NPRINT_BITS // self.POOL  # 68 pooled mask features
        self.hidden = hidden
        self.n_blocks = blocks
        self.encoder1 = Linear(self.in_dim, hidden, rng=rng)
        self.encoder2 = Linear(hidden, hidden, rng=rng)
        self.zero_projections = [
            ZeroLinear(hidden, hidden, rng=rng) for _ in range(blocks)
        ]
        for i, proj in enumerate(self.zero_projections):
            self.register_module(f"zero{i}", proj)

    def pool_mask(
        self, mask: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Average-pool a (B, 1088) mask batch to (B, in_dim).

        float32 input is pooled in float32 (the inference tier); anything
        else is promoted to float64 as before.  ``out=`` threads a
        ``(B, in_dim)`` workspace (same values bitwise — ``mean`` writes
        through it) for the compiled training engine.
        """
        mask = np.asarray(mask)
        if mask.dtype != np.float32:
            mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim == 1:
            mask = mask[None, :]
        if mask.shape[1] != NPRINT_BITS:
            raise ValueError(f"mask width must be {NPRINT_BITS}")
        b = mask.shape[0]
        pooled = mask.reshape(b, self.in_dim, self.POOL)
        if out is None:
            return pooled.mean(axis=2)
        return pooled.mean(axis=2, out=out)

    def forward(self, mask: np.ndarray) -> list[Tensor]:
        """Per-block control injections for a batch of masks."""
        perf.incr("controlnet.forward")
        pooled = Tensor(self.pool_mask(mask))
        h = self.encoder2(self.encoder1(pooled).silu()).silu()
        return [proj(h) for proj in self.zero_projections]

    def forward_data(self, mask: np.ndarray) -> list[np.ndarray]:
        """Per-block injections as raw arrays — no autograd tape.

        Bitwise-identical to ``[t.data for t in self(mask)]`` (same
        GEMM-backend products, same ufunc order); the compiled inference
        engine calls this once per class and caches the result for every
        chunk of a streaming run.
        """
        perf.incr("controlnet.forward_data")
        pooled = self.pool_mask(mask)

        def affine(layer: Linear, x: np.ndarray) -> np.ndarray:
            out = _backend.matmul(x, layer.weight.data)
            if layer.bias is not None:
                out = out + layer.bias.data
            return out

        def silu(x: np.ndarray) -> np.ndarray:
            sig = 1.0 / (1.0 + np.exp(-x))
            return x * sig

        h = silu(affine(self.encoder2, silu(affine(self.encoder1, pooled))))
        return [affine(proj, h) for proj in self.zero_projections]

    def is_identity(self) -> bool:
        """True while every zero projection is still exactly zero."""
        return all(
            not proj.weight.data.any()
            and (proj.bias is None or not proj.bias.data.any())
            for proj in self.zero_projections
        )


def apply_structure_guidance(
    matrix: np.ndarray,
    mask: np.ndarray,
    threshold: float = 0.5,
    quantise: bool = False,
) -> np.ndarray:
    """Project a continuous generated matrix onto a structure mask.

    Columns the mask marks unoccupied (< threshold) are forced vacant;
    columns it marks occupied have their values pulled out of the vacant
    range so quantisation keeps them.  This is the hard inference-time
    constraint that guarantees Fig. 2's "all packets strictly conform to
    the dominant protocol type".

    ``matrix`` is one ``(P, 1088)`` matrix or a ``(n, P, 1088)`` batch,
    projected in one broadcast pass.  ``quantise=True`` returns the int8
    ternary matrix instead, equal to
    ``quantize_matrix(apply_structure_guidance(matrix, mask))`` but
    without materialising the float projection.
    """
    with perf.timer("emit.guidance"):
        matrix = np.asarray(matrix)
        if not quantise or matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if matrix.ndim not in (2, 3) or matrix.shape[-1] != mask.shape[0]:
            raise ValueError("matrix/mask shape mismatch")
        # Padding rows (trailing all-vacant rows of the fixed-height image)
        # must stay padding.  Detection uses the *fixed* 20-byte IPv4 span:
        # always present (mean ~0.2) on packet rows, all vacant (-1) on
        # padding rows.  The full region would mislead — its 40 option
        # bytes are usually vacant, dragging packet rows to ~-0.58.
        ipv4 = REGION_SLICES["ipv4"]
        # The mean is taken in float64 over each contiguous 160-wide row,
        # so borderline rows resolve the same whatever the batch shape.
        row_mean = matrix[..., ipv4.start : ipv4.start + 160].astype(
            np.float64).mean(axis=-1)
        # Occupied columns of packet rows keep their (clipped) values;
        # everything else is vacant.
        keep = (row_mean > -0.5)[..., None] & ~(mask < threshold)
        if quantise:
            # clip(x, 0, 1) >= 0.5  <=>  x >= 0.5, exact in float32 too.
            # Kept cells hold the bit, the rest VACANT: bit*keep + keep - 1.
            out = (matrix >= 0.5).view(np.int8)
            keep = keep.view(np.int8)
            out *= keep
            out += keep
            out -= 1
            return out
        return np.where(keep, np.clip(matrix, 0.0, 1.0), -1.0)

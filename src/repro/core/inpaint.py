"""Traffic deblurring: restore missing header fields with the diffusion model.

§4 of the paper sketches downstream tasks a generative traffic foundation
model would enable; the first is **traffic deblurring** — "the restoration
of missing header fields or corrupted parts within network traffic".

This module implements it as diffusion inpainting.  The trained pipeline
diffuses in the latent space of a linear codec, so the RePaint-style
known-region projection happens in *data space* at every sampler step:

1. run one (strided) reverse step on the latent;
2. decode the current x0 estimate to the nprint domain;
3. overwrite the known bits with their observed values;
4. re-encode and renoise to the next timestep.

Because the codec is linear, steps 2-4 are exact projections, and the
model only has to fill the masked region consistently with its learned
class-conditional structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ddim import ddim_timesteps
from repro.core.pipeline import NULL_PROMPT, TextToTrafficPipeline
from repro.core.postprocess import gaps_to_channel, quantize_matrix
from repro.nprint.fields import FIELDS, NPRINT_BITS


def field_mask(field_names: list[str], max_packets: int) -> np.ndarray:
    """Boolean mask over a ``(P, 1088)`` matrix: True = *missing*.

    ``field_names`` are nprint field names (see ``repro.nprint.FIELDS``),
    e.g. ``["ipv4.ttl", "tcp.window"]``; the named columns are marked
    missing in every packet row.
    """
    mask = np.zeros((max_packets, NPRINT_BITS), dtype=bool)
    for name in field_names:
        fs = FIELDS[name]
        mask[:, fs.start:fs.stop] = True
    return mask


@dataclass
class DeblurResult:
    """Restored matrix plus diagnostics."""

    matrix: np.ndarray  # ternary, same shape as the input
    continuous: np.ndarray
    missing_fraction: float


class TrafficDeblurrer:
    """Restore masked regions of nprint matrices with a fitted pipeline."""

    def __init__(self, pipeline: TextToTrafficPipeline):
        if pipeline.denoiser is None:
            raise ValueError("pipeline must be fitted")
        self.pipeline = pipeline

    def deblur(
        self,
        matrix: np.ndarray,
        missing: np.ndarray,
        class_name: str,
        gaps: np.ndarray | None = None,
        steps: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> DeblurResult:
        """Fill the ``missing`` region of one ternary nprint ``matrix``.

        ``matrix`` is ``(P, 1088)`` with P = the pipeline's max_packets;
        ``missing`` a boolean mask of the same shape (True = restore).
        The observed region is preserved bit-exactly in the output.
        """
        pipe = self.pipeline
        cfg = pipe.config
        if matrix.shape != (cfg.max_packets, NPRINT_BITS):
            raise ValueError(
                f"matrix must be ({cfg.max_packets}, {NPRINT_BITS}), "
                f"got {matrix.shape}"
            )
        if missing.shape != matrix.shape:
            raise ValueError("mask/matrix shape mismatch")
        rng = rng or np.random.default_rng()
        steps = steps or cfg.ddim_steps

        # Known data vector (gaps channel is always treated as observed).
        if gaps is None:
            gap_channel = np.zeros(cfg.max_packets)
        else:
            gap_channel = gaps_to_channel(gaps)
        observed = pipe._vectorize(
            matrix[None].astype(np.float32), gap_channel[None]
        )[0]
        flat_missing = np.concatenate(
            [missing.reshape(-1),
             np.zeros(cfg.max_packets, dtype=bool)]
        )

        schedule = pipe.diffusion.schedule
        ts = ddim_timesteps(schedule.timesteps, steps)
        prompt = pipe.codebook.prompt_for(class_name)
        mask_template = pipe.class_masks.get(class_name)
        eps_model = pipe._infer_engine(None).eps_model(
            prompt, NULL_PROMPT, cfg.guidance_weight, mask=mask_template,
            rows=1,
        )

        z = rng.standard_normal((1, pipe.codec.latent_dim))
        x0_vec = observed.copy()
        for i, t in enumerate(ts):
            t_vec = np.array([t])
            eps = eps_model(z, t_vec)
            z0_hat = pipe.diffusion.predict_x0(z, t_vec, eps)
            z0_hat = np.clip(z0_hat, -3.0, 3.0)
            # Project onto the observation: decode, clamp known bits,
            # re-encode (exact for a linear codec).
            x0_vec = pipe.codec.decode(z0_hat)[0]
            x0_vec[~flat_missing] = observed[~flat_missing]
            z0_proj = pipe.codec.encode(x0_vec[None])
            prev_t = ts[i + 1] if i + 1 < len(ts) else -1
            alpha_prev = schedule.alpha_bars[prev_t] if prev_t >= 0 else 1.0
            z = (np.sqrt(alpha_prev) * z0_proj
                 + np.sqrt(max(1 - alpha_prev, 0.0)) * eps)

        continuous, _ = pipe._devectorize(x0_vec[None])
        continuous = continuous[0]
        restored = quantize_matrix(continuous)
        # Bit-exact passthrough of the observed region.
        restored[~missing] = matrix[~missing]
        return DeblurResult(
            matrix=restored,
            continuous=continuous,
            missing_fraction=float(missing.mean()),
        )

    def deblur_fields(
        self,
        matrix: np.ndarray,
        field_names: list[str],
        class_name: str,
        **kwargs,
    ) -> DeblurResult:
        """Convenience: restore the named header fields in every packet."""
        missing = field_mask(field_names, self.pipeline.config.max_packets)
        return self.deblur(matrix, missing, class_name, **kwargs)

"""Post-processing: continuous model output -> valid packets -> pcap.

The paper's final stage: "This synthetic image is then color processed to
restrict it to the aforementioned distinct colors and back-transformed
into nprint and finally into pcap format" (§3.1).  Here that is:

1. quantise the continuous matrix to ternary (color processing),
2. repair each row's *structure* — exactly one transport region, fully
   populated fixed header parts, word-aligned options,
3. field-level repair and checksum recomputation in the nprint decoder,
4. serialise through :mod:`repro.net.pcap`.

The timing channel (per-packet inter-arrival gaps) travels alongside the
bit matrix through the codec; :func:`gaps_to_channel` and
:func:`channel_to_gaps` define the invertible log-scale transform.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.imaging.colormap import continuous_to_ternary
from repro.net.flow import Flow
from repro.nprint.decoder import decode_flow
from repro.nprint.fields import (
    FIELDS,
    NPRINT_BITS,
    REGION_SLICES,
    VACANT,
)

# Fixed (option-free) bit spans of each header region.
_IPV4_FIXED_BITS = 160
_TCP_FIXED_BITS = 160

# log1p millisecond scale keeps sub-ms and multi-second gaps both
# representable in roughly [0, 2].
_GAP_SCALE = 5.0


def gaps_to_channel(gaps: np.ndarray) -> np.ndarray:
    """Inter-arrival seconds -> bounded log-scale channel values."""
    gaps = np.maximum(np.asarray(gaps, dtype=np.float64), 0.0)
    return np.log1p(gaps * 1000.0) / _GAP_SCALE


def channel_to_gaps(channel: np.ndarray) -> np.ndarray:
    """Inverse of :func:`gaps_to_channel` (clamped non-negative)."""
    channel = np.asarray(channel, dtype=np.float64)
    return np.maximum(np.expm1(np.clip(channel, 0.0, 4.0) * _GAP_SCALE)
                      / 1000.0, 0.0)


def quantize_matrix(continuous: np.ndarray) -> np.ndarray:
    """Color-process a continuous matrix into ternary {-1, 0, 1}."""
    return continuous_to_ternary(continuous)


def repair_row_structure(row: np.ndarray) -> np.ndarray:
    """Make one ternary row structurally decodable.

    Chooses the dominant transport region by occupancy, vacates the other
    two, fills vacant bits inside fixed header spans with 0, and rounds
    option tails to whole 32-bit words (dropping mostly-vacant tails).
    """
    row = np.asarray(row, dtype=np.int8).copy()

    # IPv4 fixed header is always present.
    ipv4 = REGION_SLICES["ipv4"]
    fixed = row[ipv4.start : ipv4.start + _IPV4_FIXED_BITS]
    fixed[fixed == VACANT] = 0
    _align_options(row, FIELDS["ipv4.options"])

    occupancy = {
        name: float(np.mean(row[fs.start : fs.stop] != VACANT))
        for name, fs in REGION_SLICES.items()
        if name != "ipv4"
    }
    winner = max(occupancy, key=occupancy.get)
    for name, fs in REGION_SLICES.items():
        if name in ("ipv4", winner):
            continue
        row[fs.start : fs.stop] = VACANT

    region = REGION_SLICES[winner]
    if winner == "tcp":
        fixed = row[region.start : region.start + _TCP_FIXED_BITS]
        fixed[fixed == VACANT] = 0
        _align_options(row, FIELDS["tcp.options"])
    else:
        segment = row[region.start : region.stop]
        segment[segment == VACANT] = 0
    return row


def _align_options(row: np.ndarray, fs) -> None:
    """Keep whole 32-bit option words that are mostly present; drop the rest."""
    span = row[fs.start : fs.stop]
    n_words = len(span) // 32
    for w in range(n_words):
        word = span[w * 32 : (w + 1) * 32]
        if np.mean(word != VACANT) >= 0.5:
            word[word == VACANT] = 0
        else:
            span[w * 32 :] = VACANT
            break


def _align_option_words(span: np.ndarray) -> None:
    """Row-batched :func:`_align_options` over an option span, in place.

    A word is kept when >= 50% of its bits are present; the first failing
    word vacates itself and everything after it in the span (the scalar
    version's ``break``), which is a prefix-AND along the word axis.
    """
    n_words = span.shape[1] // 32
    if n_words == 0:
        return
    head = span[:, : n_words * 32]
    present = (head != VACANT).reshape(len(span), n_words, 32)
    keep = np.logical_and.accumulate(
        np.count_nonzero(present, axis=2) >= 16, axis=1)
    keep_bits = np.repeat(keep, 32, axis=1)
    head[keep_bits & (head == VACANT)] = 0
    head[~keep_bits] = VACANT
    tail = span[:, n_words * 32 :]
    if tail.shape[1]:
        tail[~keep[:, -1]] = VACANT


def _repair_rows(rows: np.ndarray) -> None:
    """Vectorised :func:`repair_row_structure` over packet rows, in place."""
    ipv4 = REGION_SLICES["ipv4"]
    fixed = rows[:, ipv4.start : ipv4.start + _IPV4_FIXED_BITS]
    fixed[fixed == VACANT] = 0
    ip_options = FIELDS["ipv4.options"]
    _align_option_words(rows[:, ip_options.start : ip_options.stop])

    # Same iteration order as the scalar dict, so occupancy ties break
    # identically (argmax and max() both pick the first maximum); a
    # present-bit count over the width is bitwise the scalar np.mean.
    names = [n for n in REGION_SLICES if n != "ipv4"]
    occupancy = np.stack([
        np.count_nonzero(
            rows[:, REGION_SLICES[n].start : REGION_SLICES[n].stop]
            != VACANT, axis=1) / REGION_SLICES[n].width
        for n in names
    ])
    winner = np.argmax(occupancy, axis=0)
    for idx, name in enumerate(names):
        fs = REGION_SLICES[name]
        won = winner == idx
        rows[~won, fs.start : fs.stop] = VACANT
        if not won.any():
            continue
        region = rows[won, fs.start : fs.stop]
        if name == "tcp":
            tcp_fixed = region[:, :_TCP_FIXED_BITS]
            tcp_fixed[tcp_fixed == VACANT] = 0
            _align_option_words(region[:, _TCP_FIXED_BITS:])
        else:
            region[region == VACANT] = 0
        rows[won, fs.start : fs.stop] = region


def repair_matrix(matrix: np.ndarray) -> np.ndarray:
    """Structure-repair every packet row; padding rows stay vacant.

    Row-batched implementation of :func:`repair_row_structure` (one pass
    of array ops over the whole matrix instead of per-row Python), pinned
    to the scalar function's output by the test suite.  ``matrix`` is one
    ``(P, 1088)`` matrix or a ``(n, P, 1088)`` batch; a batch repairs all
    ``n * P`` rows in one pass and cuts each flow's padding separately.
    """
    matrix = np.asarray(matrix, dtype=np.int8)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != NPRINT_BITS:
        raise ValueError(
            f"expected (P, {NPRINT_BITS}) or (n, P, {NPRINT_BITS}), "
            f"got {matrix.shape}"
        )
    out = matrix.copy()
    flows = out.reshape(-1, *out.shape[-2:])
    ipv4 = REGION_SLICES["ipv4"]
    # A packet row always carries the fixed 20-byte IPv4 header; the
    # first row without it ends the flow (flows are contiguous, so later
    # stray rows are padding too).
    # fewer than half the fixed bits present (count / 160 < 0.5)
    bad = np.count_nonzero(
        flows[..., ipv4.start : ipv4.start + _IPV4_FIXED_BITS] != VACANT,
        axis=-1) < _IPV4_FIXED_BITS // 2
    height = flows.shape[1]
    cut = np.where(bad.any(axis=1), np.argmax(bad, axis=1), height)
    # Rows repair independently, so padding rows are repaired along with
    # the rest and vacated afterwards.
    _repair_rows(flows.reshape(-1, NPRINT_BITS))
    flows[np.arange(height) >= cut[:, None]] = VACANT
    return out


def matrix_to_flow(
    continuous: np.ndarray,
    gaps_channel: np.ndarray | None = None,
    label: str = "",
    start_time: float = 0.0,
):
    """Full back-transform: continuous matrix (+ timing channel) -> flow.

    A ``(n, P, 1088)`` batch (with ``(n, P)`` timing channels) runs the
    same steps over the whole tensor and returns a
    :class:`~repro.net.flowbatch.FlowBatch`.  An int8 input is taken as
    already ternary (e.g. ``apply_structure_guidance(..., quantise=True)``)
    and is not re-quantised.
    """
    continuous = np.asarray(continuous)
    with perf.timer("emit.repair"):
        ternary = (continuous if continuous.dtype == np.int8
                   else quantize_matrix(continuous))
        repaired = repair_matrix(ternary)
    gaps = None
    if gaps_channel is not None:
        gaps = channel_to_gaps(gaps_channel)
    return decode_flow(repaired, gaps=gaps, label=label, start_time=start_time)

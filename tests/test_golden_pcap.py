"""Golden byte gate for trace emission.

Pins the sha256 of seeded pcap bytes produced by a tiny fitted model, so
any change to the latents -> nprint -> pcap back-transform (guidance,
quantisation, structure repair, decoding, state repair, rendering,
record writing) that alters a single output byte fails here.  The
sampler, RNG streams and fit feed every case, so the digests also pin
those.

The digests were recorded with numpy 2.4 on x86-64; a different BLAS
build may round the fit differently and move them.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.net.packet import PacketRenderer, render_flows
from repro.net.pcap import PcapWriter
from repro.traffic.dataset import generate_app_flows

GOLDEN = {
    "stream_fp64":
        "1a2b3b5839c19c86271e62cf58bed02ec315e8eb6688728521b6004f8bcb51ca",
    "stream_fp32_state_repair":
        "1b3829a8a20ee183ee5dfc3f5a7b3d525ce1c6254ebcc9e61fdd7cd314b1b60a",
    "coalesced_parts": [
        "4e9e7e310fb830ac7ad2e204db4cf89053d1180f9db2effc500034d4b1adff41",
        "7b25dfa7e44042bbf5fe1fac1039e8502cd1b4d526e6e78323e44b782d23f215",
        "799103bf7b76a24b2781480f1ab936e6c04dcb563ecb4299f44c2508f73830fb",
    ],
    "sharded_workers1":
        "ac58e6f74480273f51ff115a69c822dd6422c098812a3edb2357030ebc640fd7",
}


def _fit() -> TextToTrafficPipeline:
    # Truncated to 2-11 packets so generated flows vary in length.
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(f.truncated(2 + 3 * (i % 4)) for i, f in
                     enumerate(generate_app_flows(app, 12, seed=3)))
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(flows)


@pytest.fixture(scope="module")
def fitted():
    return _fit()


def _pcap_digest(results) -> str:
    buf = io.BytesIO()
    writer = PcapWriter(buf)
    renderer = PacketRenderer()
    for result in results:
        datas, stamps = render_flows(result.flows, renderer)
        writer.write_many(datas, stamps)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def _stream(fitted, **kwargs):
    """A guided TCP class, then an unguided class whose flows mix TCP
    and UDP packets."""
    results = list(fitted.generate_stream("netflix", 40, chunk=16,
                                          **kwargs))
    results.extend(fitted.generate_stream("teams", 40, chunk=16,
                                          hard_guidance=False, **kwargs))
    return results


class TestGoldenPcap:
    def test_stream_fp64(self, fitted):
        results = _stream(fitted, rng=np.random.default_rng(21))
        assert _pcap_digest(results) == GOLDEN["stream_fp64"]

    def test_stream_fp32_state_repair(self, fitted):
        results = _stream(fitted, rng=np.random.default_rng(22),
                          dtype=np.float32, state_repair=True)
        assert _pcap_digest(results) == GOLDEN["stream_fp32_state_repair"]

    def test_coalesced_parts(self, fitted):
        parts = [(3, np.random.default_rng(31)),
                 (11, np.random.default_rng(32)),
                 (1, np.random.default_rng(33))]
        results = fitted.generate_coalesced("netflix", parts,
                                            state_repair=True)
        digests = [_pcap_digest([r]) for r in results]
        assert digests == GOLDEN["coalesced_parts"]

    def test_sharded_workers1(self, fitted):
        results = _stream(fitted, workers=1, seed=41)
        assert _pcap_digest(results) == GOLDEN["sharded_workers1"]

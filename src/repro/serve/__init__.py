"""Traffic-generation service tier.

Long-lived serving over a fitted pipeline: an async request queue with
micro-batched dispatch (:mod:`repro.serve.service`), a content-addressed
LRU model store (:mod:`repro.serve.store`), Prometheus metrics
(:mod:`repro.serve.metrics`) and a stdlib HTTP front end
(:mod:`repro.serve.http`).  Determinism contract: a request's flows
depend only on ``(server_seed, request_id)`` — see :func:`request_rng`.
"""

from repro.serve.metrics import render_prometheus
from repro.serve.service import (
    SERVE_SALT,
    GenerateRequest,
    GenerationService,
    RequestExpired,
    RequestTooLarge,
    ServiceClosed,
    ServiceOverloaded,
    request_rng,
)
from repro.serve.store import ModelNotFound, ModelStore

__all__ = [
    "SERVE_SALT",
    "GenerateRequest",
    "GenerationService",
    "ModelNotFound",
    "ModelStore",
    "RequestExpired",
    "RequestTooLarge",
    "ServiceClosed",
    "ServiceOverloaded",
    "render_prometheus",
    "request_rng",
]

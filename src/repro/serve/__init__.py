"""Model persistence, registry and batched serving for trained tuners.

The serving subsystem takes a trained tuner from "in-memory object" to
"deployable artifact behind a batched service":

* :mod:`repro.serve.artifacts` — versioned save/load round trip (weights,
  fitted scalers, modality/arch/config-space metadata) with SHA-256
  integrity checks;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, a named + versioned
  model store over a directory tree;
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, thread-safe
  micro-batching of concurrent requests into single
  :meth:`~repro.core.mga.MGAModel.predict` calls with an LRU cache of static
  features;
* :mod:`repro.serve.service` — :class:`TuningService`, the request/response
  façade with per-model routing and latency/throughput counters;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, a socket-served
  multi-worker front-end: work-conserving micro-batching, bounded queues
  with load shedding, a self-healing process pool and drain-on-shutdown;
  serves ``AF_UNIX`` paths or ``tcp://HOST:PORT`` (same protocol);
* :mod:`repro.serve.router` — :class:`ServeRouter`, the multi-host
  distribution layer: consistent-hash sharding by ``(model, version)``
  over health-checked replica groups with fleet-level admission control;
* :mod:`repro.serve.lifecycle` — :class:`LifecycleManager`, the online
  model lifecycle: registry-generation watch, zero-drain hot-swap with
  pin/rollback, shadow deploys with prediction diffing and auto
  promote/abort, and per-route drift aggregation;
* :mod:`repro.serve.drift` — :class:`DriftBaseline` /
  :class:`DriftMonitor`, a streaming input-drift sketch (per-feature
  quantile envelopes + unseen-vocabulary counters) seeded from the
  training set at publish time and scored on live traffic;
* :mod:`repro.serve.loadgen` — open-loop Poisson load generation with
  latency histograms and SLO attainment (:func:`~repro.serve.loadgen.
  open_loop`);
* :mod:`repro.serve.client` — :class:`DaemonClient`, the JSON-line socket
  client mirroring the :class:`TuningService` surface, with opt-in bounded
  retry on transient connect failures and ``overloaded`` sheds;
* :mod:`repro.serve.faults` — injectable :class:`FaultPlan` schedules
  (dropped/delayed/duplicated frames, stalled heartbeats, scheduled worker
  SIGKILL) consulted by the transport and the campaign fleet for chaos
  testing;
* ``python -m repro.serve`` — a small CLI to publish, query and serve
  models (``daemon`` / ``router`` / ``request`` / ``loadgen`` talk the
  socket protocol).
"""

from repro.serve.artifacts import (
    ArtifactError,
    load_artifact,
    payload_for,
    read_manifest,
    restore_payload,
    save_artifact,
)
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import ServeDaemon
from repro.serve.drift import DriftBaseline, DriftMonitor, baseline_for
from repro.serve.faults import FaultPlan
from repro.serve.engine import InferenceEngine, PendingResult
from repro.serve.lifecycle import LifecycleManager, ShadowPolicy, SwapError
from repro.serve.loadgen import open_loop
from repro.serve.registry import ModelRegistry, ModelVersion
from repro.serve.router import HashRing, ServeRouter
from repro.serve.service import (
    CampaignRequest,
    CampaignResponse,
    MapRequest,
    MapResponse,
    TuneRequest,
    TuneResponse,
    TuningService,
)

__all__ = [
    "ArtifactError",
    "save_artifact",
    "load_artifact",
    "payload_for",
    "restore_payload",
    "read_manifest",
    "ModelRegistry",
    "ModelVersion",
    "InferenceEngine",
    "PendingResult",
    "ServeDaemon",
    "ServeRouter",
    "HashRing",
    "LifecycleManager",
    "ShadowPolicy",
    "SwapError",
    "DriftBaseline",
    "DriftMonitor",
    "baseline_for",
    "open_loop",
    "DaemonClient",
    "DaemonError",
    "FaultPlan",
    "TuningService",
    "TuneRequest",
    "TuneResponse",
    "MapRequest",
    "MapResponse",
    "CampaignRequest",
    "CampaignResponse",
]

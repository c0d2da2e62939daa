"""Model persistence, registry and batched serving for trained tuners.

The serving subsystem takes a trained tuner from "in-memory object" to
"deployable artifact behind a batched service":

* :mod:`repro.serve.artifacts` — versioned save/load round trip (weights,
  fitted scalers, modality/arch/config-space metadata) with SHA-256
  integrity checks;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, a named + versioned
  model store over a directory tree;
* :mod:`repro.serve.engine` — :class:`InferenceEngine`, thread-safe
  synchronous inference: one :meth:`~repro.core.mga.MGAModel.predict` per
  batch a caller holds, behind LRU caches of static features and answers;
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

The names in ``__all__`` load lazily: ``from repro.serve import
InferenceEngine`` imports :mod:`repro.serve.engine` and nothing else, and
``import repro.serve`` alone imports no submodule.  A process pays only for
the subsystems it uses, which keeps the daemon's start-up short and its
parent small: the parent reads registry pointers, queues, memoizes and
aggregates drift without numpy, and only its workers, after the fork,
import numpy and the model they serve.  The typed requests and responses
(``TuneRequest`` and the like) live in :mod:`repro.serve.protocol`, so a
client needs no model stack either.
"""

import importlib

#: public name -> the submodule that defines it, imported on first access
#: (PEP 562), so a process loads only the subsystems it uses: the daemon
#: parent never imports the engine, the router, the search tuners, numpy
#: or the model stack
_EXPORTS = {
    "ArtifactError": "artifacts",
    "save_artifact": "artifacts",
    "load_artifact": "artifacts",
    "payload_for": "artifacts",
    "restore_payload": "artifacts",
    "read_manifest": "artifacts",
    "ModelRegistry": "registry",
    "ModelVersion": "registry",
    "InferenceEngine": "engine",
    "PendingResult": "engine",
    "ServeDaemon": "daemon",
    "ServeRouter": "router",
    "HashRing": "router",
    "LifecycleManager": "lifecycle",
    "ShadowPolicy": "lifecycle",
    "SwapError": "lifecycle",
    "DriftBaseline": "drift",
    "DriftMonitor": "drift",
    "baseline_for": "drift",
    "open_loop": "loadgen",
    "DaemonClient": "client",
    "DaemonError": "client",
    "FaultPlan": "faults",
    "TuningService": "service",
    "TuneRequest": "protocol",
    "TuneResponse": "protocol",
    "MapRequest": "protocol",
    "MapResponse": "protocol",
    "CampaignRequest": "service",
    "CampaignResponse": "service",
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value          # later lookups skip this hook
    return value


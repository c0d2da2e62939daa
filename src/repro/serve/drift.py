"""Input-drift detection for served traffic.

The fig06/fig09 generalization experiments showed the MGA models degrade on
kernels outside the training distribution; in production nobody re-runs a
figure — the serving stack has to *notice*.  This module turns that one-shot
experiment into a standing check:

* :class:`DriftBaseline` — a compact sketch of the training distribution,
  built at publish time from the training dataset and persisted as its own
  artifact kind (``drift_baseline``) inside the published version directory,
  so every served version carries the distribution it was fitted on.  The
  sketch holds per-feature quantiles (deciles over ``[IR2Vec vector ‖ task
  extras]``), exact per-feature min/max, and the set of graph vocabulary
  token ids observed in training graphs.
* :class:`DriftMonitor` — the streaming, per-engine observer.  Every scored
  request contributes three signals: the fraction of features outside the
  training ``[min, max]`` envelope (*exactly zero* on in-distribution
  replay), the fraction of graph nodes carrying a token id never seen in
  training, and a decile-band total-variation distance of the observed
  feature stream against the training deciles (a gauge — inflated at tiny
  sample counts).  A request's drift score is ``max(oob, unseen_tokens)``
  and the request is *flagged* when the score reaches the baseline's
  threshold.

Monitors live inside :class:`~repro.serve.engine.InferenceEngine`; the
daemon aggregates their summaries per route and surfaces them in ``stats``
(and, via the router, per fleet).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.vocab import GraphVocabulary
# the route-level merge needs no numpy, so it lives in the daemon parent's
# lifecycle module; it stays importable from here
from repro.serve.lifecycle import DEFAULT_THRESHOLD, merge_route_drift  # noqa: F401

#: quantile fractions of the sketch: deciles, so 10 equal-mass bands
FRACTIONS: Tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 11))

TASK_TUNE = "tune"
TASK_MAP = "map"


def token_ids_from_graph(graph, vocab_size: int) -> np.ndarray:
    """Recover integer token ids from one-hot node features.

    The graph vocabulary is closed (opcodes + dtypes + UNK), and the first
    ``vocab_size`` columns of ``node_features`` are the one-hot token id —
    argmax inverts the encoding without re-parsing any IR.
    """
    features = np.asarray(graph.node_features)
    return np.argmax(features[:, :vocab_size], axis=1)


def tune_feature_vector(vector: np.ndarray, counters: Dict[str, float],
                        counter_names: Sequence[str]) -> np.ndarray:
    """Serving-time feature row for the tuning task: vector ‖ counters."""
    extras = [float(counters.get(name, 0.0)) for name in counter_names]
    return np.concatenate([np.asarray(vector, dtype=np.float64),
                           np.asarray(extras, dtype=np.float64)])


def map_feature_vector(vector: np.ndarray, transfer_bytes: float,
                       wgsize: float) -> np.ndarray:
    """Serving-time feature row for device mapping: vector ‖ log extras."""
    extras = [np.log1p(float(transfer_bytes)), np.log1p(float(wgsize))]
    return np.concatenate([np.asarray(vector, dtype=np.float64),
                           np.asarray(extras, dtype=np.float64)])


@dataclasses.dataclass
class DriftBaseline:
    """Training-distribution sketch persisted alongside a published model."""

    task: str                         # "tune" | "map"
    quantiles: np.ndarray             # [len(FRACTIONS), feature_dim]
    token_ids: frozenset              # vocab token ids seen in training
    vocab_size: int
    counter_names: Tuple[str, ...]    # tune extras ordering ("" for map)
    n_samples: int
    threshold: float = DEFAULT_THRESHOLD

    @property
    def feature_dim(self) -> int:
        return int(self.quantiles.shape[1])

    @property
    def lo(self) -> np.ndarray:
        return self.quantiles[0]

    @property
    def hi(self) -> np.ndarray:
        return self.quantiles[-1]

    # ------------------------------------------------------------------
    @classmethod
    def from_features(cls, features: np.ndarray,
                      token_id_arrays: Iterable[np.ndarray], *,
                      task: str, counter_names: Sequence[str] = (),
                      vocab_size: Optional[int] = None,
                      threshold: float = DEFAULT_THRESHOLD) -> "DriftBaseline":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("features must be a non-empty 2-D matrix")
        tokens: set = set()
        for ids in token_id_arrays:
            tokens.update(int(t) for t in np.asarray(ids).ravel())
        return cls(
            task=task,
            quantiles=np.quantile(features, FRACTIONS, axis=0),
            token_ids=frozenset(tokens),
            vocab_size=int(vocab_size if vocab_size is not None
                           else GraphVocabulary().size),
            counter_names=tuple(counter_names),
            n_samples=int(features.shape[0]),
            threshold=float(threshold),
        )

    # ------------------------------------------------------------------
    # the artifact payload (kind "drift_baseline")
    # ------------------------------------------------------------------
    def to_payload(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        config = {
            "task": self.task,
            "fractions": [float(f) for f in FRACTIONS],
            "vocab_size": self.vocab_size,
            "counter_names": list(self.counter_names),
            "n_samples": self.n_samples,
            "threshold": self.threshold,
            "feature_dim": self.feature_dim,
        }
        arrays = {
            "drift.quantiles": np.asarray(self.quantiles, dtype=np.float64),
            "drift.token_ids": np.asarray(sorted(self.token_ids),
                                          dtype=np.int64),
        }
        return config, arrays

    @classmethod
    def from_payload(cls, config: Dict[str, Any],
                     arrays: Dict[str, np.ndarray]) -> "DriftBaseline":
        return cls(
            task=str(config["task"]),
            quantiles=np.asarray(arrays["drift.quantiles"], dtype=np.float64),
            token_ids=frozenset(int(t) for t in arrays["drift.token_ids"]),
            vocab_size=int(config["vocab_size"]),
            counter_names=tuple(config.get("counter_names", [])),
            n_samples=int(config["n_samples"]),
            threshold=float(config.get("threshold", DEFAULT_THRESHOLD)),
        )


# ----------------------------------------------------------------------
# baseline builders from the training datasets
# ----------------------------------------------------------------------
def baseline_from_openmp(dataset,
                         threshold: float = DEFAULT_THRESHOLD) -> DriftBaseline:
    """Sketch an :class:`~repro.datasets.openmp.OpenMPTuningDataset`."""
    counter_names = tuple(dataset.counter_names)
    rows = [tune_feature_vector(s.vector, s.counters, counter_names)
            for s in dataset.samples]
    vocab_size = GraphVocabulary().size
    tokens = [token_ids_from_graph(s.graph, vocab_size)
              for s in dataset.samples]
    return DriftBaseline.from_features(
        np.stack(rows), tokens, task=TASK_TUNE,
        counter_names=counter_names, vocab_size=vocab_size,
        threshold=threshold)


def baseline_from_devmap(dataset,
                         threshold: float = DEFAULT_THRESHOLD) -> DriftBaseline:
    """Sketch a :class:`~repro.datasets.devmap.DevMapDataset`."""
    rows = [map_feature_vector(s.vector, s.transfer_bytes, s.wgsize)
            for s in dataset.samples]
    vocab_size = GraphVocabulary().size
    tokens = [token_ids_from_graph(s.graph, vocab_size)
              for s in dataset.samples]
    return DriftBaseline.from_features(
        np.stack(rows), tokens, task=TASK_MAP,
        vocab_size=vocab_size, threshold=threshold)


def baseline_for(obj, dataset,
                 threshold: float = DEFAULT_THRESHOLD) -> DriftBaseline:
    """Build the right-task baseline for a tuner/mapper from its dataset."""
    from repro.core.tuner import DeviceMapper

    if isinstance(obj, DeviceMapper):
        return baseline_from_devmap(dataset, threshold=threshold)
    return baseline_from_openmp(dataset, threshold=threshold)


# ----------------------------------------------------------------------
# the streaming monitor
# ----------------------------------------------------------------------
class DriftMonitor:
    """Streaming drift scorer over one engine's served requests.

    Cheap per request (one comparison pass over ~40 features, an argmax
    over the graph's one-hot token block and one lookup of those token ids
    in a mask of the training vocabulary) and cumulative: :meth:`summary`
    returns monotone counters the daemon can delta-accumulate per route even
    across worker restarts.
    """

    def __init__(self, baseline: DriftBaseline):
        self.baseline = baseline
        dim = baseline.feature_dim
        span = baseline.hi - baseline.lo
        # float-noise pad only: exact training points must never count OOB,
        # while anything meaningfully outside the envelope still does
        self._pad = 1e-9 * (1.0 + np.abs(baseline.lo)
                            + np.abs(baseline.hi) + span)
        self._edges = baseline.quantiles[1:-1]        # [bands - 1, dim]
        self._bands = np.zeros((self._edges.shape[0] + 1, dim), dtype=np.int64)
        #: ``_seen[t]``: token id ``t`` occurs in the training graphs (ids
        #: outside the vocabulary can never be observed, so they are dropped)
        self._seen = np.zeros(baseline.vocab_size, dtype=bool)
        trained = np.fromiter(baseline.token_ids, dtype=np.int64,
                              count=len(baseline.token_ids))
        self._seen[trained[(trained >= 0)
                           & (trained < baseline.vocab_size)]] = True
        self._lock = threading.Lock()
        self._count = 0
        self._flagged = 0
        self._score_sum = 0.0
        self._oob_sum = 0.0
        self._token_sum = 0.0
        self._last_score = 0.0

    # ------------------------------------------------------------------
    def observe(self, feature_row: np.ndarray,
                graph=None) -> Dict[str, Any]:
        """Score one served request; returns the per-request signals."""
        row = np.asarray(feature_row, dtype=np.float64)
        baseline = self.baseline
        oob = np.logical_or(row < baseline.lo - self._pad,
                            row > baseline.hi + self._pad)
        oob_frac = float(np.mean(oob))
        unseen_frac = 0.0
        if graph is not None:
            ids = token_ids_from_graph(graph, baseline.vocab_size)
            if ids.size:
                unseen = ids.size - int(np.count_nonzero(self._seen[ids]))
                unseen_frac = unseen / float(ids.size)
        score = max(oob_frac, unseen_frac)
        flagged = score >= baseline.threshold
        bands = (row[None, :] >= self._edges).sum(axis=0)
        with self._lock:
            self._bands[bands, np.arange(row.size)] += 1
            self._count += 1
            self._flagged += int(flagged)
            self._score_sum += score
            self._oob_sum += oob_frac
            self._token_sum += unseen_frac
            self._last_score = score
        return {"score": score, "oob": oob_frac,
                "unseen_tokens": unseen_frac, "flagged": flagged}

    @property
    def count(self) -> int:
        """Requests scored so far; every other counter moves only with it."""
        return self._count

    # ------------------------------------------------------------------
    def band_tvd(self) -> float:
        """Mean per-feature TVD of observed deciles vs the training 0.1 mass.

        A distributional gauge, not a counter: inflated when few requests
        have been scored (one observation concentrates all mass in one
        band), so read it only at meaningful sample counts.
        """
        with self._lock:
            count = self._count
            bands = self._bands.copy()
        if count == 0:
            return 0.0
        observed = bands / float(count)
        target = 1.0 / bands.shape[0]
        return float(np.mean(0.5 * np.sum(np.abs(observed - target), axis=0)))

    def summary(self) -> Dict[str, Any]:
        """Cumulative counters plus gauges, for route-level aggregation."""
        with self._lock:
            count = self._count
            summary = {
                "count": count,
                "flagged": self._flagged,
                "score_sum": self._score_sum,
                "oob_sum": self._oob_sum,
                "token_sum": self._token_sum,
                "last_score": self._last_score,
                "threshold": self.baseline.threshold,
            }
        summary["band_tvd"] = self.band_tvd()
        summary["mean_score"] = (summary["score_sum"] / count) if count else 0.0
        return summary

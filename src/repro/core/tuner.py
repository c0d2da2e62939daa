"""End-to-end tuners built on :class:`~repro.core.mga.MGAModel`.

* :class:`MGATuner` — OpenMP runtime-parameter tuning (§4.1): trained on an
  :class:`~repro.datasets.openmp.OpenMPTuningDataset`, it predicts the best
  (threads, schedule, chunk) configuration for an unseen loop + input from the
  static modalities plus performance counters profiled under the default
  configuration (the paper's "two runs at inference" cost model).
* :class:`DeviceMapper` — OpenCL heterogeneous device mapping (§4.2).

Both tuners round-trip through the :mod:`repro.serve` subsystem
(``tuner.save(path)`` / ``MGATuner.load(path)``) so a model trained in one
process can be published to a :class:`repro.serve.ModelRegistry` and served
from another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import StaticFeatureExtractor
from repro.core.mga import MGAModel, ModalityConfig
from repro.frontend.openmp import OMPConfig, default_omp_config
from repro.frontend.spec import KernelSpec
from repro.profiling import PAPIProfiler
from repro.simulator.microarch import MicroArch

if TYPE_CHECKING:  # annotation-only: keeps repro.core importable standalone
    from repro.datasets.devmap import DevMapDataset, DevMapSample
    from repro.datasets.openmp import OpenMPSample, OpenMPTuningDataset


class MGATuner:
    """OpenMP tuner: profile once under the default config, then predict."""

    def __init__(self, arch: MicroArch, configs: Sequence[OMPConfig],
                 extractor: Optional[StaticFeatureExtractor] = None,
                 modalities: ModalityConfig = ModalityConfig.mga(),
                 counter_names: Optional[Sequence[str]] = None,
                 seed: int = 0, **model_kwargs):
        self.arch = arch
        self.configs = list(configs)
        self.extractor = extractor or StaticFeatureExtractor()
        self.modalities = modalities
        self.counter_names = list(counter_names) if counter_names else None
        self.seed = seed
        self.model_kwargs = dict(model_kwargs)
        self.model: Optional[MGAModel] = None

    # ------------------------------------------------------------------
    def _sample_features(self, dataset: OpenMPTuningDataset,
                         samples: Sequence[OpenMPSample]):
        graphs = [s.graph for s in samples]
        vectors = np.stack([s.vector for s in samples])
        extra = dataset.counter_matrix(samples)
        return graphs, vectors, extra

    def fit(self, dataset: OpenMPTuningDataset,
            train_indices: Optional[Sequence[int]] = None,
            **train_kwargs) -> Dict[str, List[float]]:
        """Train on (a subset of) an OpenMP tuning dataset."""
        samples = (dataset.samples if train_indices is None
                   else dataset.subset(list(train_indices)))
        if not samples:
            raise ValueError("no training samples")
        if self.counter_names is None:
            self.counter_names = list(dataset.counter_names)
        graphs, vectors, extra = self._sample_features(dataset, samples)
        labels = dataset.labels(samples)
        self.model = MGAModel(
            graph_feature_dim=graphs[0].feature_dim,
            vector_dim=vectors.shape[1],
            extra_dim=extra.shape[1],
            num_classes=dataset.num_configs,
            modalities=self.modalities,
            seed=self.seed,
            **self.model_kwargs,
        )
        return self.model.fit(graphs, vectors, extra, labels, **train_kwargs)

    # ------------------------------------------------------------------
    def predict_indices(self, dataset: OpenMPTuningDataset,
                        indices: Sequence[int]) -> np.ndarray:
        """Predicted configuration index for dataset samples."""
        if self.model is None:
            raise RuntimeError("tuner is not fitted")
        samples = dataset.subset(list(indices))
        graphs, vectors, extra = self._sample_features(dataset, samples)
        return self.model.predict(graphs, vectors, extra)

    def predict_configs(self, dataset: OpenMPTuningDataset,
                        indices: Sequence[int]) -> List[OMPConfig]:
        return [dataset.configs[i]
                for i in self.predict_indices(dataset, indices)]

    # ------------------------------------------------------------------
    def tune(self, spec: KernelSpec, scale: float = 1.0,
             profiler: Optional[PAPIProfiler] = None
             ) -> Tuple[OMPConfig, Dict[str, float]]:
        """Tune an unseen kernel+input: profile at the default config, predict.

        Returns the predicted configuration and the profiling counters used.
        Inference needs only the profiling run(s) — no search over the space —
        which is what makes the MGA tuner faster than search-based tuners.
        A seeded ``profiler`` applies the same noise draws on every profile
        (see :class:`~repro.profiling.papi.PAPIProfiler`), so sharing one
        across calls gives each the answer a fresh profiler would.
        """
        if self.model is None:
            raise RuntimeError("tuner is not fitted")
        profiler = profiler or PAPIProfiler(self.arch)
        record = profiler.profile(spec, scale=scale,
                                  config=default_omp_config(self.arch.cores),
                                  events=self.counter_names)
        graph, vector = self.extractor.extract(spec)
        extra = np.array([[record.counters[name]
                           for name in self.counter_names]])
        index = int(self.model.predict([graph], vector[None, :], extra)[0])
        return self.configs[index], dict(record.counters)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a versioned on-disk artifact (see :mod:`repro.serve`)."""
        from repro.serve.artifacts import save_artifact
        save_artifact(path, self)

    @classmethod
    def load(cls, path) -> "MGATuner":
        """Load a tuner saved with :meth:`save` (integrity-checked)."""
        from repro.serve.artifacts import load_artifact_as
        return load_artifact_as(path, cls)


class DeviceMapper:
    """OpenCL CPU/GPU mapper (the §4.2 task)."""

    def __init__(self, extractor: Optional[StaticFeatureExtractor] = None,
                 modalities: ModalityConfig = ModalityConfig.mga(),
                 seed: int = 0, **model_kwargs):
        self.extractor = extractor or StaticFeatureExtractor()
        self.modalities = modalities
        self.seed = seed
        self.model_kwargs = dict(model_kwargs)
        self.model: Optional[MGAModel] = None

    @staticmethod
    def _sample_features(dataset: DevMapDataset, samples: Sequence[DevMapSample]):
        graphs = [s.graph for s in samples]
        vectors = np.stack([s.vector for s in samples])
        extra = dataset.extra_features(samples)
        return graphs, vectors, extra

    def fit(self, dataset: DevMapDataset,
            train_indices: Optional[Sequence[int]] = None,
            **train_kwargs) -> Dict[str, List[float]]:
        samples = (dataset.samples if train_indices is None
                   else dataset.subset(list(train_indices)))
        if not samples:
            raise ValueError("no training samples")
        graphs, vectors, extra = self._sample_features(dataset, samples)
        labels = dataset.labels(samples)
        self.model = MGAModel(
            graph_feature_dim=graphs[0].feature_dim,
            vector_dim=vectors.shape[1],
            extra_dim=extra.shape[1],
            num_classes=2,
            modalities=self.modalities,
            seed=self.seed,
            **self.model_kwargs,
        )
        return self.model.fit(graphs, vectors, extra, labels, **train_kwargs)

    def predict(self, dataset: DevMapDataset,
                indices: Sequence[int]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("mapper is not fitted")
        samples = dataset.subset(list(indices))
        graphs, vectors, extra = self._sample_features(dataset, samples)
        return self.model.predict(graphs, vectors, extra)

    # ------------------------------------------------------------------
    def map_device(self, spec: KernelSpec, transfer_bytes: float,
                   wgsize: int) -> int:
        """Map one unseen kernel invocation to CPU (0) or GPU (1).

        The extra features mirror :meth:`DevMapDataset.extra_features`:
        log-scaled transfer and workgroup sizes.
        """
        if self.model is None:
            raise RuntimeError("mapper is not fitted")
        graph, vector = self.extractor.extract(spec)
        extra = np.array([[np.log1p(float(transfer_bytes)),
                           np.log1p(float(wgsize))]])
        return int(self.model.predict([graph], vector[None, :], extra)[0])

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a versioned on-disk artifact (see :mod:`repro.serve`)."""
        from repro.serve.artifacts import save_artifact
        save_artifact(path, self)

    @classmethod
    def load(cls, path) -> "DeviceMapper":
        """Load a mapper saved with :meth:`save` (integrity-checked)."""
        from repro.serve.artifacts import load_artifact_as
        return load_artifact_as(path, cls)

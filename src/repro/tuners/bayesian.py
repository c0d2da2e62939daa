"""Bayesian-optimisation tuners: ytopt-like (GP + EI) and BLISS-like.

* :class:`YtoptTuner` — a Gaussian-process surrogate with an expected-
  improvement acquisition over the discrete configuration space, mirroring
  ytopt's surrogate-model loop.
* :class:`BLISSTuner` — BLISS (Roy et al., PLDI 2021) maintains a *pool of
  diverse lightweight models* (here: GPs with different length scales and a
  random-forest regressor) and picks the pool member that best explains the
  observations so far to propose the next configuration.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.frontend.openmp import OMPConfig
from repro.ml import RandomForestRegressor
from repro.tuners.base import BlackBoxTuner, sample_without_replacement
from repro.tuners.space import SearchSpace


class GaussianProcess:
    """Minimal GP regressor with an RBF kernel (for the BO surrogates)."""

    def __init__(self, length_scale: float = 0.5, signal_var: float = 1.0,
                 noise: float = 1e-4):
        self.length_scale = float(length_scale)
        self.signal_var = float(signal_var)
        self.noise = float(noise)
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return self.signal_var * np.exp(-0.5 * d2 / self.length_scale ** 2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        from scipy.linalg import cho_factor, cho_solve

        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std
        k = self._kernel(x, x) + self.noise * np.eye(len(x))
        self._chol = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._chol, yn)
        self._x = x
        return self

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        from scipy.linalg import cho_solve

        if self._x is None:
            raise RuntimeError("GP is not fitted")
        x = np.asarray(x, dtype=np.float64)
        k_star = self._kernel(x, self._x)
        mean = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        var = np.maximum(self.signal_var - np.sum(k_star * v.T, axis=1), 1e-12)
        return mean * self._y_std + self._y_mean, np.sqrt(var) * self._y_std

    def log_likelihood(self, x: np.ndarray, y: np.ndarray) -> float:
        """Gaussian log-likelihood of held-in data under the fitted GP."""
        mean, std = self.predict(x)
        y = np.asarray(y, dtype=np.float64)
        return float(np.sum(-0.5 * ((y - mean) / std) ** 2
                            - np.log(std) - 0.5 * math.log(2 * math.pi)))


def expected_improvement(mean: np.ndarray, std: np.ndarray,
                         best: float) -> np.ndarray:
    """EI for minimisation."""
    from scipy.stats import norm

    improvement = best - mean
    z = improvement / np.maximum(std, 1e-12)
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def _top_k(remaining: List[OMPConfig], scores: np.ndarray,
           k: int) -> List[OMPConfig]:
    """The ``k`` highest-scoring candidates, best first (deterministic)."""
    order = np.argsort(-scores, kind="stable")[:k]
    return [remaining[int(i)] for i in order]


class YtoptTuner(BlackBoxTuner):
    """GP + expected-improvement surrogate loop (ytopt-style)."""

    name = "ytopt"

    def __init__(self, budget: int = 10, seed: int = 0, init_points: int = 3,
                 length_scale: float = 0.5):
        super().__init__(budget=budget, seed=seed)
        self.init_points = int(init_points)
        self.length_scale = length_scale

    def get_config(self):
        return {**super().get_config(), "init_points": self.init_points,
                "length_scale": self.length_scale}

    def _acquisition(self, space: SearchSpace,
                     history: List[Tuple[OMPConfig, float]],
                     remaining: List[OMPConfig]) -> np.ndarray:
        x = np.stack([space.to_vector(c) for c, _ in history])
        y = np.log(np.array([t for _, t in history]))
        gp = GaussianProcess(length_scale=self.length_scale).fit(x, y)
        candidates = np.stack([space.to_vector(c) for c in remaining])
        mean, std = gp.predict(candidates)
        return expected_improvement(mean, std, best=float(y.min()))

    def propose(self, space: SearchSpace, history: List[Tuple[OMPConfig, float]],
                rng: np.random.Generator) -> OMPConfig:
        seen = {config for config, _ in history}
        remaining = [c for c in space if c not in seen]
        if not remaining:
            return space[rng.integers(len(space))]
        if len(history) < self.init_points:
            return remaining[rng.integers(len(remaining))]
        ei = self._acquisition(space, history, remaining)
        return remaining[int(np.argmax(ei))]

    def ask(self, space: SearchSpace, history: List[Tuple[OMPConfig, float]],
            rng: np.random.Generator, k: int = 1) -> List[OMPConfig]:
        """Batch proposals: random during warm-up, then the top-k EI."""
        seen = {config for config, _ in history}
        remaining = [c for c in space if c not in seen]
        if not remaining:
            return []
        if len(history) < self.init_points:
            return sample_without_replacement(remaining, rng, k)
        ei = self._acquisition(space, history, remaining)
        return _top_k(remaining, ei, k)


class BLISSTuner(BlackBoxTuner):
    """Pool-of-lightweight-models Bayesian tuner (BLISS-style)."""

    name = "bliss"

    def __init__(self, budget: int = 10, seed: int = 0, init_points: int = 3):
        super().__init__(budget=budget, seed=seed)
        self.init_points = int(init_points)

    def get_config(self):
        return {**super().get_config(), "init_points": self.init_points}

    def _pool(self) -> List[object]:
        return [
            GaussianProcess(length_scale=0.25),
            GaussianProcess(length_scale=0.5),
            GaussianProcess(length_scale=1.0),
            RandomForestRegressor(n_estimators=12, max_depth=4, seed=self.seed),
        ]

    def _acquisition(self, space: SearchSpace,
                     history: List[Tuple[OMPConfig, float]],
                     remaining: List[OMPConfig]) -> Optional[np.ndarray]:
        """EI from the pool member that best explains the last observation."""
        x = np.stack([space.to_vector(c) for c, _ in history])
        y = np.log(np.array([t for _, t in history]))
        candidates = np.stack([space.to_vector(c) for c in remaining])

        # leave-last-out scoring to pick the pool member that explains the data
        best_score, best_pred = -np.inf, None
        for model in self._pool():
            try:
                model.fit(x[:-1], y[:-1])
                if isinstance(model, GaussianProcess):
                    mean, std = model.predict(x[-1:])
                    score = -abs(float(mean[0]) - y[-1])
                    cmean, cstd = model.predict(candidates)
                else:
                    pred = model.predict(x[-1:])
                    score = -abs(float(pred[0]) - y[-1])
                    model.fit(x, y)
                    cmean = model.predict(candidates)
                    cstd = model.predict_std(candidates) + 1e-3
                if score > best_score:
                    best_score = score
                    ei = expected_improvement(cmean, cstd, best=float(y.min()))
                    best_pred = ei
            except Exception:           # singular kernels etc: skip that model
                continue
        return best_pred

    def propose(self, space: SearchSpace, history: List[Tuple[OMPConfig, float]],
                rng: np.random.Generator) -> OMPConfig:
        seen = {config for config, _ in history}
        remaining = [c for c in space if c not in seen]
        if not remaining:
            return space[rng.integers(len(space))]
        if len(history) < self.init_points:
            return remaining[rng.integers(len(remaining))]
        best_pred = self._acquisition(space, history, remaining)
        if best_pred is None:
            return remaining[rng.integers(len(remaining))]
        return remaining[int(np.argmax(best_pred))]

    def ask(self, space: SearchSpace, history: List[Tuple[OMPConfig, float]],
            rng: np.random.Generator, k: int = 1) -> List[OMPConfig]:
        """Batch proposals: random during warm-up, then the pool's top-k EI."""
        seen = {config for config, _ in history}
        remaining = [c for c in space if c not in seen]
        if not remaining:
            return []
        if len(history) < self.init_points:
            return sample_without_replacement(remaining, rng, k)
        best_pred = self._acquisition(space, history, remaining)
        if best_pred is None:
            return sample_without_replacement(remaining, rng, k)
        return _top_k(remaining, best_pred, k)

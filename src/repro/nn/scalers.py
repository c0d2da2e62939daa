"""Feature scalers: standard, min-max and Gaussian-rank.

The paper scales the IR2Vec code vectors with Gaussian rank scaling before
the denoising autoencoder, and normalises performance counters / transfer and
workgroup sizes into [0, 1] before fusion.

Every scaler exposes ``get_state`` / ``set_state`` returning plain numpy
arrays so fitted scalers can travel inside model state dicts and the
:mod:`repro.serve.artifacts` on-disk format.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.nn.backend import xp


class StandardScaler:
    """Zero-mean / unit-variance per feature."""

    def __init__(self) -> None:
        self.mean_: Optional[xp.ndarray] = None
        self.std_: Optional[xp.ndarray] = None

    def fit(self, x: xp.ndarray) -> "StandardScaler":
        x = xp.asarray(x, dtype=xp.float64)
        self.mean_ = x.mean(axis=0)
        self.std_ = x.std(axis=0)
        self.std_ = xp.where(self.std_ < 1e-12, 1.0, self.std_)
        return self

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return (xp.asarray(x, dtype=xp.float64) - self.mean_) / self.std_

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return xp.asarray(x) * self.std_ + self.mean_

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.mean_ is None:
            return {}
        return {"mean": self.mean_.copy(), "std": self.std_.copy()}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "mean" in state:
            self.mean_ = xp.asarray(state["mean"], dtype=xp.float64)
            self.std_ = xp.asarray(state["std"], dtype=xp.float64)


class MinMaxScaler:
    """Scale each feature into [0, 1] (constant features map to 0)."""

    def __init__(self) -> None:
        self.min_: Optional[xp.ndarray] = None
        self.range_: Optional[xp.ndarray] = None

    def fit(self, x: xp.ndarray) -> "MinMaxScaler":
        x = xp.asarray(x, dtype=xp.float64)
        self.min_ = x.min(axis=0)
        rng = x.max(axis=0) - self.min_
        self.range_ = xp.where(rng < 1e-12, 1.0, rng)
        return self

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.min_ is None:
            raise RuntimeError("scaler is not fitted")
        out = (xp.asarray(x, dtype=xp.float64) - self.min_) / self.range_
        return xp.clip(out, 0.0, 1.0)

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.min_ is None:
            return {}
        return {"min": self.min_.copy(), "range": self.range_.copy()}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "min" in state:
            self.min_ = xp.asarray(state["min"], dtype=xp.float64)
            self.range_ = xp.asarray(state["range"], dtype=xp.float64)


def _normal_quantiles(n: int, epsilon: float) -> xp.ndarray:
    """``[n + 1]`` standard-normal quantiles of the ranks ``0..n``.

    A value's rank among ``n`` sorted reference values is an integer in
    ``[0, n]``, so these ``n + 1`` numbers are every value a Gauss-rank
    transform can produce.  ``erfinv`` is element-wise, so looking a rank
    up here is bit-identical to evaluating it on that rank.  Only fitting
    (or restoring a state saved without the table) evaluates it, which
    keeps ``scipy`` out of processes that only transform.
    """
    from scipy.special import erfinv

    ranks = xp.arange(n + 1, dtype=xp.float64)
    frac = xp.clip(ranks / max(n - 1, 1), epsilon, 1.0 - epsilon)
    return xp.sqrt(2.0) * erfinv(2.0 * frac - 1.0)


class GaussRankScaler:
    """Gaussian rank scaling (Jahrer's Porto-Seguro winning trick).

    Each feature is mapped to the quantiles of a standard normal via its rank
    in the training data; unseen values are interpolated between the training
    values' ranks.

    ``transform`` ranks every column in one pass.  Each value is first
    replaced by its integer rank among *all* reference values, which keeps
    the order of values within a column (NaN included, as the largest).
    Offsetting those integers by column turns the per-column lookups into
    one ``searchsorted`` over a single sorted key array.  The ranks are
    exact integers, so the output is bit-identical to ranking column by
    column with ``searchsorted(side="left")``.  A rank is then looked up in
    the table of the ``n + 1`` possible outputs, computed once at fit time
    and saved in the state next to the reference values.
    """

    def __init__(self, epsilon: float = 1e-3):
        self.epsilon = float(epsilon)
        #: [n_features, n] sorted training values, one row per feature
        self.sorted_: Optional[xp.ndarray] = None
        #: [n + 1] normal quantile of each possible rank
        self.table_: Optional[xp.ndarray] = None

    def fit(self, x: xp.ndarray) -> "GaussRankScaler":
        x = xp.asarray(x, dtype=xp.float64)
        if x.ndim != 2:
            raise ValueError("GaussRankScaler expects a 2-D matrix")
        ref = xp.sort(x.T, axis=1)
        self._set_reference(ref, _normal_quantiles(ref.shape[1], self.epsilon))
        return self

    def _set_reference(self, ref: xp.ndarray, table: xp.ndarray) -> None:
        features, n = ref.shape
        if table.shape != (n + 1,):
            raise ValueError(f"GaussRankScaler table has shape {table.shape}, "
                             f"expected ({n + 1},)")
        self.sorted_ = ref
        self.table_ = table
        #: every reference value, sorted: the global rank scale
        self._values = xp.sort(ref, axis=None)
        #: column j's global ranks live in [j * stride, (j + 1) * stride)
        self._offsets = xp.arange(features, dtype=xp.int64) \
            * (self._values.size + 1)
        self._keys = (xp.searchsorted(self._values, ref, side="left")
                      + self._offsets[:, None]).ravel()
        #: position of column j's first key in ``_keys``
        self._starts = xp.arange(features, dtype=xp.int64) * n

    def transform(self, x: xp.ndarray) -> xp.ndarray:
        if self.sorted_ is None:
            raise RuntimeError("scaler is not fitted")
        x = xp.asarray(x, dtype=xp.float64)
        if x.ndim != 2 or x.shape[1] != self.sorted_.shape[0]:
            raise ValueError(f"expected a [n, {self.sorted_.shape[0]}] matrix")
        codes = xp.searchsorted(self._values, x, side="left") + self._offsets
        # rank of each value among its column's training values, in [0, n]
        ranks = xp.searchsorted(self._keys, codes, side="left") - self._starts
        return self.table_[ranks]

    def fit_transform(self, x: xp.ndarray) -> xp.ndarray:
        return self.fit(x).transform(x)

    def get_state(self) -> Dict[str, xp.ndarray]:
        if self.sorted_ is None:
            return {}
        return {"sorted": self.sorted_.copy(), "table": self.table_.copy()}

    def set_state(self, state: Dict[str, xp.ndarray]) -> None:
        if "sorted" in state:
            ref = xp.array(state["sorted"], dtype=xp.float64, copy=True)
            # states saved before the table was persisted carry none
            table = (xp.array(state["table"], dtype=xp.float64, copy=True)
                     if "table" in state
                     else _normal_quantiles(ref.shape[1], self.epsilon))
            self._set_reference(ref, table)

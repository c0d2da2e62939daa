"""Denoising autoencoder over Gaussian-rank-scaled code vectors."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.dae.noise import swap_noise
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import mse_loss
from repro.nn.layers import Linear, Module, Sequential, Sigmoid
from repro.nn.optim import AdamW
from repro.nn.scalers import GaussRankScaler
from repro.nn.training import iterate_minibatches


class DenoisingAutoencoder(Module):
    """Encoder–code–decoder stack with swap-noise self-supervision.

    The paper keeps the DAE shallow (three hidden layers in total) with
    sigmoid activations; the ``code`` layer output is the compressed feature
    vector used as the second modality of the MGA model.
    """

    def __init__(self, in_dim: int, hidden_dim: int = 48, code_dim: int = 24,
                 swap_rate: float = 0.10, seed: int = 0,
                 dtype: str = "float32"):
        super().__init__()
        if in_dim < 1:
            raise ValueError("in_dim must be positive")
        rng = np.random.default_rng(seed)
        self.in_dim = in_dim
        self.code_dim = code_dim
        self.swap_rate = float(swap_rate)
        self._rng = rng
        self._dtype = np.dtype(dtype)
        self.scaler = GaussRankScaler()
        self.encoder = Sequential(Linear(in_dim, hidden_dim, rng=rng), Sigmoid(),
                                  Linear(hidden_dim, code_dim, rng=rng), Sigmoid())
        self.decoder = Sequential(Linear(code_dim, hidden_dim, rng=rng), Sigmoid(),
                                  Linear(hidden_dim, in_dim, rng=rng))
        self.to_dtype(self._dtype)
        self._fitted = False

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x))

    # ------------------------------------------------------------------
    def extra_state(self):
        state = {"fitted": np.array(float(self._fitted))}
        for key, value in self.scaler.get_state().items():
            state[f"scaler.{key}"] = value
        return state

    def load_extra_state(self, state) -> None:
        if "fitted" in state:
            self._fitted = bool(float(np.asarray(state["fitted"])))
        scaler_state = {key[len("scaler."):]: value
                        for key, value in state.items()
                        if key.startswith("scaler.")}
        self.scaler.set_state(scaler_state)

    # ------------------------------------------------------------------
    def fit(self, vectors: np.ndarray, epochs: int = 40, lr: float = 1e-2,
            batch_size: int = 64, weight_decay: float = 1e-4) -> List[float]:
        """Self-supervised training; returns the per-epoch reconstruction loss."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.in_dim:
            raise ValueError(f"expected [n, {self.in_dim}] training matrix")
        scaled = self.scaler.fit_transform(vectors).astype(self._dtype,
                                                           copy=False)
        optimizer = AdamW(self.parameters(), lr=lr, weight_decay=weight_decay)
        losses: List[float] = []
        for _ in range(epochs):
            epoch_loss = 0.0
            batches = 0
            for batch_idx in iterate_minibatches(scaled.shape[0], batch_size,
                                                 rng=self._rng):
                clean = scaled[batch_idx]
                noisy = swap_noise(clean, self.swap_rate, self._rng)
                recon = self.forward(Tensor(noisy.astype(self._dtype,
                                                         copy=False)))
                loss = mse_loss(recon, clean)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            losses.append(epoch_loss / max(1, batches))
        self._fitted = True
        return losses

    # ------------------------------------------------------------------
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Compressed representation of (possibly unseen) code vectors."""
        if not self._fitted:
            raise RuntimeError("DenoisingAutoencoder.encode called before fit")
        with no_grad():
            return self.encoder(Tensor(self._scaled(vectors))).data

    def encode_tensor(self, vectors: np.ndarray) -> Tensor:
        """Differentiable encoding (used when fine-tuning end-to-end)."""
        return self.encoder(Tensor(self._scaled(vectors)))

    def reconstruction_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error on clean inputs."""
        scaled = self._scaled(vectors)
        with no_grad():
            recon = self.forward(Tensor(scaled))
        return float(np.mean((recon.data - scaled) ** 2))

    def _scaled(self, vectors: np.ndarray) -> np.ndarray:
        scaled = self.scaler.transform(np.asarray(vectors, dtype=np.float64))
        return scaled.astype(self._dtype, copy=False)

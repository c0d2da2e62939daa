"""The multimodal GNN + Autoencoder (MGA) performance model.

Late fusion (§3.2 "Fully Connected Tuning"): the graph embedding produced by
the heterogeneous GNN and the compressed code vector produced by the
denoising autoencoder are concatenated with the (normalised) experiment
specific features — performance counters for OpenMP, transfer/workgroup sizes
for OpenCL — and classified by a one-hidden-layer MLP into the best runtime
configuration.

Ablation switches (:class:`ModalityConfig`) turn the same class into the
paper's unimodal baselines: PROGRAML-only (graph + dynamic), IR2Vec-only
(vector + dynamic), static-only variants and the dynamic-only model of
Figure 5.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dae import DenoisingAutoencoder
from repro.gnn import GNNEncoder, HomogeneousGNNEncoder
from repro.graphs import (
    BatchedHeteroGraph,
    GraphBatchCache,
    HeteroGraphData,
    batch_graphs,
)
from repro.nn import (
    AdamW,
    EarlyStopping,
    MinMaxScaler,
    MLP,
    TapeRunner,
    Tensor,
    concat,
    cross_entropy,
    iterate_minibatches,
    no_grad,
    train_epoch,
)
from repro.nn.layers import Module


@dataclasses.dataclass(frozen=True)
class ModalityConfig:
    """Which modalities take part in the fused feature vector."""

    use_graph: bool = True
    use_vector: bool = True
    use_extra: bool = True

    def __post_init__(self) -> None:
        if not (self.use_graph or self.use_vector or self.use_extra):
            raise ValueError("at least one modality must be enabled")

    @classmethod
    def mga(cls) -> "ModalityConfig":
        return cls(True, True, True)

    @classmethod
    def mga_static(cls) -> "ModalityConfig":
        return cls(True, True, False)

    @classmethod
    def programl(cls) -> "ModalityConfig":
        return cls(True, False, True)

    @classmethod
    def programl_static(cls) -> "ModalityConfig":
        return cls(True, False, False)

    @classmethod
    def ir2vec(cls) -> "ModalityConfig":
        return cls(False, True, True)

    @classmethod
    def ir2vec_static(cls) -> "ModalityConfig":
        return cls(False, True, False)

    @classmethod
    def dynamic_only(cls) -> "ModalityConfig":
        return cls(False, False, True)


class MGAModel(Module):
    """Multimodal classifier over (graph, code vector, extra features)."""

    def __init__(self, graph_feature_dim: int, vector_dim: int, extra_dim: int,
                 num_classes: int,
                 modalities: ModalityConfig = ModalityConfig.mga(),
                 gnn_hidden: int = 24, gnn_out: int = 24, gnn_layers: int = 2,
                 conv_type: str = "ggnn", hetero: bool = True,
                 dae_hidden: int = 48, dae_code: int = 16,
                 mlp_hidden: int = 32, dropout: float = 0.05,
                 seed: int = 0, dtype: str = "float32"):
        super().__init__()
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self._config = dict(
            graph_feature_dim=int(graph_feature_dim), vector_dim=int(vector_dim),
            extra_dim=int(extra_dim), num_classes=int(num_classes),
            modalities=dataclasses.asdict(modalities), gnn_hidden=gnn_hidden,
            gnn_out=gnn_out, gnn_layers=gnn_layers, conv_type=conv_type,
            hetero=hetero, dae_hidden=dae_hidden, dae_code=dae_code,
            mlp_hidden=mlp_hidden, dropout=dropout, seed=seed,
            dtype=self._dtype.name,
        )
        self.modalities = modalities
        self.num_classes = int(num_classes)
        self.extra_dim = int(extra_dim)
        rng = np.random.default_rng(seed)
        self.seed = seed

        fused_dim = 0
        self.gnn: Optional[Module] = None
        if modalities.use_graph:
            encoder_cls = GNNEncoder if hetero else HomogeneousGNNEncoder
            self.gnn = encoder_cls(graph_feature_dim, hidden_dim=gnn_hidden,
                                   out_dim=gnn_out, num_layers=gnn_layers,
                                   conv_type=conv_type, rng=rng)
            fused_dim += gnn_out
        self.dae: Optional[DenoisingAutoencoder] = None
        if modalities.use_vector:
            self.dae = DenoisingAutoencoder(vector_dim, hidden_dim=dae_hidden,
                                            code_dim=dae_code, seed=seed,
                                            dtype=self._dtype.name)
            fused_dim += dae_code
        self.extra_scaler = MinMaxScaler()
        if modalities.use_extra:
            fused_dim += extra_dim

        # "Our fully connected network consists of only one hidden layer."
        self.head = MLP(fused_dim, [mlp_hidden], num_classes, activation="relu",
                        dropout=dropout, rng=rng)
        self.fused_dim = fused_dim
        # parameters are drawn in float64 (so float64 mode is bit-identical
        # to the seed initialisation), then cast down for float32 training
        self.to_dtype(self._dtype)
        self._fitted = False

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of the model (float32 fast path or float64)."""
        return self._dtype

    # ------------------------------------------------------------------
    # persistence (see :mod:`repro.serve.artifacts` for the on-disk format)
    # ------------------------------------------------------------------
    def get_config(self) -> Dict:
        """JSON-serialisable constructor arguments of this model."""
        return dict(self._config)

    @classmethod
    def from_config(cls, config: Dict) -> "MGAModel":
        """Rebuild an architecturally identical (untrained) model."""
        config = dict(config)
        modalities = config.pop("modalities", None)
        if isinstance(modalities, dict):
            modalities = ModalityConfig(**modalities)
        return cls(modalities=modalities or ModalityConfig.mga(), **config)

    def extra_state(self):
        state = {"fitted": np.array(float(self._fitted))}
        for key, value in self.extra_scaler.get_state().items():
            state[f"extra_scaler.{key}"] = value
        return state

    def load_extra_state(self, state) -> None:
        if "fitted" in state:
            self._fitted = bool(float(np.asarray(state["fitted"])))
        scaler_state = {key[len("extra_scaler."):]: value
                        for key, value in state.items()
                        if key.startswith("extra_scaler.")}
        self.extra_scaler.set_state(scaler_state)

    # ------------------------------------------------------------------
    # feature assembly
    # ------------------------------------------------------------------
    @staticmethod
    def prepare_extra(extra: np.ndarray) -> np.ndarray:
        """Counters / sizes span decades: compress with log1p before scaling."""
        return np.log1p(np.maximum(np.asarray(extra, dtype=np.float64), 0.0))

    def _scaled_extra(self, extra: np.ndarray) -> np.ndarray:
        scaled = self.extra_scaler.transform(self.prepare_extra(extra))
        return scaled.astype(self._dtype, copy=False)

    def static_codes(self, graphs: Sequence[HeteroGraphData],
                     vectors: np.ndarray,
                     batch: Optional[BatchedHeteroGraph] = None
                     ) -> np.ndarray:
        """The input-independent half of inference: ``[n, gnn_out + dae_code]``.

        The GNN embedding of each graph and the DAE code of each vector,
        side by side (``[n, 0]`` when neither static modality is on).  They
        depend on the kernel only, never on its input, so a caller may
        compute them once per kernel and hand them to :meth:`predict_logits`
        as ``codes``.  Runs under :func:`repro.nn.no_grad`.

        ``batch`` optionally supplies an already block-diagonal
        :class:`BatchedHeteroGraph` for ``graphs``, skipping the per-call
        batch construction.
        """
        parts: List[np.ndarray] = []
        with no_grad():
            if self.modalities.use_graph:
                if batch is None:
                    batch = batch_graphs(list(graphs))
                parts.append(self.gnn(batch).data)
            if self.modalities.use_vector:
                parts.append(self.dae.encode(
                    np.asarray(vectors, dtype=np.float64)).astype(
                        self._dtype, copy=False))
        if not parts:
            return np.zeros((len(graphs), 0), dtype=self._dtype)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _fuse(self, codes: np.ndarray, extra: np.ndarray) -> Tensor:
        """The head's input: ``codes`` beside the scaled extra features."""
        parts: List[Tensor] = []
        if codes.shape[1]:
            parts.append(Tensor(codes))
        if self.modalities.use_extra:
            parts.append(Tensor(self._scaled_extra(extra)))
        if len(parts) == 1:
            return parts[0]
        return concat(parts, axis=1)

    # ------------------------------------------------------------------
    def fit(self, graphs: Sequence[HeteroGraphData], vectors: np.ndarray,
            extra: np.ndarray, labels: np.ndarray, epochs: int = 40,
            lr: float = 1e-2, weight_decay: float = 1e-3, batch_size: int = 32,
            dae_epochs: int = 30, class_balance: bool = True,
            verbose: bool = False, patience: Optional[int] = None,
            cache_batches: bool = True,
            precompute_frozen: bool = True,
            tape: bool = True,
            tape_runner: Optional[TapeRunner] = None) -> Dict[str, List[float]]:
        """Train the model; returns the loss history.

        The fast path (both flags default on) does two things the naive loop
        does not:

        * ``precompute_frozen`` — the DAE and the extra-feature scaler are
          frozen after pre-training, so their codes / scaled features are
          computed once for the whole training set instead of re-encoded for
          every minibatch of every epoch.
        * ``cache_batches`` — the minibatch partition is drawn once and only
          the *visit order* is reshuffled per epoch, so each block-diagonal
          graph batch (plus its sorted edge layouts) is built exactly once
          and reused across epochs (keyed on the minibatch index tuple).

        Setting both to ``False`` reproduces the seed training loop
        (identical rng consumption), which together with ``dtype="float64"``
        gives numerically seed-equivalent training for the figure
        experiments.  ``patience`` enables early stopping on the epoch loss.

        ``tape`` additionally records each (frozen) minibatch's backward
        graph on its first visit and replays the compiled plan on later
        epochs (:class:`repro.nn.TapeRunner`) — bit-identical losses and
        parameter updates, without per-step graph construction.  It only
        engages when ``cache_batches`` is on (the partition must be frozen
        for a recorded plan to stay valid) and silently falls back to eager
        whenever a plan's guards fail.  ``tape_runner`` shares one runner
        (plan cache + gradient arena) across fits; leave it ``None`` unless
        every fit sees the same data — recorded plans capture batch
        constants by reference.
        """
        labels = np.asarray(labels, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        extra = np.asarray(extra, dtype=np.float64)
        n = len(labels)
        if len(graphs) != n or vectors.shape[0] != n or extra.shape[0] != n:
            raise ValueError("modalities disagree on the number of samples")

        if self.modalities.use_vector:
            self.dae.fit(vectors, epochs=dae_epochs)
        if self.modalities.use_extra:
            self.extra_scaler.fit(self.prepare_extra(extra))

        class_weights = None
        if class_balance:
            counts = np.bincount(labels, minlength=self.num_classes).astype(float)
            weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0),
                               0.0)
            class_weights = weights / max(weights.max(), 1e-12)

        params = self.head.parameters()
        if self.modalities.use_graph:
            params = params + self.gnn.parameters()
        optimizer = AdamW(params, lr=lr, weight_decay=weight_decay)
        rng = np.random.default_rng(self.seed + 17)
        graphs = list(graphs)

        # frozen modalities: encode / scale the whole training set once
        codes = scaled_extra = None
        if precompute_frozen:
            if self.modalities.use_vector:
                codes = self.dae.encode(vectors).astype(self._dtype,
                                                        copy=False)
            if self.modalities.use_extra:
                scaled_extra = self._scaled_extra(extra)

        batch_cache = (GraphBatchCache(graphs)
                       if cache_batches and self.modalities.use_graph else None)
        fixed_batches: Optional[List[np.ndarray]] = None
        if cache_batches:
            fixed_batches = list(iterate_minibatches(n, batch_size, rng=rng))

        def batch_loss(idx: np.ndarray) -> Tensor:
            parts: List[Tensor] = []
            if self.modalities.use_graph:
                batch = (batch_cache.get(idx) if batch_cache is not None
                         else batch_graphs([graphs[i] for i in idx]))
                parts.append(self.gnn(batch))
            if self.modalities.use_vector:
                if codes is not None:
                    parts.append(Tensor(codes[idx]))
                else:
                    parts.append(Tensor(
                        self.dae.encode(vectors[idx]).astype(
                            self._dtype, copy=False)))
            if self.modalities.use_extra:
                parts.append(Tensor(scaled_extra[idx]
                                    if scaled_extra is not None
                                    else self._scaled_extra(extra[idx])))
            fused = parts[0] if len(parts) == 1 else concat(parts, axis=1)
            logits = self.head(fused)
            return cross_entropy(logits, labels[idx],
                                 class_weights=class_weights)

        # replay needs a frozen batch partition: a plan captures its batch's
        # constants (graph layout, codes, labels) at record time
        runner = None
        if tape and fixed_batches is not None:
            runner = tape_runner if tape_runner is not None \
                else TapeRunner(wrt=params)
            # absent-parameter handling (a batch whose graph skips some conv,
            # e.g. an empty relation) must match eager zero_grad semantics
            runner.wrt = list(params)

        stopper = (EarlyStopping(patience=patience)
                   if patience is not None else None)
        history: Dict[str, List[float]] = {"loss": []}
        for epoch in range(epochs):
            if fixed_batches is not None:
                order = rng.permutation(len(fixed_batches))
                epoch_batches = [fixed_batches[j] for j in order]
                keys = [("b", int(j)) for j in order]
                fingerprints = [(int(len(fixed_batches[j])),) for j in order]
            else:
                epoch_batches = list(iterate_minibatches(n, batch_size,
                                                         rng=rng))
                keys = fingerprints = None
            mean_loss, _ = train_epoch(epoch_batches, batch_loss, optimizer,
                                       tape=runner, keys=keys,
                                       fingerprints=fingerprints)
            history["loss"].append(mean_loss)
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: loss="
                      f"{history['loss'][-1]:.4f}")
            if stopper is not None and stopper.step(history["loss"][-1]):
                break
        self._fitted = True
        return history

    # ------------------------------------------------------------------
    def predict_logits(self, graphs: Optional[Sequence[HeteroGraphData]],
                       vectors: Optional[np.ndarray], extra: np.ndarray,
                       codes: Optional[np.ndarray] = None) -> np.ndarray:
        """Raw classifier logits (float64), with dropout off.

        The forward runs under :func:`repro.nn.no_grad`: it builds no
        autograd graph, draws from no dropout rng and never writes a
        module's ``training`` flag, so a predict leaves the model exactly
        as it found it (a ``fit`` on another thread included).

        ``codes`` optionally supplies :meth:`static_codes` rows for the
        samples (the serving engine caches them per kernel); ``graphs`` and
        ``vectors`` are then not read.  Cached or not, the head sees the
        same fused rows, so the logits are byte-identical.
        """
        if not self._fitted:
            raise RuntimeError("MGAModel.predict called before fit")
        if codes is None:
            codes = self.static_codes(graphs, vectors)
        with no_grad():
            fused = self._fuse(codes, np.asarray(extra, dtype=np.float64))
            logits = self.head(fused).data
        return logits.astype(np.float64, copy=False)

    def predict_proba(self, graphs: Optional[Sequence[HeteroGraphData]],
                      vectors: Optional[np.ndarray], extra: np.ndarray,
                      codes: Optional[np.ndarray] = None) -> np.ndarray:
        logits = self.predict_logits(graphs, vectors, extra, codes=codes)
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, graphs: Optional[Sequence[HeteroGraphData]],
                vectors: Optional[np.ndarray], extra: np.ndarray,
                codes: Optional[np.ndarray] = None) -> np.ndarray:
        return self.predict_proba(graphs, vectors, extra,
                                  codes=codes).argmax(axis=1)

"""Module system and basic layers (Linear / Dropout / activations / MLP)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.nn import init
from repro.nn.backend import xp
from repro.nn.autograd import (Tensor, dropout as dropout_fn,
                               get_default_dtype, grad_enabled)


class Module:
    """Base class: tracks parameters and sub-modules, supports train/eval."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        seen = set()
        for value in self.__dict__.values():
            params.extend(_collect_parameters(value, seen))
        return params

    def named_parameters(self, prefix: str = "") -> Dict[str, Tensor]:
        named: Dict[str, Tensor] = {}
        for name, value in self.__dict__.items():
            _collect_named(value, f"{prefix}{name}", named)
        return named

    def named_modules(self, prefix: str = "") -> Dict[str, "Module"]:
        """All sub-modules (including ``self`` under ``prefix``), by path."""
        named: Dict[str, Module] = {prefix: self}
        for name, value in self.__dict__.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            _collect_named_modules(value, child_prefix, named)
        return named

    def zero_grad(self) -> None:
        # Tensor.zero_grad clears tape-arena gradient buffers in place so
        # ``id(p.grad)`` stays stable across replayed steps; non-arena
        # gradients are dropped to None as before.
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in self.__dict__.values():
            for module in _collect_modules(value):
                module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` (float32 / float64) in place."""
        dtype = xp.dtype(dtype)
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, xp.ndarray]:
        """Non-parameter arrays (fitted scalers, flags) to persist.

        Subclasses override this (and :meth:`load_extra_state`) so that
        ``state_dict`` captures everything a save→load round trip needs for
        bit-identical predictions, not just the trainable weights.
        """
        return {}

    def load_extra_state(self, state: Dict[str, xp.ndarray]) -> None:
        """Restore what :meth:`extra_state` produced; ignore unknown keys."""

    def state_dict(self) -> Dict[str, xp.ndarray]:
        state = {name: p.data.copy()
                 for name, p in self.named_parameters().items()}
        for prefix, module in self.named_modules().items():
            for key, value in module.extra_state().items():
                full = f"{prefix}.{key}" if prefix else key
                state[full] = xp.asarray(value)
        return state

    def load_state_dict(self, state: Dict[str, xp.ndarray]) -> None:
        named = self.named_parameters()
        missing = set(named) - set(state)
        if missing:
            raise KeyError(f"missing parameters in state dict: {sorted(missing)}")
        for name, param in named.items():
            value = xp.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            # keep the module's declared dtype (e.g. loading a float64
            # artifact into a float32 model casts rather than promotes)
            param.data = value.astype(param.data.dtype, copy=True)
        # route the non-parameter keys to the deepest module whose path
        # prefixes them (the module that produced them in extra_state)
        modules = self.named_modules()
        extra: Dict[str, Dict[str, xp.ndarray]] = {}
        for key in set(state) - set(named):
            owner, rest = "", key
            for prefix in modules:
                if prefix and key.startswith(prefix + ".") \
                        and len(prefix) > len(owner):
                    owner, rest = prefix, key[len(prefix) + 1:]
            extra.setdefault(owner, {})[rest] = state[key]
        for prefix, sub in extra.items():
            modules[prefix].load_extra_state(sub)


def _collect_parameters(value, seen) -> List[Tensor]:
    params: List[Tensor] = []
    if isinstance(value, Tensor) and value.requires_grad:
        if id(value) not in seen:
            seen.add(id(value))
            params.append(value)
    elif isinstance(value, Module):
        for p in value.parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
    elif isinstance(value, (list, tuple)):
        for item in value:
            params.extend(_collect_parameters(item, seen))
    elif isinstance(value, dict):
        for item in value.values():
            params.extend(_collect_parameters(item, seen))
    return params


def _collect_named(value, prefix: str, out: Dict[str, Tensor]) -> None:
    if isinstance(value, Tensor) and value.requires_grad:
        out[prefix] = value
    elif isinstance(value, Module):
        for name, p in value.named_parameters(prefix=prefix + ".").items():
            out[name] = p
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _collect_named(item, f"{prefix}.{i}", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _collect_named(item, f"{prefix}.{key}", out)


def _collect_named_modules(value, prefix: str, out: Dict[str, "Module"]) -> None:
    if isinstance(value, Module):
        out.update(value.named_modules(prefix=prefix))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _collect_named_modules(item, f"{prefix}.{i}", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _collect_named_modules(item, f"{prefix}.{key}", out)


def _collect_modules(value) -> List["Module"]:
    modules: List[Module] = []
    if isinstance(value, Module):
        modules.append(value)
        for sub in value.__dict__.values():
            modules.extend(_collect_modules(sub))
    elif isinstance(value, (list, tuple)):
        for item in value:
            modules.extend(_collect_modules(item))
    elif isinstance(value, dict):
        for item in value.values():
            modules.extend(_collect_modules(item))
    return modules


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------
class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or xp.default_rng(0)
        self.weight = Tensor(init.xavier_uniform((in_features, out_features), rng),
                             requires_grad=True, name="weight")
        self.bias = (Tensor(xp.zeros(out_features, dtype=get_default_dtype()),
                            requires_grad=True, name="bias") if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return x.linear(self.weight, self.bias)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; inactive in eval mode and under ``no_grad()``."""

    def __init__(self, rate: float = 0.1, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = xp.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.rate, self._rng,
                          training=self.training and grad_enabled())


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation.

    The paper's fused classifier uses a single hidden layer ("we have
    consciously designed a small network"); this class is also used for the
    DAE encoder/decoder stacks.
    """

    def __init__(self, in_features: int, hidden: Sequence[int], out_features: int,
                 activation: str = "relu", dropout: float = 0.0,
                 rng: Optional[xp.Generator] = None):
        super().__init__()
        rng = rng or xp.default_rng(0)
        acts = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh}
        if activation not in acts:
            raise ValueError(f"unknown activation {activation!r}")
        layers: List[Module] = []
        sizes = [in_features] + list(hidden)
        for a, b in zip(sizes, sizes[1:]):
            layers.append(Linear(a, b, rng=rng))
            layers.append(acts[activation]())
            if dropout > 0:
                layers.append(Dropout(dropout))
        layers.append(Linear(sizes[-1], out_features, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

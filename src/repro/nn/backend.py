"""Pluggable array backends for the nn/gnn stack.

Every array operation on the training and serving hot paths routes through
``xp`` — a process-global namespace object bound to the *active*
:class:`ArrayBackend`.  The contract is the ~45 operations the codebase
actually uses (ufuncs with ``out=``, the segment primitives ``add_at`` /
``add_reduceat``, ``take``, constructors, dtype objects, RNG), plus the
numpy ndarray method/operator surface (``.sum``, ``.astype``, ``@``,
fancy indexing) that backend arrays must provide.

Backends:

``numpy``
    The reference implementation.  Every namespace entry *is* the numpy
    function object itself — zero wrapper overhead, and therefore
    bit-identical to calling numpy directly (the seam is a rename, not a
    reimplementation).

``checked``
    Numpy wrapped in instrumentation, used in CI: counts op calls,
    explicit array constructions and out-of-place temporaries, and asserts
    the ``out=`` aliasing contract (a routed call given ``out=`` must
    return that exact buffer).  Numerically it calls the same numpy
    functions, so results stay bitwise identical to the ``numpy`` backend.

Other adapters live out of tree: subclass :class:`ArrayBackend`, fill
its namespace, and :func:`register_backend` it under a new name.  A
factory whose library is missing raises :class:`BackendUnavailable`,
which :func:`available_backends` reports as ``False``.

Switching the active backend bumps the global config epoch (the hooks are
registered by :mod:`repro.nn.autograd`), so cached tape plans recorded
against another backend guard-fail and re-record instead of replaying
stale kernels.  Select a backend with
``repro.nn.runtime.configure(backend=...)`` or the ``REPRO_BACKEND``
environment variable (read once at import).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

import numpy as _np


class BackendUnavailable(RuntimeError):
    """The requested backend's library is not importable here."""


#: Namespace entries that are plain attributes (types, dtype constructors,
#: RNG factories, dtype/shape promotion rules) rather than counted
#: operations.
_ATTRS = (
    "ndarray", "dtype", "float32", "float64", "int64", "bool_",
    "integer", "floating", "Generator", "result_type", "broadcast_shapes",
)

#: Explicit array constructors: the ``checked`` backend counts these as
#: ``constructions`` — the metric the steady-state tape-replay test pins
#: to zero.
_CONSTRUCTORS = (
    "array", "empty", "empty_like", "zeros", "zeros_like", "ones",
    "ones_like", "full", "full_like", "arange",
)

#: Operations that accept ``out=`` and allocate a fresh result without it.
_OUT_OPS = (
    "add", "subtract", "multiply", "divide", "negative", "exp", "log",
    "log1p", "tanh", "sqrt", "sign", "maximum", "minimum", "clip",
    "power", "greater", "not_equal", "matmul", "sum", "mean", "take",
    "cumsum", "add_reduceat",
)

#: Remaining operations: in-place/side-effect (``copyto``, ``add_at``,
#: ``global_seed``), views (``broadcast_to``, ``expand_dims``), or host
#: utilities whose allocations are off the steady-state hot path.
_MISC_OPS = (
    "asarray", "ascontiguousarray", "copyto", "add_at", "concatenate",
    "stack", "where", "broadcast_to", "expand_dims", "argsort", "sort",
    "searchsorted", "flatnonzero", "bincount", "unique", "allclose",
    "diag", "qr", "default_rng", "global_seed", "to_host",
)

#: ``where``/``concatenate``/``stack``/``argsort``/``bincount`` and
#: friends allocate their result; tracked as temporaries when counted.
_ALLOCATING_MISC = frozenset((
    "concatenate", "stack", "where", "argsort", "sort", "bincount",
    "unique", "flatnonzero",
))

ALL_NAMES = _ATTRS + _CONSTRUCTORS + _OUT_OPS + _MISC_OPS


def _numpy_namespace() -> Dict[str, object]:
    """The reference binding: every entry is the numpy object itself."""
    ns: Dict[str, object] = {}
    for name in ALL_NAMES:
        ns[name] = getattr(_np, name, None)
    ns["Generator"] = _np.random.Generator
    ns["default_rng"] = _np.random.default_rng
    ns["global_seed"] = _np.random.seed
    ns["add_at"] = _np.add.at
    ns["add_reduceat"] = _np.add.reduceat
    ns["qr"] = _np.linalg.qr
    ns["to_host"] = _np.asarray
    missing = [k for k, v in ns.items() if v is None]
    if missing:  # pragma: no cover - numpy always provides these
        raise RuntimeError(f"numpy lacks expected attributes: {missing}")
    return ns


class ArrayBackend:
    """One array implementation behind the ``xp`` seam.

    A backend is a bag of callables/attributes covering :data:`ALL_NAMES`.
    Subclasses fill ``self.ns`` in :meth:`__init__`; anything they leave
    out is reported loudly at registration time rather than failing deep
    inside a thunk.
    """

    #: registry name; subclasses override
    name = "abstract"

    def __init__(self) -> None:
        self.ns: Dict[str, object] = {}

    def namespace(self) -> Dict[str, object]:
        missing = [n for n in ALL_NAMES if n not in self.ns]
        if missing:
            raise RuntimeError(
                f"backend {self.name!r} is missing namespace entries: "
                f"{missing}")
        return dict(self.ns)

    def describe(self) -> Dict[str, object]:
        return {"name": self.name}


class NumpyBackend(ArrayBackend):
    """Reference backend: the namespace *is* numpy."""

    name = "numpy"

    def __init__(self) -> None:
        super().__init__()
        self.ns = _numpy_namespace()


class CheckedBackend(ArrayBackend):
    """Numpy plus instrumentation; bitwise identical to ``numpy``.

    Counters (all monotonic, reset with :meth:`reset_counters`):

    ``op_calls``
        every routed operation (constructors included).
    ``constructions``
        calls to the explicit array constructors (``empty``, ``zeros``,
        ``full`` ...).  Steady-state tape replay must keep this at zero —
        pooled buffers mean the plan never constructs an array per step.
    ``temp_results``
        ``out=``-capable ops called *without* ``out=`` (they allocate a
        fresh result), plus the allocating host utilities.  Native ndarray
        methods and operators are invisible to the seam and are not
        counted; the counters measure exactly the traffic that crosses it.
    ``out_calls``
        ops that did pass ``out=`` — each one is asserted to return the
        very buffer it was given (the aliasing contract every replay
        thunk relies on).
    """

    name = "checked"

    def __init__(self) -> None:
        super().__init__()
        ref = _numpy_namespace()
        self.op_calls = 0
        self.constructions = 0
        self.temp_results = 0
        self.out_calls = 0
        ns: Dict[str, object] = {}
        for name in _ATTRS:
            ns[name] = ref[name]
        for name in _CONSTRUCTORS:
            ns[name] = self._wrap_constructor(name, ref[name])
        for name in _OUT_OPS:
            ns[name] = self._wrap_out_op(name, ref[name])
        for name in _MISC_OPS:
            ns[name] = self._wrap_misc(name, ref[name])
        self.ns = ns

    # ------------------------------------------------------------------
    def _wrap_constructor(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.op_calls += 1
            self.constructions += 1
            return fn(*args, **kwargs)
        wrapper.__name__ = f"checked_{name}"
        return wrapper

    def _wrap_out_op(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.op_calls += 1
            out = kwargs.get("out")
            result = fn(*args, **kwargs)
            if out is None:
                self.temp_results += 1
            else:
                self.out_calls += 1
                buf = out[0] if isinstance(out, tuple) else out
                if result is not buf:
                    raise AssertionError(
                        f"backend op {name!r} violated the out= aliasing "
                        f"contract: returned a different array than the "
                        f"provided buffer")
            return result
        wrapper.__name__ = f"checked_{name}"
        return wrapper

    def _wrap_misc(self, name: str, fn: Callable) -> Callable:
        allocating = name in _ALLOCATING_MISC

        def wrapper(*args, **kwargs):
            self.op_calls += 1
            if allocating:
                self.temp_results += 1
            return fn(*args, **kwargs)
        wrapper.__name__ = f"checked_{name}"
        return wrapper

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {"op_calls": self.op_calls,
                "constructions": self.constructions,
                "temp_results": self.temp_results,
                "out_calls": self.out_calls}

    def reset_counters(self) -> None:
        self.op_calls = 0
        self.constructions = 0
        self.temp_results = 0
        self.out_calls = 0

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["counters"] = self.counters()
        return info


# ----------------------------------------------------------------------
# registry + active-backend state
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_ACTIVE: Optional[ArrayBackend] = None
_CHANGE_HOOKS: List[Callable[[], None]] = []


class _Namespace:
    """The ``xp`` proxy: its ``__dict__`` is rebound on backend switch.

    Attribute access is therefore a plain instance-dict lookup — the same
    cost as ``np.add`` — with no per-call indirection on the hot path.
    """

    __slots__ = ("__dict__",)


xp = _Namespace()


def register_backend(name: str,
                     factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory (instantiated lazily, cached)."""
    _FACTORIES[name] = factory


def available_backends() -> Dict[str, bool]:
    """Registered names mapped to whether they can be instantiated here."""
    out = {}
    for name in sorted(_FACTORIES):
        try:
            get_backend(name)
            out[name] = True
        except BackendUnavailable:
            out[name] = False
    return out


def get_backend(name: str) -> ArrayBackend:
    """The (cached) backend instance for ``name``.

    Raises ``KeyError`` for unknown names and :class:`BackendUnavailable`
    when a registered adapter's library is missing.
    """
    inst = _INSTANCES.get(name)
    if inst is None:
        if name not in _FACTORIES:
            raise KeyError(
                f"unknown array backend {name!r}; registered: "
                f"{sorted(_FACTORIES)}")
        inst = _FACTORIES[name]()
        _INSTANCES[name] = inst
    return inst


def active_backend() -> ArrayBackend:
    return _ACTIVE


def active_backend_name() -> str:
    return _ACTIVE.name


def add_change_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` after every backend switch (used to bump the tape
    config epoch so plans recorded against the old backend re-record)."""
    _CHANGE_HOOKS.append(hook)


def set_active_backend(name: str) -> ArrayBackend:
    """Activate ``name`` and rebind ``xp``; no-op when already active."""
    global _ACTIVE
    backend = get_backend(name)
    if _ACTIVE is backend:
        return backend
    _ACTIVE = backend
    ns = backend.namespace()
    xp.__dict__.clear()
    xp.__dict__.update(ns)
    for hook in _CHANGE_HOOKS:
        hook()
    return backend


register_backend("numpy", NumpyBackend)
register_backend("checked", CheckedBackend)

#: initial selection: REPRO_BACKEND env var (``numpy`` or ``checked``),
#: defaulting to numpy.  Any other name fails loudly here rather than
#: silently training on the wrong backend.
set_active_backend(os.environ.get("REPRO_BACKEND", "numpy"))

"""Unified runtime configuration for the nn/gnn stack.

One coherent surface for the process-global numeric knobs:

* ``default_dtype`` — dtype for non-float inputs and parameter init,
* ``fast_segment_ops`` — sorted-run ``reduceat`` segment kernels vs the
  ``add_at`` reference scatter,
* ``backend`` — the active array backend behind the ``xp`` seam
  (:mod:`repro.nn.backend`).

Use :func:`configure` for permanent changes, :func:`use` to scope a change
to a ``with`` block, :func:`config` for the current snapshot.  Every
*actual* change (setting a knob to its current value is a no-op) bumps the
tape config epoch, so compiled tape plans recorded under a different
configuration guard-fail and re-record instead of replaying stale kernels.

The context managers ``default_dtype`` / ``use_fast_segment_ops`` in
:mod:`repro.nn.autograd` are conveniences over the same storage.

Example::

    from repro.nn import runtime

    runtime.configure(backend="checked")
    with runtime.use(default_dtype="float32", fast_segment_ops=False):
        model.fit(...)
    print(runtime.describe())
"""

from __future__ import annotations

import contextlib
from typing import Iterator, NamedTuple, Optional

from . import autograd as _ag
from . import backend as _backend
from .backend import xp


class RuntimeConfig(NamedTuple):
    """Immutable snapshot of the three global knobs."""

    default_dtype: "xp.dtype"
    fast_segment_ops: bool
    backend: str


def config() -> RuntimeConfig:
    """The current runtime configuration (a snapshot, not a live view)."""
    return RuntimeConfig(
        default_dtype=_ag.get_default_dtype(),
        fast_segment_ops=_ag.fast_segment_ops_enabled(),
        backend=_backend.active_backend_name(),
    )


def configure(*, default_dtype=None, fast_segment_ops: Optional[bool] = None,
              backend: Optional[str] = None) -> RuntimeConfig:
    """Set any subset of the runtime knobs; returns the new snapshot.

    Arguments left as ``None`` are untouched.  Each knob that actually
    changes value bumps the tape config epoch exactly once; re-asserting
    the current value is free.  ``backend`` must name a registered,
    available backend (:class:`repro.nn.backend.BackendUnavailable` is
    raised when the library is missing, ``KeyError`` for unknown names).
    """
    if backend is not None:
        _backend.set_active_backend(backend)
    if default_dtype is not None:
        _ag._store_default_dtype(default_dtype)
    if fast_segment_ops is not None:
        _ag._store_fast_segment_ops(fast_segment_ops)
    return config()


@contextlib.contextmanager
def use(*, default_dtype=None, fast_segment_ops: Optional[bool] = None,
        backend: Optional[str] = None) -> Iterator[RuntimeConfig]:
    """Scoped :func:`configure`: restores the previous values on exit.

    Yields the in-scope snapshot.  Restoration bumps the epoch again for
    every knob that changed, so plans compiled inside the scope cannot
    leak out of it.
    """
    previous = config()
    applied = configure(default_dtype=default_dtype,
                        fast_segment_ops=fast_segment_ops,
                        backend=backend)
    try:
        yield applied
    finally:
        configure(default_dtype=previous.default_dtype,
                  fast_segment_ops=previous.fast_segment_ops,
                  backend=previous.backend)


def describe() -> dict:
    """Diagnostic dict: current knobs, config epoch, backend availability."""
    snapshot = config()
    active = _backend.active_backend()
    return {
        "default_dtype": str(snapshot.default_dtype),
        "fast_segment_ops": snapshot.fast_segment_ops,
        "backend": active.describe(),
        "available_backends": _backend.available_backends(),
        "config_epoch": _ag.config_epoch(),
    }

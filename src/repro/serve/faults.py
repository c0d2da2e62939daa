"""Injectable fault plans: induced stress for the serving and fleet layers.

Robustness claims in this repository are *qualified*, not asserted: the
chaos test suite and ``bench_campaign_elastic`` cycle the system through an
induced fault schedule — dropped, delayed and duplicated frames, stalled
heartbeats, ``SIGKILL``-ed worker processes — and check that the observable
behaviour (tuning histories, exactly-once tells) is identical to a fault-free
serial run.  This module is the injection point:

* a :class:`FaultPlan` is a declarative, picklable description of the faults
  to induce, parseable from a ``key=value`` spec string (CLI ``--faults``)
  or from the ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` environment;
* a :class:`FaultInjector` is one process's seeded *execution* of a plan:
  :func:`install` activates it process-wide and
  :meth:`~repro.serve.protocol.LineChannel.send` (the transport layer) plus
  the fleet worker's evaluation/heartbeat loops consult it via
  :func:`active`.

Faults are injected on the *sending* side of the installing process only, so
a chaos test can make workers unreliable while the coordinator under test
stays honest.  All randomness is drawn from one seeded generator per
injector: a pinned ``REPRO_FAULT_SEED`` makes a chaos run reproducible.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from typing import Dict, List, Optional

#: environment variables the CLI and worker entry points honour
ENV_PLAN = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"

_FLOAT_FIELDS = ("drop", "dup", "delay_ms", "stall_for")
_INT_FIELDS = ("kill_after", "stall_after", "seed")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A declarative fault schedule (see :class:`FaultInjector`).

    ``drop`` / ``dup`` are per-frame probabilities applied to every frame
    the installing process sends; ``delay_ms`` is the *maximum* of a uniform
    per-frame send delay.  ``kill_after`` SIGKILLs the process after that
    many objective evaluations (the kill lands after the value is computed
    but before it is submitted — the nastiest instant).  ``stall_after``
    silences heartbeats for ``stall_for`` seconds once that many beats have
    been sent, forcing lease expiry on a live worker.
    """

    drop: float = 0.0
    dup: float = 0.0
    delay_ms: float = 0.0
    kill_after: Optional[int] = None
    stall_after: Optional[int] = None
    stall_for: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name in ("drop", "dup"):
            value = getattr(self, name)
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], "
                                 f"got {value!r}")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")

    @property
    def benign(self) -> bool:
        """True when the plan induces no faults at all."""
        return (self.drop == 0.0 and self.dup == 0.0 and self.delay_ms == 0.0
                and self.kill_after is None and self.stall_after is None)

    def to_spec(self) -> str:
        """The ``key=value,...`` form :meth:`parse` accepts."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is None or value == field.default:
                continue
            parts.append(f"{field.name}={value}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """A plan from ``"drop=0.1,delay_ms=15,kill_after=9"`` style specs."""
        values: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            name = name.strip()
            if not sep:
                raise ValueError(f"fault spec entries are key=value, "
                                 f"got {part!r}")
            if name in _FLOAT_FIELDS:
                values[name] = float(raw)
            elif name in _INT_FIELDS:
                values[name] = int(raw)
            else:
                known = ", ".join(_FLOAT_FIELDS + _INT_FIELDS)
                raise ValueError(f"unknown fault field {name!r} "
                                 f"(known: {known})")
        if seed is not None:
            values["seed"] = int(seed)
        return cls(**values)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS`` (+ seed), or ``None``."""
        environ = os.environ if environ is None else environ
        spec = environ.get(ENV_PLAN)
        if not spec:
            return None
        seed = environ.get(ENV_SEED)
        return cls.parse(spec, seed=int(seed) if seed else None)


class FaultInjector:
    """One process's seeded execution of a :class:`FaultPlan`.

    ``seed_offset`` decorrelates the fault schedules of sibling workers
    running the same plan (worker *i* passes its index).
    """

    def __init__(self, plan: FaultPlan, seed_offset: int = 0):
        import random

        self.plan = plan
        self.seed_offset = int(seed_offset)
        self._rng = random.Random((int(plan.seed) << 16) ^ self.seed_offset)
        self._lock = threading.Lock()
        self._evaluations = 0
        self._beats = 0
        self._stalled_at: Optional[float] = None
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.stalled = 0

    # ------------------------------------------------------------------
    # transport layer: consulted by LineChannel.send
    # ------------------------------------------------------------------
    def frames(self, frame: bytes) -> List[bytes]:
        """What to actually put on the wire for one outgoing frame."""
        with self._lock:
            drop = self.plan.drop > 0.0 and self._rng.random() < self.plan.drop
            dup = (not drop and self.plan.dup > 0.0
                   and self._rng.random() < self.plan.dup)
            delay = (self._rng.uniform(0.0, self.plan.delay_ms) / 1e3
                     if self.plan.delay_ms > 0.0 else 0.0)
            self.dropped += int(drop)
            self.duplicated += int(dup)
            self.delayed += int(delay > 0.0)
        if delay:
            time.sleep(delay)
        if drop:
            return []
        return [frame, frame] if dup else [frame]

    # ------------------------------------------------------------------
    # worker layer: evaluation kill schedule + heartbeat stalls
    # ------------------------------------------------------------------
    def evaluated(self) -> None:
        """Count one objective evaluation; SIGKILL self on schedule."""
        with self._lock:
            self._evaluations += 1
            kill = (self.plan.kill_after is not None
                    and self._evaluations >= self.plan.kill_after)
        if kill:
            os.kill(os.getpid(), signal.SIGKILL)

    def heartbeat_allowed(self) -> bool:
        """False while the plan says this beat must be swallowed."""
        if self.plan.stall_after is None:
            return True
        with self._lock:
            self._beats += 1
            if self._beats <= self.plan.stall_after:
                return True
            now = time.monotonic()
            if self._stalled_at is None:
                self._stalled_at = now
            if now - self._stalled_at < self.plan.stall_for:
                self.stalled += 1
                return False
            return True


# ----------------------------------------------------------------------
# process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def install(plan: Optional[FaultPlan],
            seed_offset: int = 0) -> Optional[FaultInjector]:
    """Activate ``plan`` process-wide (``None`` uninstalls); returns it."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan, seed_offset) if plan is not None else None
    return _ACTIVE


def active() -> Optional[FaultInjector]:
    """The process's installed injector, or ``None`` (the common case)."""
    return _ACTIVE


def restore(injector: Optional[FaultInjector]) -> None:
    """Reinstate ``injector``, which :func:`active` returned earlier."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    install(None)

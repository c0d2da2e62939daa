"""Online model lifecycle: registry watch, hot-swap, shadow deploys.

The daemon's routes were static until this module: whatever version a
worker resolved at load time was what the route served until restart.
:class:`LifecycleManager` makes the version a *managed pointer*:

* **Registry watch** — :meth:`generation_moved` polls the registry's
  ``GENERATION`` stamp (bumped atomically by every publish).  When it
  moves, :meth:`swap_stale` hot-swaps every *unpinned* route whose
  ``latest`` changed.
* **Hot-swap** — :meth:`swap` warm-loads the target version on every
  worker **before** flipping the route pointer, so the flip is a pure
  in-memory rename between micro-batches: requests already dispatched
  finish on the old version, every batch formed after the flip carries
  the new one, and no batch ever mixes versions (the daemon stamps the
  whole batch with one resolved version under its dispatch lock).  The
  old engine is retired (closed, caches dropped) after the flip.  Routes
  can be pinned to a version, rolled back to the previous one, or
  returned to tracking ``latest``.
* **Shadow deploys** — :meth:`shadow_start` registers a candidate
  version for a route; the daemon tees a sampled fraction of answered
  live requests into a separate low-priority queue (served only by
  otherwise-idle workers, never ahead of live traffic), and
  :meth:`record_shadow` diffs the candidate's answer against the
  already-delivered primary one: exact label equality for device
  mapping, a thread-count tolerance for tuning configs.  A policy can
  auto-promote (disagreement below a floor after enough comparisons) or
  auto-abort (above a ceiling); both run asynchronously because
  promotion is itself a swap.

The manager is transport-free: the daemon injects ``warm``/``retire``
callables (which broadcast control messages to its worker processes) and
owns all queueing.  :class:`DriftAggregator` folds the workers'
cumulative per-engine drift counters (see :mod:`repro.serve.drift`) into
exact per-route totals that survive worker restarts.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.serve.drift import merge_route_drift

#: comparisons a shadow diff remembers verbatim (the newest disagreements)
RECENT_DISAGREEMENTS = 20


class SwapError(RuntimeError):
    """A hot-swap could not complete (bad version, warm failure, ...)."""


@dataclasses.dataclass(frozen=True)
class ShadowPolicy:
    """Auto-promote/abort thresholds on the disagreement rate.

    With ``min_compared`` 0 the shadow is manual: it only reports.
    Otherwise, once ``min_compared`` comparisons have been recorded the
    candidate is promoted when ``disagreement_rate <= promote_below`` and
    aborted when ``disagreement_rate >= abort_above``.
    """

    min_compared: int = 0
    promote_below: float = 0.0
    abort_above: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _RouteState:
    __slots__ = ("model", "active_version", "previous_version", "pinned",
                 "swaps", "last_swap")

    def __init__(self, model: str, active_version: Optional[int]):
        self.model = model
        self.active_version = active_version
        self.previous_version: Optional[int] = None
        self.pinned = False
        self.swaps = 0
        self.last_swap: Optional[Dict[str, Any]] = None

    def snapshot(self) -> Dict[str, Any]:
        return {"active_version": self.active_version,
                "previous_version": self.previous_version,
                "pinned": self.pinned,
                "swaps": self.swaps,
                "last_swap": self.last_swap}


class _ShadowState:
    def __init__(self, model: str, candidate: int, fraction: float,
                 tolerance: float, policy: ShadowPolicy):
        self.model = model
        self.candidate = int(candidate)
        self.fraction = float(fraction)
        self.tolerance = float(tolerance)
        self.policy = policy
        self.outcome = "active"     # active | promoted | aborted | stopped
        self.teed = 0
        self.dropped = 0
        self.compared = 0
        self.agree = 0
        self.near = 0
        self.disagree = 0
        self.errors = 0
        self.recent: "collections.deque" = \
            collections.deque(maxlen=RECENT_DISAGREEMENTS)

    @property
    def disagreement_rate(self) -> float:
        return self.disagree / self.compared if self.compared else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"candidate_version": self.candidate,
                "fraction": self.fraction,
                "tolerance": self.tolerance,
                "policy": self.policy.to_dict(),
                "outcome": self.outcome,
                "teed": self.teed,
                "dropped": self.dropped,
                "compared": self.compared,
                "agree": self.agree,
                "near": self.near,
                "disagree": self.disagree,
                "errors": self.errors,
                "disagreement_rate": self.disagreement_rate,
                "recent_disagreements": list(self.recent)}


def diff_predictions(op: str, primary: Dict[str, Any],
                     shadow: Dict[str, Any],
                     tolerance: float) -> str:
    """``"agree" | "near" | "disagree"`` between two answers to one request.

    Device mapping is exact (the label either matches or it does not).
    Tuning configs agree on identical labels; they are *near* — counted
    with agreements by the promotion policy — when the schedule matches
    and the thread counts differ by at most ``tolerance`` (relative to
    the larger count).
    """
    if op == "map":
        return "agree" if shadow.get("label") == primary.get("label") \
            else "disagree"
    if shadow.get("config_label") == primary.get("config_label"):
        return "agree"
    if shadow.get("schedule") == primary.get("schedule"):
        threads = (primary.get("num_threads") or 0,
                   shadow.get("num_threads") or 0)
        if max(threads) > 0 and \
                abs(threads[0] - threads[1]) <= tolerance * max(threads):
            return "near"
    return "disagree"


class LifecycleManager:
    """Route-version state machine behind the daemon's online operations."""

    def __init__(self, registry, warm: Callable[[str, int], None],
                 retire: Callable[[str, int], None],
                 sample_seed: int = 0):
        self.registry = registry
        self._warm = warm
        self._retire = retire
        self._lock = threading.Lock()
        #: serialises whole swap operations (warm → flip → retire): two
        #: concurrent swaps of one route must not interleave their phases
        self._swap_lock = threading.Lock()
        self._routes: Dict[str, _RouteState] = {}
        self._shadows: Dict[str, _ShadowState] = {}
        self._finished_shadows: Dict[str, Dict[str, Any]] = {}
        self._rng = random.Random(sample_seed)
        self._last_generation = registry.generation() \
            if registry is not None else 0
        self._checks = 0
        self._swaps = 0
        self._warm_failures = 0

    # ------------------------------------------------------------------
    # route resolution (called by the dispatcher under the daemon lock)
    # ------------------------------------------------------------------
    def resolve(self, model: str) -> Optional[int]:
        """The version a ``latest`` route serves right now (None: none)."""
        with self._lock:
            state = self._routes.get(model)
            if state is not None:
                return state.active_version
        if self.registry is None:
            return None
        try:
            latest = self.registry.latest(model)
        except ValueError:
            return None
        with self._lock:
            state = self._routes.get(model)
            if state is None:
                if latest is None:
                    # nothing published: a route for every name asked
                    # about would grow without bound
                    return None
                state = self._routes[model] = _RouteState(model, latest)
            elif state.active_version is None:
                state.active_version = latest
            return state.active_version

    # ------------------------------------------------------------------
    # hot-swap
    # ------------------------------------------------------------------
    def swap(self, model: str, version: Optional[int] = None,
             rollback: bool = False, track_latest: bool = False,
             reason: str = "manual") -> Dict[str, Any]:
        """Warm the target on every worker, flip the route, retire the old.

        ``version`` pins the route there; ``rollback`` targets the route's
        previous version (and pins); ``track_latest`` re-targets the
        registry's current latest and leaves the route following future
        publishes.  Raises :class:`SwapError` when the target does not
        exist or any worker fails to warm it (the route is untouched —
        a failed swap never leaves a half-flipped pointer).
        """
        if self.registry is None:
            raise SwapError("daemon has no model registry")
        with self._swap_lock:
            with self._lock:
                # a route is made only at the flip: a failed swap leaves none
                state = self._routes.get(model)
                current = state and state.active_version
                previous = state and state.previous_version
            if rollback:
                if previous is None:
                    raise SwapError(f"route {model!r} has no previous "
                                    f"version to roll back to")
                target = previous
            elif version is not None:
                target = int(version)
            else:
                target = self.registry.latest(model)
                if target is None:
                    raise SwapError(f"model {model!r} has no published "
                                    f"versions")
            if target not in self.registry.versions(model):
                raise SwapError(f"model {model!r} has no version {target}")
            pinned = not track_latest and (version is not None or rollback)
            if target == current:
                with self._lock:
                    state.pinned = pinned
                return {"model": model, "version": target,
                        "previous_version": previous, "swapped": False,
                        "pinned": pinned, "reason": reason}
            try:
                self._warm(model, target)
            except Exception as exc:
                with self._lock:
                    self._warm_failures += 1
                raise SwapError(f"warm of {model}@{target} failed: "
                                f"{exc}") from exc
            # the flip: one pointer write under the lock the dispatcher
            # reads through — strictly between micro-batches
            with self._lock:
                state = self._routes.setdefault(model,
                                                _RouteState(model, None))
                state.previous_version = current
                state.active_version = target
                state.pinned = pinned
                state.swaps += 1
                self._swaps += 1
                state.last_swap = {"from": current, "to": target,
                                   "reason": reason,
                                   "at_unix": time.time()}
            if current is not None and current != target:
                try:
                    self._retire(model, current)
                except Exception:
                    pass      # old engines also die with their workers
            return {"model": model, "version": target,
                    "previous_version": current, "swapped": True,
                    "pinned": pinned, "reason": reason}

    # ------------------------------------------------------------------
    # registry watch
    # ------------------------------------------------------------------
    def generation_moved(self) -> bool:
        """One watch tick: count it; True once per registry generation move."""
        if self.registry is None:
            return False
        generation = self.registry.generation()
        with self._lock:
            self._checks += 1
            moved = generation != self._last_generation
            self._last_generation = generation
        return moved

    def swap_stale(self) -> List[Dict[str, Any]]:
        """Swap every unpinned route whose registry latest moved on."""
        with self._lock:
            stale = [(state.model, state.active_version)
                     for state in self._routes.values() if not state.pinned]
        swapped = []
        for model, active in stale:
            latest = self.registry.latest(model)
            if latest is None or latest == active:
                continue
            try:
                swapped.append(self.swap(model, latest, track_latest=True,
                                         reason="registry-watch"))
            except SwapError:
                pass          # warm failed: keep serving the old version
        return swapped

    # ------------------------------------------------------------------
    # shadow deploys
    # ------------------------------------------------------------------
    def shadow_start(self, model: str, candidate: int,
                     fraction: float = 0.2, tolerance: float = 0.0,
                     policy: Optional[ShadowPolicy] = None) -> Dict[str, Any]:
        if not 0.0 < fraction <= 1.0:
            raise SwapError("shadow fraction must be in (0, 1]")
        if self.registry is None:
            raise SwapError("daemon has no model registry")
        if int(candidate) not in self.registry.versions(model):
            raise SwapError(f"model {model!r} has no version {candidate}")
        try:
            self._warm(model, int(candidate))
        except Exception as exc:
            with self._lock:
                self._warm_failures += 1
            raise SwapError(f"warm of shadow candidate {model}@{candidate} "
                            f"failed: {exc}") from exc
        state = _ShadowState(model, candidate, fraction, tolerance,
                             policy or ShadowPolicy())
        with self._lock:
            self._shadows[model] = state
        return state.snapshot()

    def shadow_stop(self, model: str,
                    outcome: str = "stopped") -> Dict[str, Any]:
        """End ``model``'s shadow deploy; returns (and keeps) its final
        report under ``finished`` in :meth:`shadow_stats`.
        """
        with self._lock:
            state = self._shadows.pop(model, None)
            if state is None:
                raise SwapError(f"no shadow deploy for model {model!r}")
            if state.outcome == "active":
                state.outcome = outcome
            snapshot = state.snapshot()
            self._finished_shadows[model] = snapshot
            candidate = state.candidate
            route = self._routes.get(model)
            keep = route is not None and candidate in (
                route.active_version, route.previous_version)
        if not keep:
            try:
                self._retire(model, candidate)
            except Exception:
                pass
        return snapshot

    def shadow_status(self, model: str) -> Dict[str, Any]:
        with self._lock:
            state = self._shadows.get(model)
            if state is None:
                raise SwapError(f"no shadow deploy for model {model!r}")
            return state.snapshot()

    def sample_shadow(self, model: str) -> Optional[int]:
        """The candidate version iff this request should be teed."""
        with self._lock:
            state = self._shadows.get(model)
            if state is None or state.outcome != "active":
                return None
            if self._rng.random() >= state.fraction:
                return None
            state.teed += 1
            return state.candidate

    def record_shadow_dropped(self, model: str, candidate: int) -> None:
        with self._lock:
            state = self._shadows.get(model)
            if state is not None and state.candidate == int(candidate):
                state.dropped += 1

    def record_shadow(self, model: str, candidate: int, op: str,
                      primary: Dict[str, Any],
                      response: Dict[str, Any]) -> None:
        """Fold one completed shadow request into the diff report."""
        with self._lock:
            state = self._shadows.get(model)
            if state is None or state.candidate != int(candidate):
                return
            if not response.get("ok"):
                state.errors += 1
                return
            shadow = response.get("result", {})
            verdict = diff_predictions(op, primary, shadow, state.tolerance)
            state.compared += 1
            if verdict == "agree":
                state.agree += 1
            elif verdict == "near":
                state.near += 1
            else:
                state.disagree += 1
                state.recent.append({
                    "kernel": primary.get("kernel"),
                    "primary": {k: primary.get(k)
                                for k in ("config_label", "label",
                                          "version")},
                    "shadow": {k: shadow.get(k)
                               for k in ("config_label", "label",
                                         "version")}})
            action = self._policy_action_locked(state)
        if action is not None:
            # promotion is a swap (a warm broadcast that completes on
            # events of the daemon loop this method runs on) — run it async
            threading.Thread(target=self._auto_action, name="repro-shadow-"
                             + action, args=(action, model, candidate),
                             daemon=True).start()

    def _policy_action_locked(self, state: _ShadowState) -> Optional[str]:
        policy = state.policy
        if state.outcome != "active" or policy.min_compared <= 0 \
                or state.compared < policy.min_compared:
            return None
        if state.disagreement_rate >= policy.abort_above:
            state.outcome = "aborting"
            return "abort"
        if state.disagreement_rate <= policy.promote_below:
            state.outcome = "promoting"
            return "promote"
        return None

    def _auto_action(self, action: str, model: str, candidate: int) -> None:
        try:
            if action == "promote":
                self.swap(model, candidate, reason="auto-promote")
                final = "promoted"
            else:
                final = "aborted"
        except SwapError:
            final = "active"  # promotion failed: keep shadowing
        with self._lock:
            state = self._shadows.get(model)
            if state is not None and state.candidate == int(candidate):
                state.outcome = final
            else:
                return              # superseded by a newer deploy
        if final in ("aborted", "promoted"):
            # either way the deploy is over: file its final report (the
            # promoted candidate's engine is the active route, so retire
            # inside shadow_stop is a no-op for it)
            try:
                self.shadow_stop(model, outcome=final)
            except SwapError:
                pass                # raced with an explicit stop

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "generation": self._last_generation,
                "checks": self._checks,
                "swaps": self._swaps,
                "warm_failures": self._warm_failures,
                "routes": {model: state.snapshot()
                           for model, state in self._routes.items()},
            }

    def shadow_stats(self) -> Dict[str, Any]:
        """Active deploys keyed by model (finished via the daemon stats)."""
        with self._lock:
            return {model: state.snapshot()
                    for model, state in self._shadows.items()}

    def finished_shadow_stats(self) -> Dict[str, Any]:
        """Final reports of ended deploys, latest per model."""
        with self._lock:
            return {model: dict(snapshot)
                    for model, snapshot in self._finished_shadows.items()}


class DriftAggregator:
    """Exact per-route drift totals from per-worker cumulative counters.

    Workers report *cumulative* :meth:`DriftMonitor.summary` snapshots with
    each finished batch, stamped with the ``serial`` of the engine that
    scored them.  Keeping the latest snapshot per (worker, route) and
    folding an engine's final snapshot into a retained total when it is
    gone — its worker died, or a snapshot under a new serial shows it was
    retired and the version warmed again — makes the route totals exact
    across crashes and hot-swap retires: no double counting, no lost
    counts.
    """

    _COUNTERS = ("count", "flagged", "score_sum", "oob_sum", "token_sum")

    def __init__(self):
        self._lock = threading.Lock()
        self._live: Dict[tuple, Dict[str, Any]] = {}    # (worker, route) →
        self._retired: Dict[str, Dict[str, float]] = {}  # route → totals

    def update(self, worker_id: int, route: str,
               snapshot: Dict[str, Any]) -> None:
        with self._lock:
            previous = self._live.get((worker_id, route))
            if (previous is not None
                    and previous.get("serial") != snapshot.get("serial")):
                self._retire_locked(route, previous)
            self._live[(worker_id, route)] = dict(snapshot)

    def forget_worker(self, worker_id: int) -> None:
        """Fold a dead worker's last snapshots into the retained totals."""
        with self._lock:
            for (wid, route), snapshot in list(self._live.items()):
                if wid == worker_id:
                    del self._live[(wid, route)]
                    self._retire_locked(route, snapshot)

    def _retire_locked(self, route: str, snapshot: Dict[str, Any]) -> None:
        totals = self._retired.setdefault(
            route, {name: 0.0 for name in self._COUNTERS})
        for name in self._COUNTERS:
            totals[name] += float(snapshot.get(name, 0.0))

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            routes: Dict[str, List[Dict[str, Any]]] = {}
            for (_, route), snapshot in self._live.items():
                routes.setdefault(route, []).append(snapshot)
            for route, totals in self._retired.items():
                routes.setdefault(route, []).append(dict(totals))
        return {route: merge_route_drift(snapshots)
                for route, snapshots in sorted(routes.items())}

"""Host-level resilience primitives for the serving stack.

The paper's thesis is that fine-grain multithreading keeps the machine
busy *despite* latency and hazards; this module makes the same promise
at the host tier, where the hazards are operational: a worker process
that hangs, a job that repeatedly kills its worker, a disk that starts
returning garbage.  Four small, composable mechanisms — each a plain
object with deterministic behaviour so the chaos tests can pin exact
outcomes:

* :func:`deadline` — a wall-clock guard (SIGALRM-based where available)
  that converts a hung *worker* into a deterministic
  :class:`DeadlineExceeded`, layered over the simulator's own
  ``max_cycles`` cycle watchdog which already handles hung *programs*;
* :class:`BackoffPolicy` — exponential backoff with **seeded** jitter:
  the delay for ``(seed, token, attempt)`` is a pure function, so retry
  schedules are reproducible and tests never sleep on real randomness;
* :class:`Quarantine` — strike accounting for poison jobs: a job whose
  *solo* executions keep killing workers is isolated with a diagnostic
  outcome instead of being retried forever or handed to the in-process
  serial fallback (where it would take the whole service down);
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, counted in *operations* rather than wall time so state
  transitions are deterministic under test; the disk cache uses it to
  degrade to memory-only during an I/O-error/corruption storm.
"""

from __future__ import annotations

import hashlib
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


class DeadlineExceeded(Exception):
    """A wall-clock deadline fired (see :func:`deadline`)."""


@contextmanager
def deadline(seconds: float | None) -> Iterator[bool]:
    """Raise :class:`DeadlineExceeded` if the body outlives ``seconds``.

    Implemented with ``signal.setitimer``: this interrupts even a body
    stuck in C-level sleeps, which a cooperative check cannot.  Yields
    whether the guard is armed — it degrades to a no-op (yields False)
    when ``seconds`` is falsy, the platform lacks ``SIGALRM``, or the
    caller is not on the main thread (signals only deliver there).  The
    pool runs every job with a deadline on a worker's main thread, so
    the last case arises only in its in-process fallback, taken when no
    worker can be spawned; the simulator's ``max_cycles`` watchdog
    remains the portable backstop.
    """
    if (not seconds or seconds <= 0 or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield False
        return

    def _fire(signum, frame):
        raise DeadlineExceeded(
            f"wall-clock deadline of {seconds}s exceeded")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with seeded (hence reproducible) jitter.

    ``delay(attempt, token)`` is a pure function: the raw delay grows as
    ``base_s * factor**(attempt-1)`` capped at ``cap_s``, then shrinks
    by up to ``jitter`` (a fraction in ``[0, 1]``) using a SHA-256 hash
    of ``(seed, token, attempt)`` as the randomness source.  Two runs
    with the same seed back off identically; different tokens (e.g. job
    keys) decorrelate, so a thundering herd of retries spreads out.
    """

    base_s: float = 0.05
    factor: float = 2.0
    cap_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        raw = min(self.cap_s, self.base_s * self.factor ** (attempt - 1))
        if not self.jitter or not raw:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{token}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (1.0 - self.jitter * unit)


class Quarantine:
    """Strike accounting that isolates poison jobs.

    A *strike* is one authoritative observation that executing a job
    killed its worker (the pool only strikes during solo isolation
    probes, where attribution is unambiguous — see ``pool.py``).  A job
    that collects ``strike_limit`` strikes is quarantined: it is never
    executed again by this instance (including by the serial fallback,
    which shares the caller's process) and instead yields a diagnostic
    ``quarantined`` outcome.  The mask-out idiom of the fault plane,
    applied to jobs instead of PEs.
    """

    def __init__(self, strike_limit: int = 3) -> None:
        if strike_limit < 1:
            raise ValueError(
                f"strike_limit must be >= 1, got {strike_limit}")
        self.strike_limit = strike_limit
        self.strikes: dict[str, int] = {}
        self.reasons: dict[str, str] = {}

    def strike(self, key: str, reason: str = "worker crash") -> bool:
        """Record one strike; True if ``key`` just became quarantined."""
        count = self.strikes.get(key, 0) + 1
        self.strikes[key] = count
        if count >= self.strike_limit and key not in self.reasons:
            self.reasons[key] = (f"{reason} ({count} worker "
                                 f"crash{'es' if count != 1 else ''})")
            return True
        return False

    def is_quarantined(self, key: str) -> bool:
        return key in self.reasons

    def reason(self, key: str) -> str:
        return self.reasons.get(key, "")

    @property
    def quarantined(self) -> list[str]:
        """Quarantined keys in quarantine order."""
        return list(self.reasons)

    def to_json(self) -> dict:
        return {"strike_limit": self.strike_limit,
                "strikes": dict(sorted(self.strikes.items())),
                "quarantined": {k: self.reasons[k]
                                for k in sorted(self.reasons)}}


# Circuit-breaker states, in escalation order.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

_STATE_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Closed → open → half-open breaker, counted in operations.

    ``allow()`` gates each protected operation; the caller reports the
    outcome with ``ok()`` / ``fail()``.  ``failure_threshold``
    consecutive failures trip the breaker **open**; the next
    ``cooldown_ops - 1`` operations are refused outright (the cheap
    degraded path), then one probe operation is admitted **half-open** —
    success closes the breaker, failure re-opens it for another
    cooldown.  Counting operations instead of seconds keeps every
    transition deterministic under test while behaving identically in
    steady-state traffic.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_ops: int = 32,
                 name: str = "cache_disk", registry=None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_ops < 1:
            raise ValueError("cooldown_ops must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_ops = cooldown_ops
        self.name = name
        self.state = BREAKER_CLOSED
        self.opens = 0
        self.transitions: list[str] = []
        self._failures = 0
        self._cooldown_left = 0
        self._gauge = None
        self._trans = None
        if registry is not None:
            self.bind(registry)

    def bind(self, registry) -> None:
        """Mirror state into ``breaker_state`` / transition counters."""
        self._gauge = registry.gauge(
            "breaker_state",
            "circuit-breaker state (0 closed, 1 half-open, 2 open)",
            labels=("breaker",))
        self._trans = registry.counter(
            "breaker_transitions_total",
            "circuit-breaker state transitions, by destination state",
            labels=("breaker", "to"))
        self._gauge.set(_STATE_GAUGE[self.state], breaker=self.name)

    def _move(self, to: str) -> None:
        if to == self.state:
            return
        self.transitions.append(f"{self.state}->{to}")
        self.state = to
        if to == BREAKER_OPEN:
            self.opens += 1
        if self._gauge is not None:
            self._gauge.set(_STATE_GAUGE[to], breaker=self.name)
        if self._trans is not None:
            self._trans.inc(breaker=self.name, to=to)

    def allow(self) -> bool:
        """Should the next protected operation run?"""
        if self.state == BREAKER_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                return False
            self._move(BREAKER_HALF_OPEN)   # this operation is the probe
        return True

    def ok(self) -> None:
        """The last admitted operation succeeded."""
        self._failures = 0
        self._move(BREAKER_CLOSED)

    def fail(self) -> None:
        """The last admitted operation failed."""
        self._failures += 1
        if (self.state == BREAKER_HALF_OPEN
                or self._failures >= self.failure_threshold):
            self._failures = 0
            self._cooldown_left = self.cooldown_ops
            self._move(BREAKER_OPEN)

    def to_json(self) -> dict:
        return {"state": self.state,
                "failure_threshold": self.failure_threshold,
                "cooldown_ops": self.cooldown_ops,
                "consecutive_failures": self._failures,
                "opens": self.opens,
                "transitions": list(self.transitions)}

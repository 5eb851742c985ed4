"""A deterministic token-bucket rate limiter for the simulation service.

Classic token bucket: a bucket holds up to ``burst`` tokens, refills at
``rate`` tokens per second, and each admitted request spends one token.
The implementation is *deterministic* — all state transitions are pure
functions of the clock values observed, there is no randomised jitter,
and the clock itself is injectable — so tests drive it with a fake clock
and assert exact admit/deny sequences.

The server keeps one bucket per identity (the presented API key, or the
client address when authentication is disabled) and applies it to the
work-submitting endpoints only; health checks and job polling stay
unmetered so a client waiting on a long sweep is never pushed into
backoff by its own polling.

Configuration: ``REPRO_RATE_LIMIT`` (requests per second; unset disables
limiting) and ``REPRO_RATE_BURST`` (bucket capacity; default
``max(1, rate)``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.harness.executor import env_float

#: Environment variable: sustained requests per second (unset = no limit).
RATE_LIMIT_ENV = "REPRO_RATE_LIMIT"

#: Environment variable: bucket capacity (burst size).
RATE_BURST_ENV = "REPRO_RATE_BURST"


def _bucket_capacity(rate: float, burst: Optional[float]) -> float:
    """The capacity of a bucket refilled at ``rate`` tokens per second.

    ``burst`` defaults to ``max(1, rate)``.  Raises ``ValueError`` unless
    the rate is positive and the bucket holds at least one token; the
    negated tests reject NaN, which would otherwise admit every request.
    """
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    capacity = float(burst) if burst is not None else max(1.0, float(rate))
    if not capacity >= 1.0:
        raise ValueError(
            f"burst must admit at least one request, got {burst!r}")
    return capacity


class TokenBucket:
    """One token bucket: ``capacity`` tokens, refilled at ``rate``/s."""

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.capacity = _bucket_capacity(rate, burst)
        self.rate = float(rate)
        self._clock = clock
        self.tokens = self.capacity
        self._updated = self._clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self) -> bool:
        """Spend one token if available; ``False`` means rate-limited."""
        self._refill(self._clock())
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next token exists (0 when one is spare)."""
        self._refill(self._clock())
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-identity token buckets behind one lock."""

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        # Checked here, so a bad pair fails when the service starts rather
        # than on every metered request, where each new bucket would raise.
        _bucket_capacity(rate, burst)
        self.rate = float(rate)
        self.burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls) -> Optional["RateLimiter"]:
        """A limiter per ``REPRO_RATE_LIMIT``, or ``None`` (unlimited)."""
        rate = env_float(RATE_LIMIT_ENV, minimum=0.0)
        if rate is None:
            return None
        burst = env_float(RATE_BURST_ENV, minimum=0.0)
        try:
            return cls(rate, burst=burst)
        except ValueError as error:
            # env_float has checked the rate, so the burst is at fault.
            raise ValueError(
                f"environment variable {RATE_BURST_ENV}: {error}") from None

    def allow(self, identity: str) -> Tuple[bool, float]:
        """``(admitted, retry_after_seconds)`` for one request."""
        with self._lock:
            bucket = self._buckets.get(identity)
            if bucket is None:
                bucket = TokenBucket(self.rate, burst=self.burst,
                                     clock=self._clock)
                self._buckets[identity] = bucket
            if bucket.try_acquire():
                return True, 0.0
            return False, bucket.retry_after()


__all__ = ["RATE_BURST_ENV", "RATE_LIMIT_ENV", "RateLimiter", "TokenBucket"]

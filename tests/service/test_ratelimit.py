"""Tests for the deterministic token-bucket rate limiter."""

import pytest

from repro.service.ratelimit import (
    RATE_BURST_ENV,
    RATE_LIMIT_ENV,
    RateLimiter,
    TokenBucket,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_admits_then_denies(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_the_configured_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2/s * 0.5s = exactly one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_is_exact_with_a_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.retry_after() == 0.0

    def test_tokens_cap_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
        clock.advance(100.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_invalid_rate_and_burst_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)

    def test_default_burst_is_at_least_one(self):
        bucket = TokenBucket(rate=0.1)
        assert bucket.capacity == 1.0


class TestRateLimiter:
    def test_identities_have_independent_buckets(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1, clock=clock)
        assert limiter.allow("alice") == (True, 0.0)
        admitted, _ = limiter.allow("alice")
        assert not admitted
        assert limiter.allow("bob") == (True, 0.0)

    def test_denial_reports_retry_after(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=1, clock=clock)
        limiter.allow("x")
        admitted, retry_after = limiter.allow("x")
        assert not admitted
        assert retry_after == pytest.approx(0.5)

    def test_from_env_unset_means_unlimited(self, monkeypatch):
        monkeypatch.delenv(RATE_LIMIT_ENV, raising=False)
        assert RateLimiter.from_env() is None

    def test_from_env_reads_rate_and_burst(self, monkeypatch):
        monkeypatch.setenv(RATE_LIMIT_ENV, "3.5")
        monkeypatch.setenv(RATE_BURST_ENV, "7")
        limiter = RateLimiter.from_env()
        assert limiter.rate == 3.5
        assert limiter.burst == 7

    @pytest.mark.parametrize("rate, burst, match", [
        (0, None, "rate must be positive"),
        (float("nan"), None, "rate must be positive"),
        (5.0, 0.5, "burst must admit at least one request, got 0.5"),
        (5.0, float("nan"), "burst must admit at least one request"),
    ], ids=["zero-rate", "nan-rate", "fractional-burst", "nan-burst"])
    def test_constructor_rejects_a_bad_rate_or_burst(self, rate, burst,
                                                     match):
        """The limiter checks its buckets' rate and burst when it is
        built, before any identity has a bucket."""
        with pytest.raises(ValueError, match=match):
            RateLimiter(rate=rate, burst=burst, clock=FakeClock())

    @pytest.mark.parametrize("variable, value", [
        (RATE_BURST_ENV, "0.5"), (RATE_BURST_ENV, "nan"),
        (RATE_LIMIT_ENV, "nan")])
    def test_from_env_names_the_bad_variable(self, monkeypatch, variable,
                                             value):
        monkeypatch.setenv(RATE_LIMIT_ENV, "5")
        monkeypatch.setenv(RATE_BURST_ENV, "2")
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=variable):
            RateLimiter.from_env()

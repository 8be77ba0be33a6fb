//! Per-tenant circuit breaker over simulation faults.
//!
//! A tenant repeatedly submitting kernels that panic the simulator (or
//! trip fatal `SimError`s) burns worker time that well-behaved tenants
//! paid for. After `threshold` consecutive fatal faults the tenant's
//! breaker opens: submissions are rejected instantly with `circuit-open`
//! and a retry-after. After `cooldown_ms` the breaker half-opens — one
//! probe request is admitted; success closes the breaker, another fatal
//! fault re-opens it for a fresh cooldown.
//!
//! Time is caller-supplied (`now_ms`) for deterministic tests, matching
//! [`crate::quota::TokenBucket`].

/// Breaker state (exposed for tests and the `stats` op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive-fault counter armed.
    Closed,
    /// Tripped: rejecting until the cooldown expires.
    Open,
    /// Cooldown expired: exactly one probe is in flight.
    HalfOpen,
}

/// A per-tenant circuit breaker.
#[derive(Debug, Clone)]
pub struct Breaker {
    threshold: u32,
    cooldown_ms: u64,
    state: BreakerState,
    /// Consecutive fatal faults while closed.
    fails: u32,
    /// When an open breaker may half-open.
    reopen_at_ms: u64,
}

impl Breaker {
    /// A closed breaker tripping after `threshold` consecutive fatal
    /// faults, cooling down for `cooldown_ms`.
    pub fn new(threshold: u32, cooldown_ms: u64) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            cooldown_ms: cooldown_ms.max(1),
            state: BreakerState::Closed,
            fails: 0,
            reopen_at_ms: 0,
        }
    }

    /// Current state (advancing Open → HalfOpen is done by
    /// [`Breaker::commit`], not here — observation must not consume the
    /// probe slot).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request from this tenant proceed at `now_ms`? `Err` carries
    /// the suggested retry-after in milliseconds. Non-consuming: an
    /// expired cooldown answers `Ok` for the would-be probe but the
    /// half-open slot is only taken by [`Breaker::commit`] — a request
    /// that passes this check and is then shed by a later admission gate
    /// (quota, queue depth) must not leak the probe, or the breaker
    /// would wedge half-open with no probe ever reporting back.
    pub fn check(&self, now_ms: u64) -> Result<(), u64> {
        match self.state {
            BreakerState::Closed => Ok(()),
            BreakerState::HalfOpen => Err(self.cooldown_ms),
            BreakerState::Open => {
                if now_ms >= self.reopen_at_ms {
                    Ok(())
                } else {
                    Err(self.reopen_at_ms - now_ms)
                }
            }
        }
    }

    /// Consume the half-open probe slot for a request that passed
    /// [`Breaker::check`] *and* every later admission gate — i.e. it is
    /// actually going to run, so [`Breaker::on_success`] or
    /// [`Breaker::on_fatal`] will eventually report back. A no-op unless
    /// the breaker is open with its cooldown expired.
    pub fn commit(&mut self, now_ms: u64) {
        if self.state == BreakerState::Open && now_ms >= self.reopen_at_ms {
            self.state = BreakerState::HalfOpen;
        }
    }

    /// A request completed without a fatal simulation fault (typed
    /// rejections — quota, deadline, compile errors — also count as
    /// success: they prove the *service* is healthy for this tenant).
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.fails = 0;
    }

    /// A fatal simulation fault (worker panic or fatal `SimError`).
    pub fn on_fatal(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open, fresh cooldown.
                self.state = BreakerState::Open;
                self.reopen_at_ms = now_ms + self.cooldown_ms;
            }
            BreakerState::Closed => {
                self.fails += 1;
                if self.fails >= self.threshold {
                    self.state = BreakerState::Open;
                    self.reopen_at_ms = now_ms + self.cooldown_ms;
                    self.fails = 0;
                }
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admission's order: [`Breaker::check`], then [`Breaker::commit`].
    fn admit(b: &mut Breaker, now_ms: u64) -> Result<(), u64> {
        b.check(now_ms)?;
        b.commit(now_ms);
        Ok(())
    }

    #[test]
    fn trips_after_threshold_consecutive_faults() {
        let mut b = Breaker::new(3, 100);
        for _ in 0..2 {
            b.on_fatal(0);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // A success in between resets the run.
        b.on_success();
        b.on_fatal(0);
        b.on_fatal(0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_fatal(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(admit(&mut b, 50), Err(50));
    }

    #[test]
    fn half_opens_on_timer_and_admits_one_probe() {
        let mut b = Breaker::new(1, 100);
        b.on_fatal(0);
        assert_eq!(admit(&mut b, 99), Err(1));
        // Cooldown expired: first admit is the probe, the second waits.
        assert_eq!(admit(&mut b, 100), Ok(()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(admit(&mut b, 100).is_err());
        // Probe succeeds → closed and clean.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(admit(&mut b, 100), Ok(()));
    }

    #[test]
    fn checked_but_uncommitted_probe_is_not_consumed() {
        let mut b = Breaker::new(1, 100);
        b.on_fatal(0);
        // Cooldown expired: the check passes, but the request is shed by
        // a later admission gate, so commit never runs — the breaker
        // stays open and the probe slot survives for the next request.
        assert_eq!(b.check(100), Ok(()));
        assert_eq!(b.check(100), Ok(()));
        assert_eq!(b.state(), BreakerState::Open);
        // The next request takes the probe for real.
        assert_eq!(admit(&mut b, 100), Ok(()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.check(100).is_err());
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_cooldown() {
        let mut b = Breaker::new(1, 100);
        b.on_fatal(0);
        assert_eq!(admit(&mut b, 100), Ok(()));
        b.on_fatal(100);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(admit(&mut b, 150), Err(50));
        assert_eq!(admit(&mut b, 200), Ok(()));
    }
}

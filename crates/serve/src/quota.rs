//! Per-tenant token-bucket quotas over submitted simulation fuel.
//!
//! Admission control needs a rate limit whose unit tracks *cost*, not
//! request count: one tenant's ATAX sweep burns orders of magnitude more
//! simulator cycles than another's unit kernel. The bucket is therefore
//! denominated in fuel units (the simulator's own cycle-budget currency,
//! see `GpuConfig::fuel_budget`): capacity `burst`, refilled at `rate`
//! fuel/second, and a request costs its estimated fuel.
//!
//! Time is passed in explicitly (`now_ms`) rather than read from the
//! clock, so the property tests drive the bucket deterministically.

/// A token bucket. All methods take `now_ms`, a monotonic millisecond
/// timestamp supplied by the caller.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Maximum (and initial) token balance.
    capacity: f64,
    /// Refill rate in tokens per millisecond.
    rate_per_ms: f64,
    tokens: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket holding at most `burst` tokens, refilling at `per_sec`
    /// tokens per second, born full at `now_ms`.
    pub fn new(burst: u64, per_sec: u64, now_ms: u64) -> TokenBucket {
        TokenBucket {
            capacity: burst as f64,
            rate_per_ms: per_sec as f64 / 1000.0,
            tokens: burst as f64,
            last_ms: now_ms,
        }
    }

    fn refill(&mut self, now_ms: u64) {
        // Monotonic guard: a caller handing timestamps out of order must
        // not mint tokens from the wrap-around.
        let elapsed = now_ms.saturating_sub(self.last_ms);
        if elapsed > 0 {
            self.tokens = (self.tokens + elapsed as f64 * self.rate_per_ms).min(self.capacity);
            self.last_ms = now_ms;
        }
    }

    /// Current balance (after refilling to `now_ms`).
    pub fn available(&mut self, now_ms: u64) -> f64 {
        self.refill(now_ms);
        self.tokens
    }

    /// Whether the balance is back at the burst capacity at `now_ms`, as
    /// in a bucket [`TokenBucket::new`] made.
    pub fn is_full(&mut self, now_ms: u64) -> bool {
        self.available(now_ms) >= self.capacity
    }

    /// Spend `cost` tokens, or report how many milliseconds until the
    /// balance could cover it. A cost above the burst capacity can never
    /// succeed; it is charged as a full bucket so one oversized request
    /// still pays (and the caller's retry-after stays finite).
    pub fn try_take(&mut self, cost: u64, now_ms: u64) -> Result<(), u64> {
        self.refill(now_ms);
        let cost = (cost as f64).min(self.capacity);
        if self.tokens >= cost {
            self.tokens -= cost;
            Ok(())
        } else {
            let deficit = cost - self.tokens;
            let ms = if self.rate_per_ms > 0.0 {
                (deficit / self.rate_per_ms).ceil() as u64
            } else {
                u64::MAX
            };
            Err(ms.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_prng::Rng;

    /// Property: over any schedule of takes, the total granted fuel never
    /// exceeds `burst + rate × elapsed` — the bucket's defining invariant.
    #[test]
    fn never_exceeds_budget() {
        for trial in 0..50u64 {
            let mut rng = Rng::seed(0xB0C4 + trial);
            let burst = rng.range_u32(100, 10_000) as u64;
            let per_sec = rng.range_u32(100, 50_000) as u64;
            let mut bucket = TokenBucket::new(burst, per_sec, 0);
            let mut now_ms = 0u64;
            let mut granted = 0u64;
            for _ in 0..200 {
                now_ms += rng.bounded_u64(50);
                let cost = rng.bounded_u64(burst * 2) + 1;
                if bucket.try_take(cost, now_ms).is_ok() {
                    granted += cost.min(burst);
                }
                let ceiling = burst as f64 + now_ms as f64 * per_sec as f64 / 1000.0;
                assert!(
                    granted as f64 <= ceiling + 1.0,
                    "granted {granted} fuel exceeds budget {ceiling} \
                     (burst {burst}, rate {per_sec}/s, t {now_ms}ms, trial {trial})"
                );
            }
        }
    }

    /// Property: the balance refills monotonically while idle and never
    /// exceeds the burst capacity.
    #[test]
    fn refills_monotonically_up_to_capacity() {
        for trial in 0..50u64 {
            let mut rng = Rng::seed(0xF111 + trial);
            let burst = rng.range_u32(100, 10_000) as u64;
            let per_sec = rng.range_u32(100, 50_000) as u64;
            let mut bucket = TokenBucket::new(burst, per_sec, 0);
            // Drain it, then watch it climb.
            assert!(bucket.try_take(burst, 0).is_ok());
            let mut now_ms = 0u64;
            let mut prev = bucket.available(0);
            for _ in 0..100 {
                now_ms += rng.bounded_u64(30) + 1;
                let avail = bucket.available(now_ms);
                assert!(
                    avail >= prev,
                    "balance shrank while idle: {prev} -> {avail} (trial {trial})"
                );
                assert!(
                    avail <= burst as f64 + 1e-9,
                    "overfilled: {avail} > {burst}"
                );
                prev = avail;
            }
        }
    }

    #[test]
    fn retry_after_is_honest() {
        let mut bucket = TokenBucket::new(1000, 1000, 0); // 1 token/ms
        assert!(bucket.try_take(1000, 0).is_ok());
        let wait = bucket.try_take(500, 0).unwrap_err();
        assert_eq!(wait, 500);
        // Waiting the advertised time makes the take succeed.
        assert!(bucket.try_take(500, wait).is_ok());
    }

    #[test]
    fn oversized_cost_is_clamped_to_burst() {
        let mut bucket = TokenBucket::new(100, 1000, 0);
        // Cost 10× the burst: charged as one full bucket, not rejected
        // forever.
        assert!(bucket.try_take(1000, 0).is_ok());
        assert_eq!(bucket.available(0), 0.0);
        let wait = bucket.try_take(1000, 0).unwrap_err();
        assert!(wait <= 100, "finite retry-after, got {wait}ms");
    }

    #[test]
    fn out_of_order_timestamps_mint_nothing() {
        let mut bucket = TokenBucket::new(100, 1_000_000, 1000);
        assert!(bucket.try_take(100, 1000).is_ok());
        // A timestamp in the past must not refill.
        assert_eq!(bucket.available(500), 0.0);
    }
}

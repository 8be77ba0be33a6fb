//! Fault injection — a chaos harness for the guard rails.
//!
//! A [`FaultPlan`] describes deliberate failures to inject into the
//! evaluation stack so that every degradation path (worker panic → job
//! error, fuel exhaustion → faulted candidate, delayed job → deadline
//! and breaker paths, failed transform → original-kernel fallback) can be
//! exercised end to end, both in integration tests and from CI.
//!
//! Plans are written as a comma-separated list of directives — the
//! syntax of the `CATT_FAULT_PLAN` environment variable, which the `catt`
//! binary reads once and hands to its engine and pipeline:
//!
//! * `panic-job=N` — the N-th job (0-based, counted across the engine's
//!   lifetime) panics inside the worker pool;
//! * `fuel=C` — every simulation runs under a cycle budget of `C`:
//!   whoever holds the plan writes it into `GpuConfig::sim_fuel` on the
//!   config it launches with (`catt serve` does);
//! * `delay-job=<ms>` — every job sleeps `<ms>` milliseconds before it
//!   simulates: deterministic latency injection, so deadline, watchdog,
//!   and circuit-breaker paths (`catt serve`) are testable without racing
//!   real simulation times;
//! * `fail-transform` — the pipeline's throttling transform reports
//!   failure for every kernel, forcing the transform stage's `W002`
//!   fallback to the original code.
//!
//! Example: `CATT_FAULT_PLAN="panic-job=3,delay-job=2"`.
//!
//! Unknown directives are ignored (forward compatibility); an empty
//! string is an inactive plan. Injection sites consult the plan
//! explicitly — nothing in this module installs global state or reads
//! the environment.

/// A set of deliberate failures to inject. See the module docs for the
/// `CATT_FAULT_PLAN` syntax.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the worker pool when the engine's lifetime job
    /// counter reaches this value (0-based).
    pub panic_at_job: Option<u64>,
    /// Cycle-fuel budget forced onto every simulation.
    pub fuel: Option<u64>,
    /// Milliseconds every job sleeps before simulating (deterministic
    /// latency injection for deadline/watchdog/breaker testing).
    pub delay_job_ms: Option<u64>,
    /// Make every kernel transform report failure.
    pub fail_transform: bool,
}

impl FaultPlan {
    /// The inactive plan (nothing injected).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::none()
    }

    /// Parse a `CATT_FAULT_PLAN` directive string.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if let Some(n) = entry.strip_prefix("panic-job=") {
                plan.panic_at_job = n.trim().parse().ok();
            } else if let Some(c) = entry.strip_prefix("fuel=") {
                plan.fuel = c.trim().parse().ok();
            } else if let Some(ms) = entry.strip_prefix("delay-job=") {
                plan.delay_job_ms = ms.trim().parse().ok();
            } else if entry == "fail-transform" {
                plan.fail_transform = true;
            }
        }
        plan
    }
}

/// Renders the plan back as a `CATT_FAULT_PLAN` directive string
/// (empty for the inactive plan), so reports can name the chaos they ran
/// under.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let directives = [
            self.panic_at_job.map(|n| format!("panic-job={n}")),
            self.fuel.map(|c| format!("fuel={c}")),
            self.delay_job_ms.map(|ms| format!("delay-job={ms}")),
            self.fail_transform.then(|| "fail-transform".to_string()),
        ];
        let spec: Vec<String> = directives.into_iter().flatten().collect();
        f.write_str(&spec.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let p = FaultPlan::parse("panic-job=3, fuel=5000, fail-transform, delay-job=25");
        assert_eq!(
            p,
            FaultPlan {
                panic_at_job: Some(3),
                fuel: Some(5000),
                fail_transform: true,
                delay_job_ms: Some(25),
            }
        );
        assert!(p.is_active());
        assert_eq!(FaultPlan::parse(&p.to_string()), p, "Display round-trips");
        assert_eq!(FaultPlan::none().to_string(), "");
    }

    #[test]
    fn delay_alone_is_active() {
        let p = FaultPlan::parse("delay-job=5");
        assert_eq!(p.delay_job_ms, Some(5));
        assert!(p.is_active());
    }

    #[test]
    fn empty_and_unknown_directives_are_inactive() {
        assert!(!FaultPlan::parse("").is_active());
        assert!(!FaultPlan::parse("frobnicate=9").is_active());
    }
}

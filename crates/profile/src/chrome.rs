//! Chrome `trace_event` export.
//!
//! The output is the JSON object format (`{"traceEvents": [...]}`) with
//! complete events (`"ph": "X"`), loadable in `chrome://tracing` or
//! Perfetto. Mapping:
//!
//! * `pid` — SM id (one "process" lane group per SM);
//! * `tid` — warp slot for exec/barrier segments; `1000 + tb_slot` for
//!   block-residency spans, so blocks group below the warps of their SM;
//! * `ts`/`dur` — cycles, reported as microseconds (1 cycle = 1 µs; the
//!   viewer's time unit is cosmetic).
//!
//! Launches are laid out back to back on one global timeline: each
//! launch's events are offset by the cumulative cycle count of the
//! launches before it (plus a small gap so boundaries are visible).

use crate::json::escape;
use catt_sim::profile::{LaunchProfile, PhaseKind};
use std::fmt::Write as _;

/// Visual gap between consecutive launches on the shared timeline.
const LAUNCH_GAP: u64 = 16;

/// Render `profiles` (one per launch, in launch order) as one Chrome
/// trace document.
pub fn chrome_trace(profiles: &[LaunchProfile]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut offset = 0u64;
    for p in profiles {
        let kernel = escape(&p.kernel);
        for sm in &p.sms {
            for e in &sm.events {
                let (tid, name) = match e.kind {
                    PhaseKind::Exec => (e.warp as u64, format!("exec b{}", e.block)),
                    PhaseKind::Barrier => (e.warp as u64, format!("barrier b{}", e.block)),
                    PhaseKind::Block => (1000 + e.warp as u64, format!("block {}", e.block)),
                };
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \
                     \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"kernel\": \"{}\"}}}}",
                    escape(&name),
                    kind_label(e.kind),
                    sm.sm_id,
                    tid,
                    offset + e.start,
                    e.end - e.start,
                    kernel,
                );
            }
        }
        let launch_cycles = p.sms.iter().map(|s| s.cycles).max().unwrap_or(0);
        offset += launch_cycles + LAUNCH_GAP;
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

fn kind_label(k: PhaseKind) -> &'static str {
    match k {
        PhaseKind::Exec => "exec",
        PhaseKind::Barrier => "barrier",
        PhaseKind::Block => "block",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_sim::config::L1Config;
    use catt_sim::profile::{ProfileSink, SmProfile};

    fn l1() -> L1Config {
        L1Config {
            size_bytes: 4 * 1024,
            line_bytes: 128,
            assoc: 4,
        }
    }

    fn sample_profile(kernel: &str) -> LaunchProfile {
        let mut sm = SmProfile::for_sm(0, l1(), 2, 1);
        sm.tb_start(0, 0, 0);
        sm.warp_begin(0, 0, 0);
        sm.warp_barrier(0, 10);
        sm.warp_release(0, 12);
        sm.warp_done(0, 20);
        sm.tb_end(0, 0, 21);
        sm.sm_end(21, 2, 9);
        let mut p = LaunchProfile::new(kernel.into(), catt_ir::LaunchConfig::d1(1, 32), l1());
        p.complete = true;
        sm.finish_into(&mut p);
        p
    }

    #[test]
    fn trace_is_valid_json_with_expected_shape() {
        let trace = chrome_trace(&[sample_profile("k1"), sample_profile("k\"2\"")]);
        crate::json::validate(&trace).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        // Block spans land on the offset tid lane.
        assert!(trace.contains("\"tid\": 1000"));
    }

    #[test]
    fn second_launch_is_offset_past_the_first() {
        let trace = chrome_trace(&[sample_profile("a"), sample_profile("b")]);
        // First launch runs 21 cycles; the second starts at 21 + gap.
        assert!(trace.contains(&format!("\"ts\": {}", 21 + LAUNCH_GAP)));
    }

    #[test]
    fn empty_profile_list_is_still_valid() {
        let trace = chrome_trace(&[]);
        crate::json::validate(&trace).unwrap();
    }
}

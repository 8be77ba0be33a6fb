//! nvprof-style text reports: stall-reason breakdown and per-set L1D
//! heat map.

use catt_sim::profile::{LaunchProfile, StallReason};
use std::fmt::Write as _;

/// Intensity ramp for the heat map, coolest to hottest.
const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];

/// Sets per heat-map row.
const HEAT_COLS: usize = 64;

/// The launch's stall breakdown: issue-slot utilization and the share of
/// lost slots per [`StallReason`], nvprof's `stall_*` metrics in text.
pub fn stall_report(p: &LaunchProfile) -> String {
    let mut out = String::new();
    let cycles = p.sms.iter().map(|s| s.cycles).max().unwrap_or(0);
    let slots = p.issue_slots();
    let instructions = p.instructions();
    let _ = writeln!(
        out,
        "kernel `{}`  grid {}x{}  block {}x{}  ({} SM shard{}, {} cycles{})",
        p.kernel,
        p.launch.grid.x,
        p.launch.grid.y,
        p.launch.block.x,
        p.launch.block.y,
        p.sms.len(),
        if p.sms.len() == 1 { "" } else { "s" },
        cycles,
        if p.complete { "" } else { ", PARTIAL" },
    );
    let _ = writeln!(
        out,
        "  issue slots {slots}  issued {instructions}  utilization {:.1}%",
        pct(instructions, slots)
    );
    let totals = p.stall_totals();
    let stalled: u64 = totals.iter().sum();
    let _ = writeln!(out, "  stall breakdown ({stalled} slots lost):");
    for r in StallReason::ALL {
        let v = totals[r as usize];
        if v == 0 && r == StallReason::Fuel {
            continue; // only meaningful for fuel-cut launches
        }
        let share = pct(v, slots);
        let bar_len = (share / 2.0).round() as usize;
        let _ = writeln!(
            out,
            "    {:<10} {:>12}  {:>5.1}%  {}",
            r.name(),
            v,
            share,
            "#".repeat(bar_len.min(50))
        );
    }
    out
}

/// Per-set L1D heat map over load accesses, one character per set,
/// [`HEAT_COLS`] sets per row, with per-row set ranges and the hottest
/// set called out. The XOR-folded set hash should keep this flat; hot
/// rows reveal conflict pathologies the aggregate hit rate hides.
pub fn heat_map(p: &LaunchProfile) -> String {
    let totals = p.set_totals();
    let max = totals.iter().map(|t| t.accesses).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  L1D heat map ({} sets, {}-way, {} B lines; ramp \"{}\" scaled to max {} accesses/set):",
        totals.len(),
        p.l1.assoc,
        p.l1.line_bytes,
        RAMP.iter().collect::<String>(),
        max
    );
    for (row, chunk) in totals.chunks(HEAT_COLS).enumerate() {
        let cells: String = chunk
            .iter()
            .map(|t| {
                // Top ramp level is reserved for the maximum itself; an
                // all-zero map (max == 0) renders blank.
                let level = (t.accesses * (RAMP.len() as u64 - 1))
                    .checked_div(max)
                    .unwrap_or(0);
                RAMP[level as usize]
            })
            .collect();
        let lo = row * HEAT_COLS;
        let _ = writeln!(
            out,
            "    set {:>4}..{:>4} |{}|",
            lo,
            lo + chunk.len(),
            cells
        );
    }
    if let Some((hot, t)) = totals
        .iter()
        .enumerate()
        .max_by_key(|(_, t)| (t.accesses, t.misses))
    {
        let _ = writeln!(
            out,
            "  hottest set {hot}: {} accesses, {} hits, {} misses, {} evictions, {} stores",
            t.accesses, t.hits, t.misses, t.evictions, t.stores
        );
    }
    out
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_sim::config::L1Config;
    use catt_sim::profile::{ProfileSink, SmProfile};

    fn profile_with_activity() -> LaunchProfile {
        let l1 = L1Config {
            size_bytes: 64 * 1024,
            line_bytes: 128,
            assoc: 4,
        };
        let mut sm = SmProfile::for_sm(0, l1, 4, 2);
        for i in 0..300u32 {
            sm.l1_load(i % 7, i, i % 3 == 0, false);
        }
        sm.l1_store(2, 1000);
        sm.stall(StallReason::Memory, 40);
        sm.stall(StallReason::Scoreboard, 10);
        sm.sm_end(100, 4, 350);
        let mut p = LaunchProfile::new("k".into(), catt_ir::LaunchConfig::d1(4, 64), l1);
        p.complete = true;
        sm.finish_into(&mut p);
        p
    }

    #[test]
    fn stall_report_mentions_reasons_and_utilization() {
        let r = stall_report(&profile_with_activity());
        assert!(r.contains("kernel `k`"));
        assert!(r.contains("memory"));
        assert!(r.contains("scoreboard"));
        assert!(r.contains("utilization"));
        assert!(!r.contains("fuel"), "fuel row hidden when zero");
    }

    #[test]
    fn heat_map_covers_every_set_once() {
        let p = profile_with_activity();
        let h = heat_map(&p);
        let cells: usize = h
            .lines()
            .filter_map(|l| Some(l.split('|').nth(1)?.chars().count()))
            .sum();
        assert_eq!(cells, p.l1.num_sets() as usize);
        assert!(h.contains("hottest set"));
    }

    #[test]
    fn pct_handles_zero_denominator() {
        assert_eq!(pct(5, 0), 0.0);
        assert!((pct(1, 4) - 25.0).abs() < 1e-12);
    }
}

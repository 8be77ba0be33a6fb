//! `catt-benchmark compare A B`: hold result set B against result set A.
//!
//! A set is an NDJSON file of run records (what `run` writes under
//! `--out-dir`, concatenated by `run.sh`). Records are matched by workload,
//! seed and traced/untraced; several records of one key are reduced to
//! their median. Every end-to-end metric of B may be worse than A's by at
//! most its bound, and every exact metric (a count the program makes, or a
//! ratio of such counts) must be identical.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Values, END_TO_END, PER_LAYER};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One run, as read back from its record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub metrics: Values,
}

type Key = (String, u64, bool);

impl Record {
    fn from_value(v: &Value) -> Result<Record, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record has no `{k}`"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: field("seed")?.as_f64().ok_or("`seed` is not a number")? as u64,
            traced: field("trace")?.as_f64().ok_or("`trace` is not a number")? != 0.0,
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            metrics,
        })
    }
}

/// Parse a set: one record per non-empty line.
fn parse_set(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            json::parse(line)
                .and_then(|v| Record::from_value(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Load a set from an NDJSON file.
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_set(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn grouped(set: &[Record]) -> BTreeMap<Key, Vec<&Record>> {
    let mut groups: BTreeMap<Key, Vec<&Record>> = BTreeMap::new();
    for r in set {
        groups
            .entry((r.workload.clone(), r.seed, r.traced))
            .or_default()
            .push(r);
    }
    groups
}

fn median_of(records: &[&Record], name: &str) -> Option<f64> {
    let xs: Vec<f64> = records
        .iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect();
    (!xs.is_empty()).then(|| median(&xs))
}

/// Share of `a` by which `b` is worse (negative when it is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Everything in which set `b` fails against set `a` (empty = agreement).
pub fn findings(a: &[Record], b: &[Record]) -> Vec<String> {
    let mut out = Vec::new();
    let (ga, gb) = (grouped(a), grouped(b));
    for (key, ra) in &ga {
        let label = format!(
            "{} seed {}{}",
            key.0,
            key.1,
            if key.2 { " traced" } else { "" }
        );
        let Some(rb) = gb.get(key) else {
            out.push(format!("{label}: missing from the second set"));
            continue;
        };
        if let Some(bad) = ra.iter().chain(rb).find(|r| !r.correct) {
            out.push(format!(
                "{label}: a run of {} failed its checks",
                bad.workload
            ));
        }
        if key.2 {
            for d in PER_LAYER.iter().filter(|d| metrics::exact_on(d, &key.0)) {
                // Exact metrics must agree across every run of both sets.
                let mut seen = ra.iter().chain(rb).filter_map(|r| r.metrics.get(d.name));
                if let Some(first) = seen.next() {
                    if let Some(other) = seen.find(|v| *v != first) {
                        out.push(format!("{label}: {} is {first} and {other}", d.name));
                    }
                }
            }
        } else {
            for d in &END_TO_END {
                let (Some(ma), Some(mb)) = (median_of(ra, d.name), median_of(rb, d.name)) else {
                    out.push(format!("{label}: {} is missing", d.name));
                    continue;
                };
                let worse = worse_by(d.better, ma, mb);
                // The epsilon keeps a change of exactly the bound inside it.
                if worse > d.bound + 1e-9 {
                    out.push(format!(
                        "{label}: {} went from {ma} to {mb} {}: {:.1} % worse, bound {:.0} %",
                        d.name,
                        d.unit,
                        worse * 100.0,
                        d.bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("catt-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    if ra.is_empty() {
        eprintln!("catt-benchmark compare: {} holds no record", a.display());
        return ExitCode::from(2);
    }
    // The table: every end-to-end median of both sets, side by side.
    let (ga, gb) = (grouped(&ra), grouped(&rb));
    for (key, recs) in ga.iter().filter(|(k, _)| !k.2) {
        println!("{} seed {}", key.0, key.1);
        for d in &END_TO_END {
            let ma = median_of(recs, d.name).unwrap_or(0.0);
            let mb = gb
                .get(key)
                .and_then(|r| median_of(r, d.name))
                .unwrap_or(0.0);
            println!(
                "  {:<12} {:>16.4} -> {:>16.4} {:<4} {:>+7.1} % (bound {:.0} %, {} is better)",
                d.name,
                ma,
                mb,
                d.unit,
                (mb - ma) / ma * 100.0,
                d.bound * 100.0,
                d.better.word()
            );
        }
    }
    let found = findings(&ra, &rb);
    for f in &found {
        println!("DISAGREE {f}");
    }
    if found.is_empty() {
        println!("the two sets agree: every end-to-end median within its bound, every exact metric identical");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, traced: bool, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_string(),
            seed: 1,
            traced,
            correct: true,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn baseline() -> Vec<(&'static str, f64)> {
        END_TO_END.iter().map(|d| (d.name, 100.0)).collect()
    }

    /// Each end-to-end metric, moved in its bad direction to just under,
    /// exactly at, and just over its bound.
    #[test]
    fn bounds_apply_at_under_and_over() {
        let a = vec![record("serve-hot", false, &baseline())];
        for d in &END_TO_END {
            for (nudge, regressed) in [(-0.001, false), (0.0, false), (0.001, true)] {
                let step = 100.0 * (d.bound + nudge);
                let moved = match d.better {
                    Better::Higher => 100.0 - step,
                    Better::Lower => 100.0 + step,
                };
                let mut m = baseline();
                m.iter_mut().find(|(k, _)| *k == d.name).unwrap().1 = moved;
                let found = findings(&a, &[record("serve-hot", false, &m)]);
                assert_eq!(
                    !found.is_empty(),
                    regressed,
                    "{} at {nudge}: {found:?}",
                    d.name
                );
                // The good direction is never a regression, however far.
                let mut m = baseline();
                m.iter_mut().find(|(k, _)| *k == d.name).unwrap().1 = match d.better {
                    Better::Higher => 1000.0,
                    Better::Lower => 1.0,
                };
                assert!(findings(&a, &[record("serve-hot", false, &m)]).is_empty());
            }
        }
    }

    #[test]
    fn medians_of_repeated_runs_are_compared() {
        let run = |work: f64| {
            let mut m = baseline();
            m.iter_mut().find(|(k, _)| *k == "work_per_s").unwrap().1 = work;
            record("sim-memory", false, &m)
        };
        let a = vec![run(100.0), run(101.0), run(99.0)];
        // One bad run out of three does not move the median past the bound.
        assert!(findings(&a, &[run(100.0), run(50.0), run(98.0)]).is_empty());
        assert!(!findings(&a, &[run(50.0), run(50.0), run(98.0)]).is_empty());
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        let a = vec![record(
            "sim-compute",
            true,
            &[("sim.warp_instr", 26_789_261.0)],
        )];
        let same = a.clone();
        assert!(findings(&a, &same).is_empty());
        let off = vec![record(
            "sim-compute",
            true,
            &[("sim.warp_instr", 26_789_262.0)],
        )];
        assert_eq!(findings(&a, &off).len(), 1);
        // A timing of the traced run may differ freely.
        let a = vec![record("sim-compute", true, &[("sim.lower_us_p50", 10.0)])];
        let b = vec![record("sim-compute", true, &[("sim.lower_us_p50", 20.0)])];
        assert!(findings(&a, &b).is_empty());
        // How many requests fit into a run is not a property of the code.
        let a = vec![record("serve-hot", true, &[("serve.src_cache", 1000.0)])];
        let b = vec![record("serve-hot", true, &[("serve.src_cache", 1100.0)])];
        assert!(findings(&a, &b).is_empty());
    }

    #[test]
    fn missing_and_failed_runs_are_findings() {
        let a = vec![record("fuzz-oracle", false, &baseline())];
        assert_eq!(findings(&a, &[]).len(), 1);
        let mut failed = a.clone();
        failed[0].correct = false;
        assert_eq!(findings(&a, &failed).len(), 1);
    }

    #[test]
    fn records_parse_from_ndjson() {
        let set = parse_set(
            "{\"workload\":\"serve-hot\",\"seed\":2,\"trace\":0,\"correct\":true,\
             \"metrics\":{\"work_per_s\":{\"value\":13800.5,\"unit\":\"1/s\"}}}\n\n",
        )
        .unwrap();
        assert!(parse_set("{\"workload\":\"serve-hot\"}\n").is_err());
        assert_eq!(set.len(), 1);
        assert_eq!((set[0].seed, set[0].traced), (2, false));
        assert_eq!(set[0].metrics["work_per_s"], 13800.5);
    }
}

//! What the benchmark reads from the host: the environment policy, CPU
//! time, peak memory and the core count.

/// Clear every `CATT_*` variable and set the one the benchmark wants.
///
/// Library code still reads ~30 `CATT_*` knobs at seven sites; a stray one
/// (a cache directory, a fault plan, a worker count) would change what is
/// measured without changing the code. `run.sh` refuses to start with any
/// set; the binary clears them as well so that a direct invocation measures
/// the same thing. Must run before any thread is spawned.
pub fn apply_env_policy() {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CATT_"))
        .collect();
    for k in stray {
        std::env::remove_var(k);
    }
    std::env::set_var("CATT_ENGINE_PROGRESS", "off");
}

/// Cores the process may run on (reported with every threaded result).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far, all threads
/// (fields 14 and 15 of `/proc/self/stat`, in `USER_HZ` = 100 ticks).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; count from the
            // closing parenthesis.
            let rest = &s[s.rfind(')')? + 1..];
            let mut f = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// CPU utilisation of an interval: CPU seconds over wall seconds × cores.
pub fn cpu_util(cpu_s: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        cpu_s / (wall_s * nproc() as f64)
    } else {
        0.0
    }
}

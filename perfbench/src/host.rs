//! Host-side measurement: CPU time and peak memory read from `/proc/self`,
//! the run record (cores, build profile, commit), and order statistics.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are plain. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// CPU seconds the hypervisor has stolen from this machine's CPUs so far
/// (`steal` in `/proc/stat`, summed over CPUs): time the host spent on
/// other guests while this one had work to run.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / USER_HZ
}

fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`), which is what the
/// `nproc` command prints.
pub fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else {
        return 0;
    };
    list.split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Environment variables that change the program under test. The
/// benchmark refuses to run with any of them set.
pub const FORBIDDEN_ENV: [&str; 3] = ["RUCX_SCHED_BACKEND", "RUCX_AUTOTUNE", "RUCX_FAULT_SPEC"];

/// The first forbidden variable that is set, if any.
pub fn forbidden_env() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|v| std::env::var_os(v).is_some())
}

/// Wall time, process CPU time and machine steal time of one measured
/// interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

/// Run `f`, returning its result with the wall, CPU and steal time of the
/// call.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let (c0, s0) = (cpu_seconds(), steal_seconds());
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let span = Span {
        wall_s,
        cpu_s: cpu_seconds() - c0,
        steal_s: steal_seconds() - s0,
    };
    (r, span)
}

/// Nanoseconds `f` took on the host clock.
pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of a sample.
pub fn percentile(xs: &[u64], q: f64) -> Option<u64> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50));
        assert_eq!(percentile(&xs, 0.99), Some(99));
        assert_eq!(percentile(&[], 0.5), None);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let spin = (0..5_000_000u64).fold(0u64, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(cpu_seconds() >= 0.0);
    }
}

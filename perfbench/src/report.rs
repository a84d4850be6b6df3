//! The measurement loop and what it prints: the run record, the
//! end-to-end metrics on both clocks, the per-layer table of the traced
//! passes, every check by name, and the final one-line JSON result.

use std::time::Instant;

use crate::host::{self, measure, median, percentile, Span};
use crate::layers::{per_layer, TRACE_COUNTS};
use crate::{Checks, Layers, Outcome, SetupTimes, Value, Workload};

/// What one workload run produced.
pub struct Report {
    pub checks: Checks,
    /// Host-clock end-to-end metrics of `BENCHMARK.json` (medians over the
    /// untraced passes).
    pub host: Vec<Value>,
    /// Host-clock numbers printed beside them: wall time and the machine's
    /// steal time over the same passes.
    pub host_wall: Vec<Value>,
    /// Virtual-clock end-to-end metrics (exact; untraced passes only).
    pub virt: Vec<Value>,
    /// Per-layer metrics of the traced passes that the JSON line carries.
    pub layers: Vec<Value>,
    /// Measured passes.
    pub passes: usize,
    /// The last traced pass, for the full per-layer table.
    pub last_traced: Option<Layers>,
    pub setup: SetupTimes,
}

/// Keep going while another pass of the mean length still fits in
/// `seconds`; always at least one pass.
fn repeat<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (out.len() + 1) as f64 / out.len() as f64 > seconds {
            return out;
        }
    }
}

/// Machines the set-up probe builds at least once per pass.
const SETUP_SAMPLES: usize = 32;

/// After a pass, build every machine of the pass again through the set-up
/// probe, repeating until at least [`SETUP_SAMPLES`] machines are built.
/// Each repetition's per-machine times go to `probes`.
fn setup_probe(w: &Workload, setup: &mut SetupTimes, probes: &mut Vec<Vec<u64>>) {
    let mut built = 0;
    while built < SETUP_SAMPLES {
        let t = w.setup();
        built += t.machine_ns.len();
        probes.push(t.total_ns());
        setup.extend(&t);
    }
}

/// Set-up seconds of one pass: for each machine the pass builds, the
/// median of its set-up time over every probe of the run, summed. Medians
/// per machine keep a burst of host interference from moving the total.
fn setup_seconds(probes: &[Vec<u64>]) -> f64 {
    let machines = probes.first().map_or(0, Vec::len);
    (0..machines)
        .map(|i| median(&probes.iter().map(|p| p[i] as f64).collect::<Vec<_>>()))
        .sum::<f64>()
        / 1e9
}

/// Run `w` for `seconds`: untraced passes through the entry points, giving the
/// host end-to-end metrics (medians over passes) and the virtual ones, or
/// with `trace` traced passes, giving the per-layer metrics. Each pass
/// runs its own checks, and each pass is followed by the set-up probe.
pub fn run(w: &Workload, seconds: f64, trace: bool) -> Report {
    let mut checks = Checks::default();
    let mut setup = SetupTimes::default();
    let mut probes = Vec::new();
    if trace {
        let mut traced = repeat(seconds, || {
            let l = w.traced(&mut checks);
            setup_probe(w, &mut setup, &mut probes);
            l
        });
        return Report {
            host: Vec::new(),
            host_wall: Vec::new(),
            virt: Vec::new(),
            layers: per_layer(&traced, &setup),
            passes: traced.len(),
            last_traced: traced.pop(),
            checks,
            setup,
        };
    }
    let mut first: Option<Outcome> = None;
    // Peak memory of the first pass, read before any set-up probe or later
    // pass can raise the high-water mark.
    let mut rss = f64::NAN;
    let passes = repeat(seconds, || {
        let before = checks.attempted;
        let (out, span) = measure(|| w.run(&mut checks));
        if first.is_none() {
            rss = host::peak_rss_mb();
        }
        setup_probe(w, &mut setup, &mut probes);
        let ops = checks.attempted - before;
        match &first {
            None => first = Some(out),
            Some(f) => checks.check(
                f == &out,
                || {
                    format!(
                        "virtual_repeat: pass digest {:#x} vs first {:#x}",
                        out.digest, f.digest
                    )
                },
                ops,
            ),
        }
        span
    });
    let med = |f: fn(&Span) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Report {
        host: vec![
            Value::new("cpu_s", "s", med(|p| p.cpu_s)),
            Value::new("setup_s", "s", setup_seconds(&probes)),
            Value::new("peak_rss_mb", "MB", rss),
        ],
        host_wall: vec![
            Value::new("wall_s", "s", med(|p| p.wall_s)),
            Value::new("steal_s", "s", med(|p| p.steal_s)),
        ],
        virt: first.map(|o| o.values).unwrap_or_default(),
        layers: Vec::new(),
        passes: passes.len(),
        last_traced: None,
        checks,
        setup,
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One-line JSON run record: workload config and seed, the host's cores,
/// the build profile and the commit.
pub fn record(w: &Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"config\":\"{}\",\"seed\":{seed},\"seed_use\":\"{}\",\
         \"seconds\":{seconds},\"trace\":{},\"nproc\":{},\"available_parallelism\":{par},\
         \"cpu_pinning\":\"none\",\"profile\":\"{}\",\"commit\":\"{}\"}}",
        w.name(),
        esc(&w.config()),
        esc(w.seed_use()),
        u8::from(trace),
        host::nproc(),
        host::profile(),
        esc(&host::git_commit()),
    )
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "n/a".into()
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or("n/a".into(), |v| v.to_string())
}

fn ratio(hit: Option<u64>, miss: Option<u64>) -> String {
    match (hit, miss) {
        (Some(h), Some(m)) if h + m > 0 => format!("{:.4} of {}", h as f64 / (h + m) as f64, h + m),
        (Some(_), Some(_)) => "n/a (base 0)".into(),
        _ => "n/a".into(),
    }
}

/// The human-readable report (everything before the final JSON line).
pub fn print(w: &Workload, r: &Report) {
    println!("== {} ==", w.name());
    if !r.host.is_empty() {
        println!(
            "end-to-end, host clock (median of {} untraced passes):",
            r.passes
        );
        for v in r.host.iter().chain(&r.host_wall) {
            println!("  {:<24} {:>18} {}", v.name, fmt(v.value), v.unit);
        }
    }
    let ops = r.checks.attempted.max(1);
    println!(
        "  {:<24} {:>18} ratio ({} of {} ops)",
        "fail_frac",
        fmt(r.checks.failed() as f64 / ops as f64),
        r.checks.failed(),
        r.checks.attempted
    );
    if !r.virt.is_empty() {
        println!("end-to-end, virtual clock (exact):");
        for v in &r.virt {
            println!("  {:<24} {:>18} {}", v.name, fmt(v.value), v.unit);
        }
    }
    if let Some(l) = &r.last_traced {
        print_layers(l, &r.setup, r.passes, &r.layers);
    }
    if r.checks.violations.is_empty() {
        println!("checks: all {} passed", r.checks.passed);
    } else {
        println!("checks: {} FAILED", r.checks.violations.len());
        for v in &r.checks.violations {
            println!("  FAILED {v}");
        }
    }
}

fn print_layers(l: &Layers, setup: &SetupTimes, passes: usize, json: &[Value]) {
    let get = |n: &str| {
        json.iter()
            .find(|v| v.name == n)
            .map_or(f64::NAN, |v| v.value)
    };
    let c = |n: &str| opt(l.counter(n));
    let us = |ns: u64| fmt(ns as f64 / 1e3);
    let busy = |layer: &str| us(l.busy_ns.get(layer).copied().unwrap_or(0));
    let ns_pct = |xs: &[u64], q| opt(percentile(xs, q));
    let ms_pct = |xs: &[u64], q| fmt(percentile(xs, q).map_or(f64::NAN, |v| v as f64 / 1e6));
    println!(
        "per-layer, traced pass ({} pass{}; host times are medians, counts exact; \
         vt.* are virtual busy sums per layer, not critical-path shares: overlapping spans count twice):",
        passes,
        if passes == 1 { "" } else { "es" }
    );
    let mut rows: Vec<(&str, String, String)> = vec![
        ("rucx-sim", "sim.run_s [s]".into(), fmt(get("sim.run_s"))),
        ("rucx-sim", "sim.events".into(), opt(l.events)),
        (
            "rucx-sim",
            "sim.ns_per_event [ns]".into(),
            l.events
                .map_or("n/a".into(), |e| fmt(l.run_ns as f64 / e.max(1) as f64)),
        ),
        ("rucx-sim", "sim.processes".into(), opt(l.processes)),
        (
            "rucx-sim",
            "sim.cpu_per_wall [ratio]".into(),
            fmt(get("sim.cpu_per_wall")),
        ),
        (
            "rucx-sim",
            "blocking.wait_ns p50/p99/count [ns]".into(),
            format!(
                "{} / {} / {}",
                ns_pct(&l.wait_ns, 0.5),
                ns_pct(&l.wait_ns, 0.99),
                l.wait_ns.len()
            ),
        ),
        (
            "set-up",
            "setup.machine_ms p50/p99/count [ms]".into(),
            format!(
                "{} / {} / {}",
                ms_pct(&setup.machine_ns, 0.5),
                ms_pct(&setup.machine_ns, 0.99),
                setup.machine_ns.len()
            ),
        ),
        (
            "set-up",
            "setup.launch_ms p50/p99 [ms]".into(),
            format!(
                "{} / {}",
                ms_pct(&setup.launch_ns, 0.5),
                ms_pct(&setup.launch_ns, 0.99)
            ),
        ),
        (
            "rucx-ucp",
            "ucp.call_ns p50/p99/count [ns]".into(),
            format!(
                "{} / {} / {}",
                ns_pct(&l.call_ns, 0.5),
                ns_pct(&l.call_ns, 0.99),
                l.call_ns.len()
            ),
        ),
        ("rucx-ucp", "ucp.eager".into(), c("ucp.eager")),
        (
            "rucx-ucp",
            "ucp.eager.gdrcopy_read/write".into(),
            format!(
                "{} / {}",
                c("ucp.eager.gdrcopy_read"),
                c("ucp.eager.gdrcopy_write")
            ),
        ),
        ("rucx-ucp", "ucp.rndv".into(), c("ucp.rndv")),
        (
            "rucx-ucp",
            "ucp.rndv.ipc/rdma/pipeline/staged_inter".into(),
            format!(
                "{} / {} / {} / {}",
                c("ucp.rndv.ipc"),
                c("ucp.rndv.rdma"),
                c("ucp.rndv.pipeline"),
                c("ucp.rndv.staged_inter")
            ),
        ),
        (
            "rucx-ucp",
            "ucp.pipeline_chunks".into(),
            c("ucp.pipeline_chunks"),
        ),
        ("rucx-ucp", "ucp.unexpected".into(), c("ucp.unexpected")),
        (
            "rucx-ucp",
            "ucp.reg.hit/miss/evict".into(),
            format!(
                "{} / {} / {}",
                c("ucp.reg.hit"),
                c("ucp.reg.miss"),
                c("ucp.reg.evict")
            ),
        ),
        (
            "rucx-ucp",
            "ucp.reg hit ratio".into(),
            ratio(l.counter("ucp.reg.hit"), l.counter("ucp.reg.miss")),
        ),
        (
            "rucx-ucp",
            "ucp.ep.hit/miss".into(),
            format!("{} / {}", c("ucp.ep.hit"), c("ucp.ep.miss")),
        ),
        (
            "rucx-ucp",
            "ucp.ep hit ratio".into(),
            ratio(l.counter("ucp.ep.hit"), l.counter("ucp.ep.miss")),
        ),
        (
            "rucx-ucp",
            "vt.ucx_busy_us [virtual us]".into(),
            busy("UCX"),
        ),
        ("rucx-gpu", "gpu.kernel".into(), c("gpu.kernel")),
        (
            "rucx-gpu",
            "gpu.copy.on_device/nvlink/xbus/host_pinned/host_pageable/host_mem".into(),
            [
                "gpu.copy.on_device",
                "gpu.copy.nvlink",
                "gpu.copy.xbus",
                "gpu.copy.host_pinned",
                "gpu.copy.host_pageable",
                "gpu.copy.host_mem",
            ]
            .map(c)
            .join(" / "),
        ),
        (
            "rucx-gpu",
            "gpu.path.nvlink/xbus/host_staged".into(),
            ["gpu.path.nvlink", "gpu.path.xbus", "gpu.path.host_staged"]
                .map(c)
                .join(" / "),
        ),
        (
            "rucx-gpu",
            "gpu.pool.premapped_hit".into(),
            c("gpu.pool.premapped_hit"),
        ),
        (
            "rucx-fabric",
            "net.msg.gdr/host".into(),
            format!("{} / {}", c("net.msg.gdr"), c("net.msg.host")),
        ),
        (
            "rucx-fabric",
            "vt.fabric_busy_us [virtual us]".into(),
            busy("Fabric"),
        ),
        (
            "runtimes",
            "vt.runtime_busy_us [virtual us]".into(),
            busy("Runtime"),
        ),
        (
            "rucx-charm4py",
            "vt.python_busy_us [virtual us]".into(),
            busy("Python"),
        ),
        (
            "other",
            "vt.other_busy_us [virtual us]".into(),
            busy("Other"),
        ),
        (
            "rucx-coll",
            "coll.algo.tree/rd/ring/hier".into(),
            [
                "coll.algo.tree",
                "coll.algo.rd",
                "coll.algo.ring",
                "coll.algo.hier",
            ]
            .map(c)
            .join(" / "),
        ),
        (
            "rucx-coll",
            "coll.bytes.nvlink/xbus/inter".into(),
            ["coll.bytes.nvlink", "coll.bytes.xbus", "coll.bytes.inter"]
                .map(c)
                .join(" / "),
        ),
        ("rucx-svc", "svc tasks".into(), opt(l.tasks)),
        (
            "rucx-svc",
            "svc.resubmit/task_timeout/breaker_open/dup_result/task_failed".into(),
            [
                "svc.resubmit",
                "svc.task_timeout",
                "svc.breaker_open",
                "svc.dup_result",
                "svc.task_failed",
            ]
            .map(c)
            .join(" / "),
        ),
        (
            "rucx-jacobi",
            "vt.jacobi_comm_us [virtual us] (spans come from the sharded engine only)".into(),
            us(l.jacobi_comm_ns),
        ),
        ("trace", "trace.events".into(), l.trace_events.to_string()),
        ("trace", "trace.dropped".into(), opt(l.dropped)),
        (
            "trace",
            "trace.overhead_s [s]".into(),
            fmt(get("trace.overhead_s")),
        ),
    ];
    for (event, metric) in TRACE_COUNTS {
        rows.push((
            "trace",
            metric.to_string(),
            l.trace_names.get(event).copied().unwrap_or(0).to_string(),
        ));
    }
    for (layer, name, value) in rows {
        println!("  {layer:<14} {name:<66} {value}");
    }
    println!("invariants:");
    for (name, pass) in &l.invariants {
        let s = match pass {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "n/a (not reachable from outside this workload's entry point)",
        };
        println!("  {name:<56} {s}");
    }
}

/// The final line: `correct`, `attempted`, `failed` and the metrics. A
/// non-finite metric is written as `null` and fails the run.
pub fn result_line(checks: &mut Checks, metrics: &[Value]) -> String {
    let mut m = Vec::new();
    for v in metrics {
        let value = if v.value.is_finite() {
            format!("{}", v.value)
        } else {
            checks.check(false, || format!("metric {} is not a number", v.name), 0);
            "null".into()
        };
        m.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            v.name, v.unit
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.ok(),
        checks.attempted,
        checks.failed(),
        m.join(",")
    )
}

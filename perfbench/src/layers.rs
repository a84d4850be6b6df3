//! Per-layer numbers of a traced pass, read through the public counter,
//! scheduler and trace getters after each benchmark-held simulation, and
//! the set-up probe's build and allocation times.

use std::collections::BTreeMap;

use rucx_bench::attr::Attribution;
use rucx_sim::trace::TraceSink;
use rucx_sim::{ProcessPool, RunOutcome, TraceEvent};
use rucx_ucp::MSim;

use crate::host::{median, percentile, time_ns};
use crate::{Checks, Value};

/// Trace ring capacity for benchmark-held simulations, large enough that
/// no representative point evicts events.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// Trace event names counted per layer, with the metric each count is
/// reported as.
pub const TRACE_COUNTS: [(&str, &str); 7] = [
    ("ucp.eager", "trace.ucp.eager"),
    ("ucp.rndv.rts", "trace.ucp.rndv.rts"),
    ("ucp.pipeline.chunk", "trace.ucp.pipeline.chunk"),
    ("fabric.link.busy", "trace.fabric.link.busy"),
    ("charm.sched.deliver", "trace.charm.sched.deliver"),
    ("ampi.unexpected.enqueue", "trace.ampi.unexpected.enqueue"),
    ("charm4py.call_overhead", "trace.charm4py.call_overhead"),
];

/// Counters that must stay zero on these clean workloads.
const ZERO_ON_CLEAN: [&str; 4] = ["ucp.retry", "ucp.giveup", "ucp.bad_handle", "ucp.truncated"];

/// What a finished benchmark-held simulation leaves for the harvest. It
/// is taken inside the timed span at the cost of a few counter reads and
/// a moved trace ring; counting and attribution run after the span.
#[derive(Debug)]
pub struct Finished {
    counters: Vec<(&'static str, u64)>,
    events: u64,
    processes: u64,
    inflight_rndv: u64,
    inflight_tracked: u64,
    trace: TraceSink,
}

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct Layers {
    /// Operations the traced pass ran (both halves).
    pub ops: u64,
    /// Host ns inside the run calls of the traced half (`Simulation::run`,
    /// `run_charm_on` or `run_load`).
    pub run_ns: u64,
    /// Wall time of the untraced half (the entry points) and of the traced half
    /// (the same points rebuilt with the trace sink on).
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// CPU time of the traced half.
    pub traced_cpu_s: f64,
    /// Events dispatched and processes spawned by held simulations
    /// (`None` where no simulation is reachable from outside).
    pub events: Option<u64>,
    pub processes: Option<u64>,
    /// Host ns inside `ctx.wait` and inside `tag_send_nb`/`tag_recv_nb`
    /// calls made by the benchmark's own process bodies.
    pub wait_ns: Vec<u64>,
    pub call_ns: Vec<u64>,
    /// Counter totals (UCP, GPU and fabric registries).
    pub counters: BTreeMap<&'static str, u64>,
    /// Whether `counters` holds every counter of the traced simulations,
    /// or only the ones an entry point returns.
    pub counters_complete: bool,
    /// Trace records per event name.
    pub trace_names: BTreeMap<&'static str, u64>,
    /// Virtual busy ns per layer ([`Attribution`]): span sums, so
    /// overlapping spans count twice.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Sum of `jacobi.iter.comm` span durations (virtual ns).
    pub jacobi_comm_ns: u64,
    pub trace_events: u64,
    /// Events evicted from trace rings (`None`: not reachable).
    pub dropped: Option<u64>,
    pub inflight_rndv: Option<u64>,
    pub inflight_tracked: Option<u64>,
    /// Service tasks completed (svc only).
    pub tasks: Option<u64>,
    /// Invariant results: `Some(pass)` or `None` when not reachable.
    pub invariants: Vec<(String, Option<bool>)>,
    /// Held simulations run in the traced half, not yet harvested.
    pub(crate) finished: Vec<Finished>,
}

impl Layers {
    /// Run a held simulation to completion, timing the run call, and keep
    /// what it leaves for [`Layers::harvest`]. Panics (failing the
    /// enclosing [`Checks::op`]) unless the simulation completes.
    pub fn run_sim(&mut self, sim: &mut MSim, what: &str) {
        let (outcome, ns) = time_ns(|| sim.run());
        self.run_ns += ns;
        assert_eq!(outcome, RunOutcome::Completed, "{what} did not complete");
        self.keep(sim);
    }

    /// Keep a finished simulation's counters, scheduler figures and trace
    /// ring for [`Layers::harvest`].
    pub fn keep(&mut self, sim: &mut MSim) {
        let w = sim.world();
        let counters = [&w.ucp.counters, &w.gpu.counters, &w.net.counters]
            .into_iter()
            .flat_map(|c| c.iter())
            .collect();
        let (inflight_rndv, inflight_tracked) = (
            w.ucp.inflight_rndv() as u64,
            w.ucp.inflight_tracked() as u64,
        );
        let processes = sim.process_count() as u64;
        let s = sim.scheduler();
        self.finished.push(Finished {
            counters,
            events: s.events_executed(),
            processes,
            inflight_rndv,
            inflight_tracked,
            trace: std::mem::take(&mut s.trace),
        });
    }

    /// Read everything [`Layers::keep`] took: counter totals, scheduler
    /// figures, trace record counts and per-layer busy time. Called after
    /// the traced half's timed span, so the benchmark's own analysis is not
    /// counted as tracing overhead.
    pub fn harvest(&mut self) {
        for f in std::mem::take(&mut self.finished) {
            for (name, v) in f.counters {
                *self.counters.entry(name).or_default() += v;
            }
            self.counters_complete = true;
            *self.events.get_or_insert(0) += f.events;
            *self.processes.get_or_insert(0) += f.processes;
            *self.dropped.get_or_insert(0) += f.trace.dropped();
            *self.inflight_rndv.get_or_insert(0) += f.inflight_rndv;
            *self.inflight_tracked.get_or_insert(0) += f.inflight_tracked;
            self.harvest_trace(f.trace.events());
        }
    }

    /// Count trace records by name and sum span time by layer.
    pub fn harvest_trace<'a>(&mut self, events: impl Iterator<Item = &'a TraceEvent>) {
        let events: Vec<TraceEvent> = events.copied().collect();
        for ev in &events {
            *self.trace_names.entry(ev.name).or_default() += 1;
            if ev.name == "jacobi.iter.comm" {
                self.jacobi_comm_ns += ev.dur();
            }
        }
        self.trace_events += events.len() as u64;
        for (layer, t) in Attribution::from_events(events.iter()).layers {
            *self.busy_ns.entry(layer).or_default() += t.busy_ns;
        }
    }

    /// A counter's total, or `None` when the workload's entry point does not
    /// expose it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.counters.get(name) {
            Some(&v) => Some(v),
            None if self.counters_complete => Some(0),
            None => None,
        }
    }

    /// Evaluate the always-on invariants, record them by name, and fail
    /// the pass's operations on any violation.
    pub fn check_invariants(&self, checks: &mut Checks) -> Vec<(String, Option<bool>)> {
        let mut inv: Vec<(String, Option<bool>)> = Vec::new();
        let karn = match (
            self.counter("ucp.rtt_sample"),
            self.counter("ucp.rtt_skipped"),
            self.counter("ucp.acked"),
        ) {
            (Some(s), Some(k), Some(a)) => Some(s + k == a),
            _ => None,
        };
        inv.push((
            "karn: ucp.rtt_sample + ucp.rtt_skipped == ucp.acked".into(),
            karn,
        ));
        inv.push((
            "inflight_rndv() == 0 after the run".into(),
            self.inflight_rndv.map(|v| v == 0),
        ));
        inv.push((
            "inflight_tracked() == 0 after the run".into(),
            self.inflight_tracked.map(|v| v == 0),
        ));
        for name in ZERO_ON_CLEAN {
            inv.push((format!("{name} == 0"), self.counter(name).map(|v| v == 0)));
        }
        let svc_nonzero: Vec<&str> = self
            .counters
            .iter()
            .filter(|(k, &v)| k.starts_with("svc.") && v > 0)
            .map(|(k, _)| *k)
            .collect();
        inv.push(("svc.* == 0".into(), Some(svc_nonzero.is_empty())));
        inv.push((
            "TraceSink::dropped() == 0".into(),
            self.dropped.map(|d| d == 0),
        ));
        for (name, pass) in &inv {
            if *pass == Some(false) {
                checks.check(false, || format!("invariant: {name}"), self.ops);
            } else if pass.is_some() {
                checks.check(true, String::new, 0);
            }
        }
        inv
    }
}

/// Wait (up to a second) until every worker thread of the global process
/// pool is back and idle; dropped simulations return theirs asynchronously.
fn settle_pool() {
    let pool = ProcessPool::global();
    let all = usize::try_from(pool.threads_created()).unwrap_or(usize::MAX);
    pool.wait_idle(all, std::time::Duration::from_secs(1));
}

/// Host time of the set-up probe, per machine, in ns: the program's own
/// construction call (the machine plus the buffers the program allocates
/// before its first event) and the process launch.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub machine_ns: Vec<u64>,
    pub launch_ns: Vec<u64>,
}

impl SetupTimes {
    /// Build one machine with `prepare` and launch its processes, timing
    /// each step. The machine is dropped unrun, outside the timed
    /// intervals, which returns the leased process threads to the pool.
    /// Each probe starts from a settled pool (every worker back and idle),
    /// so launch reuses threads the way a sweep's next simulation does,
    /// and the probe leaves the pool settled for the next pass.
    pub fn probe(&mut self, prepare: impl FnOnce() -> MSim, launch: impl FnOnce(&mut MSim)) {
        settle_pool();
        let (mut sim, m) = time_ns(prepare);
        let ((), l) = time_ns(|| launch(&mut sim));
        self.machine_ns.push(m);
        self.launch_ns.push(l);
        drop(sim);
        settle_pool();
    }

    /// Set-up ns of each machine (construction + launch).
    pub fn total_ns(&self) -> Vec<u64> {
        self.machine_ns
            .iter()
            .zip(&self.launch_ns)
            .map(|(m, l)| m + l)
            .collect()
    }

    pub fn extend(&mut self, other: &SetupTimes) {
        self.machine_ns.extend(&other.machine_ns);
        self.launch_ns.extend(&other.launch_ns);
    }
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e6)
}

/// The per-layer metrics every workload reports (the list the JSON line carries):
/// host-clock medians over the traced passes, exact counts from the last.
pub fn per_layer(passes: &[Layers], setup: &SetupTimes) -> Vec<Value> {
    let last = passes.last().expect("at least one traced pass");
    let med = |f: &dyn Fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut v = vec![
        Value::new("sim.run_s", "s", med(&|l| l.run_ns as f64 / 1e9)),
        Value::new(
            "sim.cpu_per_wall",
            "ratio",
            med(&|l| l.traced_cpu_s / l.traced_wall_s),
        ),
        Value::new(
            "trace.overhead_s",
            "s",
            med(&|l| l.traced_wall_s) - med(&|l| l.untraced_wall_s),
        ),
        Value::new(
            "setup.machine_ms",
            "ms",
            ms(percentile(&setup.machine_ns, 0.5)),
        ),
        Value::new(
            "setup.launch_ms",
            "ms",
            ms(percentile(&setup.launch_ns, 0.5)),
        ),
        Value::new("trace.events", "count", last.trace_events as f64),
    ];
    for (event, metric) in TRACE_COUNTS {
        let n = last.trace_names.get(event).copied().unwrap_or(0);
        v.push(Value::new(metric, "count", n as f64));
    }
    for name in ["ucp.reg.hit", "ucp.reg.miss", "ucp.ep.hit", "ucp.ep.miss"] {
        v.push(Value::new(
            name,
            "count",
            last.counter(name).unwrap_or(0) as f64,
        ));
    }
    v
}

//! `svc_rpc`: the many-client service load (`rucx_svc::run_load`) with the
//! registration/endpoint cost model and cache on. Closed loop per client
//! rank: 8 client ranks multiplex the logical clients, 4 workers serve
//! tiny eager host messages with any-source select. The only workload that
//! exercises the registration LRU cache, the Charm4py call-overhead model
//! and the service frontend; the only one the seed changes.

use rucx_compat::rng::{splitmix64, Rng};
use rucx_fabric::Topology;
use rucx_svc::{run_load, task_checksum, LoadCfg, LoadResult, CLIENT_RANKS, WORKER_RANKS};
use rucx_ucp::{build_sim, MachineConfig};

use crate::host::{measure, time_ns};
use crate::{fold, launch_noop, Checks, Layers, Outcome, SetupTimes, Value, FOLD_SEED};

pub struct SvcRpc {
    pub cfg: LoadCfg,
    /// Every task's `(id, checksum)` recomputed from the seed, computed
    /// once so checking a pass costs no measured time.
    expected: Vec<(u64, u64)>,
}

impl SvcRpc {
    fn new(clients: usize, tasks_per_client: usize, seed: u64) -> Self {
        let cfg = LoadCfg {
            clients,
            tasks_per_client,
            data_size: 2048,
            window: 16,
            compute_us: 3.0,
            cache: true,
            seed,
            ..LoadCfg::default()
        };
        let expected = expected_results(&cfg);
        SvcRpc { cfg, expected }
    }

    pub fn full(seed: u64) -> Self {
        Self::new(256, 16, seed)
    }

    /// Sixteen clients of four tasks: the benchmark's own tests.
    pub fn tiny(seed: u64) -> Self {
        Self::new(16, 4, seed)
    }

    fn tasks(&self) -> u64 {
        (self.cfg.clients * self.cfg.tasks_per_client) as u64
    }

    pub fn config(&self) -> String {
        let c = &self.cfg;
        format!(
            "Summit(2), {CLIENT_RANKS} client ranks + {WORKER_RANKS} workers; {} logical clients x {} tasks, \
             {} B data, window {}, compute {} us, registration model + cache on, seed {}",
            c.clients, c.tasks_per_client, c.data_size, c.window, c.compute_us, c.seed
        )
    }

    /// Check a load result against the results recomputed from the seed
    /// with `task_checksum`, its digest, and its clean-run counters.
    fn verify(&self, r: &LoadResult, checks: &mut Checks, tag: &str) {
        let expected = &self.expected;
        let wrong = expected
            .iter()
            .filter(|e| r.results.binary_search(e).is_err())
            .count() as u64;
        checks.check(
            wrong == 0 && r.results.len() == expected.len(),
            || {
                format!(
                    "svc_results{tag}: {wrong} of {} task results missing or wrong",
                    expected.len()
                )
            },
            wrong.max(1),
        );
        let digest = digest_of(expected);
        checks.check(
            r.digest == digest,
            || format!("svc_digest{tag}: {:#x} vs recomputed {digest:#x}", r.digest),
            self.tasks(),
        );
        checks.check(
            r.tasks_failed == 0,
            || format!("svc.task_failed{tag} == 0 ({})", r.tasks_failed),
            r.tasks_failed,
        );
    }

    pub fn run(&self, checks: &mut Checks) -> Outcome {
        let r = checks.op(
            self.tasks(),
            || "svc run_load".into(),
            || run_load(&self.cfg),
        );
        if let Some(r) = &r {
            self.verify(r, checks, "");
        }
        let v = |f: fn(&LoadResult) -> f64| r.as_ref().map_or(f64::NAN, f);
        let digest = r.as_ref().map_or(FOLD_SEED, |r| {
            [r.wall_us, r.p50_us, r.p99_us]
                .iter()
                .fold(fold(FOLD_SEED, r.digest), |h, x| fold(h, x.to_bits()))
        });
        Outcome {
            values: vec![
                Value::new("svc_tasks_per_s", "tasks/s", v(|r| r.tasks_per_sec)),
                Value::new("svc_p50_us", "us", v(|r| r.p50_us)),
                Value::new("svc_p99_us", "us", v(|r| r.p99_us)),
            ],
            digest,
        }
    }

    /// The machine `run_load` builds before its first event (Summit(2)
    /// with the registration model and cache on, configured as `run_load`
    /// configures it) and the Charm4py launch. `run_load` allocates its
    /// buffers inside the process bodies, after the first event, so they
    /// are not set-up.
    pub fn setup(&self) -> SetupTimes {
        let mut t = SetupTimes::default();
        let cache = self.cfg.cache;
        t.probe(
            || {
                let mut machine = MachineConfig::default();
                machine.ucp.reg_model = true;
                machine.ucp.reg_cache = cache;
                build_sim(Topology::summit(2), machine)
            },
            |sim| launch_noop(sim, rucx_osu::Model::Charm4py),
        );
        t
    }

    /// The load untraced, then again with `LoadCfg::trace`; results must
    /// match byte for byte. The simulation stays inside `run_load`, so the
    /// layers come from its returned counters and trace only.
    pub fn traced(&self, checks: &mut Checks) -> Layers {
        let mut layers = Layers {
            ops: 2 * self.tasks(),
            ..Layers::default()
        };
        let (plain, untraced) = measure(|| {
            checks.op(
                self.tasks(),
                || "svc run_load".into(),
                || run_load(&self.cfg),
            )
        });
        layers.untraced_wall_s = untraced.wall_s;
        let cfg = LoadCfg {
            trace: true,
            ..self.cfg.clone()
        };
        let (traced, span) = measure(|| {
            checks.op(
                self.tasks(),
                || "svc run_load (traced)".into(),
                || time_ns(|| run_load(&cfg)),
            )
        });
        layers.traced_wall_s = span.wall_s;
        layers.traced_cpu_s = span.cpu_s;
        let Some((t, ns)) = traced else {
            return layers;
        };
        layers.run_ns = ns;
        self.verify(&t, checks, " (traced)");
        if let Some(p) = &plain {
            let key = |r: &LoadResult| {
                (
                    r.digest,
                    r.wall_us.to_bits(),
                    r.p50_us.to_bits(),
                    r.p99_us.to_bits(),
                    r.results.clone(),
                )
            };
            checks.check(
                key(p) == key(&t),
                || "traced_equals_untraced: svc run_load".into(),
                self.tasks(),
            );
        }
        layers.tasks = Some(t.tasks);
        for (name, v) in [
            ("ucp.reg.hit", t.reg_hit),
            ("ucp.reg.miss", t.reg_miss),
            ("ucp.reg.evict", t.reg_evict),
            ("ucp.ep.hit", t.ep_hit),
            ("ucp.ep.miss", t.ep_miss),
            ("gpu.pool.premapped_hit", t.premapped_hit),
            ("svc.resubmit", t.resubmits),
            ("svc.task_timeout", t.task_timeouts),
            ("svc.breaker_open", t.breaker_opens),
            ("svc.dup_result", t.dup_results),
            ("svc.task_failed", t.tasks_failed),
            ("ucp.retry", t.ucp_retry),
            ("ucp.reroute", t.ucp_reroute),
            ("ucp.giveup", t.ucp_giveup),
            ("ucp.fallback.host_staged", t.ucp_host_staged),
            ("ucp.parked", t.ucp_parked),
            ("ucp.ep.healed", t.ucp_healed),
        ] {
            layers.counters.insert(name, v);
        }
        // `run_load` enables the default-capacity ring and does not return
        // its drop count; a ring below capacity proves nothing was evicted.
        let full = t.trace_events.len() >= rucx_sim::trace::DEFAULT_CAPACITY;
        checks.check(
            !full,
            || "invariant: svc trace ring below capacity (TraceSink::dropped() == 0)".into(),
            layers.ops,
        );
        layers.dropped = (!full).then_some(0);
        layers.harvest_trace(t.trace_events.iter());
        layers
    }
}

/// Every task's `(id, checksum)`, recomputed from the seed the way the
/// load generator derives client data and task arguments.
pub fn expected_results(cfg: &LoadCfg) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(cfg.clients * cfg.tasks_per_client);
    for c in 0..cfg.clients as u64 {
        let mut s = cfg.seed ^ c.rotate_left(32) ^ 0x5851_f42d_4c95_7f2d;
        let mut rng = Rng::new(splitmix64(&mut s));
        let mut data = vec![0u8; cfg.data_size as usize];
        rng.fill(&mut data);
        for t in 0..cfg.tasks_per_client as u64 {
            let task = c * cfg.tasks_per_client as u64 + t;
            let mut s = cfg.seed ^ c.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ t;
            let arg = splitmix64(&mut s);
            out.push((task, task_checksum(c, task, arg, &data)));
        }
    }
    out.sort_unstable();
    out
}

/// The order-independent fold `run_load` reports as its digest.
pub fn digest_of(results: &[(u64, u64)]) -> u64 {
    results.iter().fold(0u64, |d, &(task, ck)| {
        let mut s = task ^ ck.rotate_left(23);
        d ^ splitmix64(&mut s)
    })
}

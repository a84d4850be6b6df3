//! End-to-end benchmark of the rucx simulator.
//!
//! Three workloads (`osu_suite`, `jacobi_weak4`, `svc_rpc`) run from one
//! process and are measured from outside, on two clocks: the host clock
//! (what running the simulator costs) and the virtual clock (what the
//! modelled Summit machine would take, deterministic by construction). A
//! separate traced run rebuilds representative points through the public
//! constructors so the benchmark holds each simulation and reads the
//! per-layer counters, scheduler and trace getters after it. See
//! `README.md` in this directory for the metric list and the layer map.

pub mod host;
pub mod jacobi;
pub mod layers;
pub mod osu;
pub mod report;
pub mod svc;

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use layers::{Layers, SetupTimes};

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Value {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Value { name, unit, value }
    }
}

/// Virtual-clock results of one untraced pass over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The workload's virtual end-to-end metrics.
    pub values: Vec<Value>,
    /// Fold of every virtual number the pass produced: equal digests mean
    /// byte-identical results.
    pub digest: u64,
}

/// Order-sensitive fold of 64-bit words (FNV-1a over their bytes).
pub fn fold(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Starting value for [`fold`].
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Attempted and failed operations plus every violated check by name. An
/// operation is one OSU iteration, one Jacobi iteration or one service
/// task; a failure is a panic or incomplete simulation inside an entry point, or
/// a violated output check or invariant.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    failed: u64,
    pub passed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    /// Run `f`, which performs `ops` operations. A panic (the entry points
    /// assert `RunOutcome::Completed`) fails them all under `name`.
    pub fn op<R>(
        &mut self,
        ops: u64,
        name: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        self.attempted += ops;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => {
                self.passed += 1;
                Some(r)
            }
            Err(_) => {
                self.failed += ops;
                self.violations.push(format!("{} (panicked)", name()));
                None
            }
        }
    }

    /// Record a named check over `ops` already-attempted operations.
    pub fn check(&mut self, ok: bool, name: impl FnOnce() -> String, ops: u64) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += ops;
            self.violations.push(name());
        }
    }

    /// Failed operations, never more than were attempted.
    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted)
    }

    /// True when every operation and check passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.passed += other.passed;
        self.violations.extend(other.violations);
    }
}

/// Spawn `model`'s runtime on every process with an empty body: the
/// launch half of set-up, for the probe (the machine is never run).
pub fn launch_noop(sim: &mut rucx_ucp::MSim, model: rucx_osu::Model) {
    use rucx_osu::Model;
    match model {
        Model::Charm => rucx_charm::launch(sim, |_, _| {}),
        Model::Ampi => rucx_ampi::launch(sim, |_, _| {}),
        Model::Ompi => rucx_ompi::launch(sim, |_, _| {}),
        Model::Charm4py => rucx_charm4py::launch(sim, |_, _| {}),
    }
}

/// One of the benchmark's workloads at a fixed configuration.
pub enum Workload {
    Osu(Box<osu::OsuSuite>),
    Jacobi(jacobi::JacobiWeak),
    Svc(Box<svc::SvcRpc>),
}

/// Workload names in report order.
pub const WORKLOADS: [&str; 3] = ["osu_suite", "jacobi_weak4", "svc_rpc"];

impl Workload {
    /// The named workload at its benchmark size, or at a tiny size for the
    /// benchmark's own tests. Only `svc_rpc` takes the seed.
    pub fn by_name(name: &str, seed: u64, tiny: bool) -> Option<Self> {
        Some(match name {
            "osu_suite" => Workload::Osu(Box::new(if tiny {
                osu::OsuSuite::tiny()
            } else {
                osu::OsuSuite::full()
            })),
            "jacobi_weak4" => Workload::Jacobi(if tiny {
                jacobi::JacobiWeak::tiny()
            } else {
                jacobi::JacobiWeak::full()
            }),
            "svc_rpc" => Workload::Svc(Box::new(if tiny {
                svc::SvcRpc::tiny(seed)
            } else {
                svc::SvcRpc::full(seed)
            })),
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Osu(_) => "osu_suite",
            Workload::Jacobi(_) => "jacobi_weak4",
            Workload::Svc(_) => "svc_rpc",
        }
    }

    /// Human-readable configuration for the run record.
    pub fn config(&self) -> String {
        match self {
            Workload::Osu(w) => w.config(),
            Workload::Jacobi(w) => w.config(),
            Workload::Svc(w) => w.config(),
        }
    }

    /// How the seed argument reaches the inputs.
    pub fn seed_use(&self) -> &'static str {
        match self {
            Workload::Svc(_) => {
                "seeds the service load (client data, task arguments, worker choice)"
            }
            _ => "unused: deterministic sweep with phantom payloads",
        }
    }

    /// One untraced pass through the workload's entry points.
    pub fn run(&self, checks: &mut Checks) -> Outcome {
        match self {
            Workload::Osu(w) => w.run(checks),
            Workload::Jacobi(w) => w.run(checks),
            Workload::Svc(w) => w.run(checks),
        }
    }

    /// Build and launch every machine the untraced pass builds, through the
    /// program's own set-up calls, without running it.
    pub fn setup(&self) -> SetupTimes {
        match self {
            Workload::Osu(w) => w.setup(),
            Workload::Jacobi(w) => w.setup(),
            Workload::Svc(w) => w.setup(),
        }
    }

    /// One traced pass: representative points run untraced through the
    /// entry points and traced on benchmark-held simulations, compared byte for
    /// byte, then harvested, outside both timed halves, into per-layer
    /// numbers and invariant checks.
    pub fn traced(&self, checks: &mut Checks) -> Layers {
        let mut layers = match self {
            Workload::Osu(w) => w.traced(checks),
            Workload::Jacobi(w) => w.traced(checks),
            Workload::Svc(w) => w.traced(checks),
        };
        layers.harvest();
        layers.invariants = layers.check_invariants(checks);
        layers
    }
}

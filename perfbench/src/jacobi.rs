//! `jacobi_weak4`: the full-stack Jacobi3D weak-scaling point at 4 nodes
//! (24 GPUs, 3072×3072×1536) for all four models, GPU-direct and
//! host-staged. Few long simulations with 24 concurrent processes, six
//! concurrent rendezvous halos per rank, GPU kernels, and the Charm++
//! scheduler and reductions.

use rucx_fabric::Topology;
use rucx_jacobi::bufs::alloc_all;
use rucx_jacobi::charm_run::run_charm_on;
use rucx_jacobi::{decompose, JacobiConfig, JacobiModel, JacobiResult, Mode};
use rucx_ucp::build_sim;

use crate::host::{geomean, measure, time_ns};
use crate::layers::TRACE_CAPACITY;
use crate::{fold, launch_noop, Checks, Layers, Outcome, SetupTimes, Value, FOLD_SEED};

fn osu_model(m: JacobiModel) -> rucx_osu::Model {
    match m {
        JacobiModel::Charm => rucx_osu::Model::Charm,
        JacobiModel::Ampi => rucx_osu::Model::Ampi,
        JacobiModel::Ompi => rucx_osu::Model::Ompi,
        JacobiModel::Charm4py => rucx_osu::Model::Charm4py,
    }
}

const MODELS: [JacobiModel; 4] = [
    JacobiModel::Charm,
    JacobiModel::Ampi,
    JacobiModel::Ompi,
    JacobiModel::Charm4py,
];
const MODES: [Mode; 2] = [Mode::Device, Mode::HostStaging];

/// Warmup iterations before the timed ones.
const WARMUP: u32 = 1;

pub struct JacobiWeak {
    pub nodes: usize,
    pub iters: u32,
}

impl JacobiWeak {
    pub fn full() -> Self {
        JacobiWeak { nodes: 4, iters: 3 }
    }

    /// One node, two iterations: the benchmark's own tests.
    pub fn tiny() -> Self {
        JacobiWeak { nodes: 1, iters: 2 }
    }

    fn cfg(&self, mode: Mode) -> JacobiConfig {
        JacobiConfig {
            iters: self.iters,
            warmup: WARMUP,
            ..JacobiConfig::weak(self.nodes, mode)
        }
    }

    fn ops(&self) -> u64 {
        u64::from(self.iters + WARMUP)
    }

    pub fn config(&self) -> String {
        let d = self.cfg(Mode::Device).domain;
        format!(
            "Summit({}) weak point, {} GPUs, domain {}x{}x{}; models Charm++,AMPI,OpenMPI,Charm4py \
             x modes D,H ({} sims); {} iters + {} warmup",
            self.nodes,
            self.nodes * 6,
            d.nx,
            d.ny,
            d.nz,
            MODELS.len() * MODES.len(),
            self.iters,
            WARMUP
        )
    }

    pub fn run(&self, checks: &mut Checks) -> Outcome {
        let mut res: Vec<[Option<JacobiResult>; 2]> = Vec::new();
        for model in MODELS {
            let mut pair = [None, None];
            for (i, mode) in MODES.into_iter().enumerate() {
                pair[i] = checks.op(
                    self.ops(),
                    || format!("jacobi {}-{}", model.label(), mode.suffix()),
                    || rucx_jacobi::run(model, &self.cfg(mode)),
                );
            }
            let [d, h] = pair;
            checks.check(
                matches!((d, h), (Some(d), Some(h)) if d.comm_ms < h.comm_ms),
                || {
                    format!(
                        "gpu_direct_beats_host: {} jacobi comm ms/iter D {:?} vs H {:?}",
                        model.label(),
                        d.map(|r| r.comm_ms),
                        h.map(|r| r.comm_ms)
                    )
                },
                2 * self.ops(),
            );
            res.push(pair);
        }
        let gm = |f: fn(&JacobiResult) -> f64| {
            let v: Option<Vec<f64>> = res.iter().map(|p| p[0].as_ref().map(f)).collect();
            v.map_or(f64::NAN, |v| geomean(&v))
        };
        let mut digest = FOLD_SEED;
        for r in res.iter().flatten() {
            let (o, c) = r.map_or((f64::NAN, f64::NAN), |r| (r.overall_ms, r.comm_ms));
            digest = fold(fold(digest, o.to_bits()), c.to_bits());
        }
        Outcome {
            values: vec![
                Value::new("jacobi_iter_ms", "ms", gm(|r| r.overall_ms)),
                Value::new("jacobi_comm_ms", "ms", gm(|r| r.comm_ms)),
            ],
            digest,
        }
    }

    /// Every machine the pass builds: one Summit(nodes) per model and mode
    /// with one block's halo buffers per rank, built the way the MPI and
    /// Charm4py runners build theirs (`build_sim` + `alloc_all`; the
    /// Charm++ runner's `alloc_mapped` is the same one-block-per-rank
    /// layout), launched with the model's runtime.
    pub fn setup(&self) -> SetupTimes {
        let mut t = SetupTimes::default();
        let cfg = self.cfg(Mode::Device);
        for model in MODELS {
            for _ in MODES {
                t.probe(
                    || {
                        let mut sim = build_sim(Topology::summit(cfg.nodes), cfg.machine.clone());
                        alloc_all(
                            &mut sim,
                            cfg.domain,
                            decompose(cfg.domain, cfg.ranks() as u64),
                        );
                        sim
                    },
                    |sim| launch_noop(sim, osu_model(model)),
                );
            }
        }
        t
    }

    /// The Charm++ model, D and H: through `rucx_jacobi::run`, then
    /// rebuilt with `build_sim` + `run_charm_on` and the trace on.
    pub fn traced(&self, checks: &mut Checks) -> Layers {
        let mut layers = Layers {
            ops: 2 * MODES.len() as u64 * self.ops(),
            ..Layers::default()
        };
        let name = |mode: Mode| format!("jacobi Charm++-{}", mode.suffix());
        let (reference, untraced) = measure(|| {
            MODES.map(|mode| {
                checks.op(
                    self.ops(),
                    || name(mode),
                    || rucx_jacobi::run(JacobiModel::Charm, &self.cfg(mode)),
                )
            })
        });
        layers.untraced_wall_s = untraced.wall_s;
        let (traced, span) = measure(|| {
            MODES.map(|mode| {
                checks.op(
                    self.ops(),
                    || format!("{} (traced)", name(mode)),
                    || {
                        let cfg = self.cfg(mode);
                        let mut sim = build_sim(Topology::summit(cfg.nodes), cfg.machine.clone());
                        sim.scheduler().trace.enable(TRACE_CAPACITY);
                        let (r, ns) = time_ns(|| run_charm_on(&mut sim, &cfg));
                        layers.run_ns += ns;
                        layers.keep(&mut sim);
                        r
                    },
                )
            })
        });
        layers.traced_wall_s = span.wall_s;
        layers.traced_cpu_s = span.cpu_s;
        for (i, mode) in MODES.into_iter().enumerate() {
            let (a, b) = (reference[i], traced[i]);
            let bits =
                |r: Option<JacobiResult>| r.map(|r| (r.overall_ms.to_bits(), r.comm_ms.to_bits()));
            checks.check(
                bits(a).is_some() && bits(a) == bits(b),
                || format!("traced_equals_untraced: {} ({a:?} vs {b:?})", name(mode)),
                self.ops(),
            );
        }
        layers
    }
}

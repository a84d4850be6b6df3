//! `osu_suite`: the paper's OSU microbenchmark sweep — latency and
//! bandwidth for all four models, GPU-direct and host-staged, intra- and
//! inter-node, 1 B – 4 MiB — plus the AMPI allreduce at 1 MiB over the 12
//! GPUs of Summit(2). Hundreds of short two-node simulations with two
//! active processes in a closed-loop ping-pong (one message outstanding;
//! window 32 for bandwidth), so set-up and the per-message handoff
//! dominate host time.

use std::collections::BTreeMap;
use std::sync::Arc;

use rucx_compat::sync::Mutex;
use rucx_fabric::Topology;
use rucx_gpu::MemRef;
use rucx_osu::coll::{self, CollOp};
use rucx_osu::coll_bench::{coll_latency, CollKind};
use rucx_osu::mpi_like::{AmpiFactory, OmpiFactory, P2p, RankFactory};
use rucx_osu::{cuda, Mode, Model, OsuConfig, Placement};
use rucx_sim::time::{as_us, bandwidth_mbps};
use rucx_ucp::{
    build_sim, tag_recv_nb, tag_send_nb, Completion, MCtx, MSim, RecvCompletion, SendBuf,
};

use crate::host::{geomean, measure, time_ns};
use crate::layers::TRACE_CAPACITY;
use crate::{fold, launch_noop, Checks, Layers, Outcome, SetupTimes, Value, FOLD_SEED};

const MODELS: [Model; 4] = [Model::Charm, Model::Ampi, Model::Ompi, Model::Charm4py];
const MODES: [Mode; 2] = [Mode::Device, Mode::HostStaging];
const PLACES: [Placement; 2] = [Placement::IntraNode, Placement::InterNode];

const SMALL: u64 = 8;
const LARGE: u64 = 1 << 20;
const BW: u64 = 4 << 20;

/// The sweep's configuration.
pub struct OsuSuite {
    pub cfg: OsuConfig,
    /// Iterations of the benchmark's own UCP ping-pong in the traced pass.
    pub probe_iters: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Lat,
    Bw,
}

type Key = (Kind, usize, usize, usize, u64);

fn key(kind: Kind, model: Model, mode: Mode, place: Placement, size: u64) -> Key {
    let idx = |m| MODELS.iter().position(|&x| x == m).expect("known model");
    (
        kind,
        idx(model),
        (mode == Mode::HostStaging) as usize,
        (place == Placement::InterNode) as usize,
        size,
    )
}

impl OsuSuite {
    pub fn full() -> Self {
        OsuSuite {
            cfg: OsuConfig::default(),
            probe_iters: 200,
        }
    }

    /// Three sizes and few iterations: the benchmark's own tests.
    pub fn tiny() -> Self {
        OsuSuite {
            cfg: OsuConfig {
                sizes: vec![SMALL, LARGE, BW],
                lat_iters: 3,
                lat_warmup: 1,
                bw_iters: 1,
                bw_warmup: 1,
                bw_window: 4,
                ..OsuConfig::default()
            },
            probe_iters: 4,
        }
    }

    pub fn config(&self) -> String {
        let c = &self.cfg;
        format!(
            "Summit(2); models Charm++,AMPI,OpenMPI,Charm4py x modes D,H x intra,inter; \
             latency+bandwidth at {} sizes {}..{} B ({} sims); lat iters {}+{} warmup; \
             bw iters {}+{} warmup, window {}; AMPI-D allreduce {} B auto algorithm",
            c.sizes.len(),
            c.sizes.first().copied().unwrap_or(0),
            c.sizes.last().copied().unwrap_or(0),
            MODELS.len() * MODES.len() * PLACES.len() * 2 * c.sizes.len() + 1,
            c.lat_iters,
            c.lat_warmup,
            c.bw_iters,
            c.bw_warmup,
            c.bw_window,
            LARGE
        )
    }

    fn lat_ops(&self) -> u64 {
        u64::from(self.cfg.lat_iters + self.cfg.lat_warmup)
    }

    fn bw_ops(&self) -> u64 {
        u64::from(self.cfg.bw_iters + self.cfg.bw_warmup)
    }

    fn ops(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Lat => self.lat_ops(),
            Kind::Bw => self.bw_ops(),
        }
    }

    fn coll_cfg(&self) -> OsuConfig {
        OsuConfig {
            sizes: vec![LARGE],
            ..self.cfg.clone()
        }
    }

    /// One sweep point through its entry point: `rucx_osu::latency` or
    /// `bandwidth` over a single size.
    fn point(&self, kind: Kind, model: Model, mode: Mode, place: Placement, size: u64) -> f64 {
        let cfg = OsuConfig {
            sizes: vec![size],
            ..self.cfg.clone()
        };
        let series = match kind {
            Kind::Lat => rucx_osu::latency(&cfg, model, mode, place),
            Kind::Bw => rucx_osu::bandwidth(&cfg, model, mode, place),
        };
        series.points[0].1
    }

    /// The sweep, one entry-point call per point, so a failing point fails
    /// only its own operations.
    pub fn run(&self, checks: &mut Checks) -> Outcome {
        let mut results: BTreeMap<Key, f64> = BTreeMap::new();
        for model in MODELS {
            for mode in MODES {
                for place in PLACES {
                    for kind in [Kind::Lat, Kind::Bw] {
                        for &size in &self.cfg.sizes {
                            let name =
                                || format!("{} at {size} B", label(kind, model, mode, place));
                            let r = checks.op(self.ops(kind), name, || {
                                self.point(kind, model, mode, place, size)
                            });
                            if let Some(r) = r {
                                results.insert(key(kind, model, mode, place, size), r);
                            }
                        }
                    }
                }
            }
        }
        let allreduce = checks.op(
            self.lat_ops(),
            || "osu allreduce AMPI-D".into(),
            || coll_latency(&self.coll_cfg(), Model::Ampi, CollKind::Allreduce, None).points[0].1,
        );

        let at = |kind, model, mode, place, size| {
            results.get(&key(kind, model, mode, place, size)).copied()
        };
        let (inter, intra) = (Placement::InterNode, Placement::IntraNode);
        let (d, h) = (Mode::Device, Mode::HostStaging);
        for model in MODELS {
            let ld = at(Kind::Lat, model, d, inter, LARGE);
            let lh = at(Kind::Lat, model, h, inter, LARGE);
            checks.check(
                matches!((ld, lh), (Some(d), Some(h)) if d < h),
                || format!("gpu_direct_beats_host: {} osu latency 1 MiB inter-node D {ld:?} vs H {lh:?} us", model.label()),
                2 * self.lat_ops(),
            );
            let bd = at(Kind::Bw, model, d, intra, BW);
            let bh = at(Kind::Bw, model, h, intra, BW);
            checks.check(
                matches!((bd, bh), (Some(d), Some(h)) if d > h),
                || format!("gpu_direct_beats_host: {} osu bandwidth 4 MiB intra-node D {bd:?} vs H {bh:?} MB/s", model.label()),
                2 * self.bw_ops(),
            );
        }

        let gm = |kind, place, size| {
            let v: Option<Vec<f64>> = MODELS
                .iter()
                .map(|&m| at(kind, m, d, place, size))
                .collect();
            v.map_or(f64::NAN, |v| geomean(&v))
        };
        let values = vec![
            Value::new("osu_lat_8B_us", "us", gm(Kind::Lat, inter, SMALL)),
            Value::new("osu_lat_1MiB_us", "us", gm(Kind::Lat, inter, LARGE)),
            Value::new("osu_bw_4MiB_MBps", "MB/s", gm(Kind::Bw, intra, BW)),
            Value::new("osu_allreduce_1MiB_us", "us", allreduce.unwrap_or(f64::NAN)),
        ];
        let mut digest = FOLD_SEED;
        for (k, v) in &results {
            digest = fold(fold(digest, k.4), v.to_bits());
        }
        digest = fold(digest, allreduce.unwrap_or(f64::NAN).to_bits());
        Outcome { values, digest }
    }

    /// Every point's machine, built by the sweep's own set-up call,
    /// `rucx_osu::setup` (Summit(2) plus one device, pinned host and ack
    /// buffer per process), and launched with its model's runtime. The
    /// allreduce's machine is built by a private helper of `coll_bench`
    /// and is not probed.
    pub fn setup(&self) -> SetupTimes {
        let mut t = SetupTimes::default();
        let machine = &self.cfg.machine;
        for model in MODELS {
            for _ in 0..MODES.len() * PLACES.len() * 2 {
                for &size in &self.cfg.sizes {
                    t.probe(
                        || rucx_osu::setup(machine, size).sim,
                        |sim| launch_noop(sim, model),
                    );
                }
            }
        }
        t
    }

    /// Representative points of the sweep, run through the entry points and
    /// rebuilt with `rucx_osu::setup` + `RankFactory::launch` and the
    /// trace on: AMPI and OpenMPI, D and H, latency at 8 B and 1 MiB
    /// inter-node and bandwidth at 4 MiB intra-node; the allreduce; and
    /// the benchmark's own UCP tag ping-pong, which times the protocol
    /// calls and the blocking waits.
    pub fn traced(&self, checks: &mut Checks) -> Layers {
        let mut points = Vec::new();
        for model in [Model::Ampi, Model::Ompi] {
            for mode in MODES {
                points.push((Kind::Lat, model, mode, Placement::InterNode, SMALL));
                points.push((Kind::Lat, model, mode, Placement::InterNode, LARGE));
                points.push((Kind::Bw, model, mode, Placement::IntraNode, BW));
            }
        }
        let probe_ops = 2 * u64::from(self.probe_iters);
        let half_ops =
            points.iter().map(|p| self.ops(p.0)).sum::<u64>() + self.lat_ops() + probe_ops;
        let mut layers = Layers {
            ops: 2 * half_ops,
            ..Layers::default()
        };
        let name = |p: &(Kind, Model, Mode, Placement, u64)| {
            format!("{} at {} B", label(p.0, p.1, p.2, p.3), p.4)
        };

        let ((reference, coll_ref, probe_ref), untraced) = measure(|| {
            let mut reference = Vec::new();
            for p in &points {
                reference.push(checks.op(
                    self.ops(p.0),
                    || name(p),
                    || self.point(p.0, p.1, p.2, p.3, p.4),
                ));
            }
            let coll = checks.op(
                self.lat_ops(),
                || "osu allreduce AMPI-D".into(),
                || {
                    coll_latency(&self.coll_cfg(), Model::Ampi, CollKind::Allreduce, None).points[0]
                        .1
                },
            );
            let probe = checks.op(
                probe_ops,
                || "ucp tag ping-pong".into(),
                || {
                    let mut scratch = Layers::default();
                    self.ucp_pingpong(false, &mut scratch)
                },
            );
            (reference, coll, probe)
        });
        layers.untraced_wall_s = untraced.wall_s;

        let ((traced, coll_traced, probe_traced), span) = measure(|| {
            let mut traced = Vec::new();
            for p in &points {
                traced.push(checks.op(
                    self.ops(p.0),
                    || format!("{} (traced)", name(p)),
                    || match (p.0, p.1) {
                        (Kind::Lat, Model::Ampi) => {
                            rebuilt_latency(&self.cfg, p.4, p.3, p.2, AmpiFactory, &mut layers)
                        }
                        (Kind::Lat, _) => {
                            rebuilt_latency(&self.cfg, p.4, p.3, p.2, OmpiFactory, &mut layers)
                        }
                        (Kind::Bw, Model::Ampi) => {
                            rebuilt_bandwidth(&self.cfg, p.4, p.3, p.2, AmpiFactory, &mut layers)
                        }
                        (Kind::Bw, _) => {
                            rebuilt_bandwidth(&self.cfg, p.4, p.3, p.2, OmpiFactory, &mut layers)
                        }
                    },
                ));
            }
            let coll = checks.op(
                self.lat_ops(),
                || "osu allreduce AMPI-D (traced)".into(),
                || rebuilt_allreduce(&self.cfg, LARGE, &mut layers),
            );
            let probe = checks.op(
                probe_ops,
                || "ucp tag ping-pong (traced)".into(),
                || self.ucp_pingpong(true, &mut layers),
            );
            (traced, coll, probe)
        });
        layers.traced_wall_s = span.wall_s;
        layers.traced_cpu_s = span.cpu_s;

        for (i, p) in points.iter().enumerate() {
            same(checks, || name(p), reference[i], traced[i], self.ops(p.0));
        }
        same(
            checks,
            || "osu allreduce AMPI-D".into(),
            coll_ref,
            coll_traced,
            self.lat_ops(),
        );
        same(
            checks,
            || "ucp tag ping-pong".into(),
            probe_ref,
            probe_traced,
            probe_ops,
        );
        layers
    }

    /// Raw UCP tag ping-pong between ranks 0 and 6 (inter-node, device
    /// buffers), `probe_iters` round trips at 8 B then at 1 MiB. Written
    /// like `rucx_ucp::blocking::{send, recv}`, with host timers around the
    /// non-blocking protocol calls and around each `ctx.wait`. Returns the
    /// virtual one-way latency sum of both sizes (µs).
    fn ucp_pingpong(&self, trace: bool, layers: &mut Layers) -> f64 {
        const PEER: usize = 6;
        let mut sim = build_sim(Topology::summit(2), self.cfg.machine.clone());
        if trace {
            sim.scheduler().trace.enable(TRACE_CAPACITY);
        }
        let topo = sim.world().topo.clone();
        let mut bufs = Vec::new();
        for p in [0, PEER] {
            for size in [SMALL, LARGE] {
                bufs.push(
                    sim.world_mut()
                        .gpu
                        .pool
                        .alloc_device(topo.device_of(p), size, false)
                        .expect("device alloc"),
                );
            }
        }
        let samples = Arc::new(Mutex::new((Vec::new(), Vec::new(), 0.0f64)));
        let iters = self.probe_iters;
        for (me, other, mine) in [(0, PEER, [bufs[0], bufs[1]]), (PEER, 0, [bufs[2], bufs[3]])] {
            let samples = samples.clone();
            sim.spawn(format!("ucp-probe-{me}"), 0, move |ctx| {
                let mut wait = Vec::new();
                let mut call = Vec::new();
                let mut lat_us = 0.0;
                for buf in mine {
                    let t0 = ctx.now();
                    for i in 0..iters {
                        let tag = u64::from(i);
                        if me == 0 {
                            probe_send(ctx, me, other, buf, tag, &mut call, &mut wait);
                            probe_recv(ctx, me, buf, tag, &mut call, &mut wait);
                        } else {
                            probe_recv(ctx, me, buf, tag, &mut call, &mut wait);
                            probe_send(ctx, me, other, buf, tag, &mut call, &mut wait);
                        }
                    }
                    lat_us += as_us(ctx.now() - t0) / (2.0 * f64::from(iters));
                }
                let mut s = samples.lock();
                s.0.extend(wait);
                s.1.extend(call);
                if me == 0 {
                    s.2 = lat_us;
                }
            });
        }
        layers.run_sim(&mut sim, "ucp tag ping-pong");
        let mut s = samples.lock();
        if trace {
            layers.wait_ns.append(&mut s.0);
            layers.call_ns.append(&mut s.1);
        }
        s.2
    }
}

fn label(kind: Kind, model: Model, mode: Mode, place: Placement) -> String {
    let what = match kind {
        Kind::Lat => "latency",
        Kind::Bw => "bandwidth",
    };
    format!(
        "osu {what} {}-{} {}",
        model.label(),
        mode.suffix(),
        place.label()
    )
}

/// Byte-identity of an entry point's virtual result and its traced rebuild.
fn same(
    checks: &mut Checks,
    name: impl FnOnce() -> String,
    a: Option<f64>,
    b: Option<f64>,
    ops: u64,
) {
    let ok = matches!((a, b), (Some(a), Some(b)) if a.to_bits() == b.to_bits());
    checks.check(
        ok,
        || format!("traced_equals_untraced: {} ({a:?} vs {b:?})", name()),
        ops,
    );
}

fn probe_send(
    ctx: &mut MCtx,
    me: usize,
    to: usize,
    buf: MemRef,
    tag: u64,
    call: &mut Vec<u64>,
    wait: &mut Vec<u64>,
) {
    let (done, ns) = time_ns(|| {
        ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            tag_send_nb(w, s, me, to, SendBuf::Mem(buf), tag, Completion::Trigger(t));
            t
        })
    });
    call.push(ns);
    let cost = ctx.with_world_ref(|w, _| w.ucp.config.cpu_call);
    ctx.advance(cost);
    let ((), ns) = time_ns(|| ctx.wait(done));
    wait.push(ns);
    ctx.with_world(move |_, s| s.recycle_trigger(done));
}

fn probe_recv(
    ctx: &mut MCtx,
    me: usize,
    buf: MemRef,
    tag: u64,
    call: &mut Vec<u64>,
    wait: &mut Vec<u64>,
) {
    let (done, ns) = time_ns(|| {
        ctx.with_world(move |w, s| {
            let t = s.new_trigger();
            let cb = RecvCompletion::Callback(Box::new(move |_, s, _| s.fire(t)));
            tag_recv_nb(w, s, me, buf, tag, rucx_ucp::MASK_FULL, cb);
            t
        })
    });
    call.push(ns);
    let cost = ctx.with_world_ref(|w, _| w.ucp.config.cpu_call);
    ctx.advance(cost);
    let ((), ns) = time_ns(|| ctx.wait(done));
    wait.push(ns);
    ctx.with_world(move |_, s| s.recycle_trigger(done));
}

fn coll_bufs(sim: &mut MSim, size: u64) -> (Vec<MemRef>, Vec<MemRef>) {
    let topo = sim.world().topo.clone();
    let pool = &mut sim.world_mut().gpu.pool;
    let mut alloc = |p| {
        pool.alloc_device(topo.device_of(p), size, false)
            .expect("device alloc")
    };
    (0..topo.procs()).map(|p| (alloc(p), alloc(p))).unzip()
}

/// `rucx_osu::latency`'s MPI-style point, rebuilt on a held simulation
/// with the trace sink on (same body as `latency::mpi_latency_point`).
fn rebuilt_latency<F: RankFactory>(
    cfg: &OsuConfig,
    size: u64,
    place: Placement,
    mode: Mode,
    factory: F,
    layers: &mut Layers,
) -> f64 {
    let mut s = rucx_osu::setup(&cfg.machine, size);
    s.sim.scheduler().trace.enable(TRACE_CAPACITY);
    let peer = place.peer();
    let (d, h) = (Arc::new(s.d.clone()), Arc::new(s.h.clone()));
    let result = Arc::new(Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    factory.launch(&mut s.sim, move |mpi, ctx| {
        let me = mpi.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
        let my_d = d[me].slice(0, size);
        let my_h = h[me].slice(0, size);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            match (me == 0, mode) {
                (true, Mode::Device) => {
                    mpi.send(ctx, my_d, other, 1);
                    mpi.recv(ctx, my_d, other, 2);
                }
                (false, Mode::Device) => {
                    mpi.recv(ctx, my_d, other, 1);
                    mpi.send(ctx, my_d, other, 2);
                }
                (true, Mode::HostStaging) => {
                    cuda::copy_sync(ctx, my_d, my_h, stream);
                    mpi.send(ctx, my_h, other, 1);
                    mpi.recv(ctx, my_h, other, 2);
                    cuda::copy_sync(ctx, my_h, my_d, stream);
                }
                (false, Mode::HostStaging) => {
                    mpi.recv(ctx, my_h, other, 1);
                    cuda::copy_sync(ctx, my_h, my_d, stream);
                    cuda::copy_sync(ctx, my_d, my_h, stream);
                    mpi.send(ctx, my_h, other, 2);
                }
            }
        }
        if me == 0 {
            *result2.lock() = as_us(ctx.now() - t0) / (2.0 * iters as f64);
        }
    });
    layers.run_sim(&mut s.sim, "osu latency");
    let r = *result.lock();
    r
}

/// `rucx_osu::bandwidth`'s MPI-style point, rebuilt on a held simulation
/// with the trace sink on (same body as `bandwidth::mpi_bw_point`).
fn rebuilt_bandwidth<F: RankFactory>(
    cfg: &OsuConfig,
    size: u64,
    place: Placement,
    mode: Mode,
    factory: F,
    layers: &mut Layers,
) -> f64 {
    let mut s = rucx_osu::setup(&cfg.machine, size);
    s.sim.scheduler().trace.enable(TRACE_CAPACITY);
    let peer = place.peer();
    let (d, h, ack) = (
        Arc::new(s.d.clone()),
        Arc::new(s.h.clone()),
        Arc::new(s.ack.clone()),
    );
    let result = Arc::new(Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup, window) = (cfg.bw_iters, cfg.bw_warmup, cfg.bw_window);
    factory.launch(&mut s.sim, move |mpi, ctx| {
        let me = mpi.rank();
        if me != 0 && me != peer {
            return;
        }
        let other = if me == 0 { peer } else { 0 };
        let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
        let stream = ctx.with_world_ref(|w, _| w.gpu.default_stream(dev));
        let my_d = d[me].slice(0, size);
        let my_h = h[me].slice(0, size);
        let my_ack = ack[me].slice(0, 4);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                t0 = ctx.now();
            }
            if me == 0 {
                let mut reqs = Vec::with_capacity(window as usize);
                for w in 0..window {
                    let buf = match mode {
                        Mode::Device => my_d,
                        Mode::HostStaging => {
                            cuda::copy_sync(ctx, my_d, my_h, stream);
                            my_h
                        }
                    };
                    reqs.push(mpi.isend(ctx, buf, other, w as i32));
                }
                mpi.waitall(ctx, reqs);
                mpi.recv(ctx, my_ack, other, 99);
            } else {
                let mut reqs = Vec::with_capacity(window as usize);
                let buf = match mode {
                    Mode::Device => my_d,
                    Mode::HostStaging => my_h,
                };
                for w in 0..window {
                    reqs.push(mpi.irecv(ctx, buf, other, w as i32));
                }
                mpi.waitall(ctx, reqs);
                if mode == Mode::HostStaging {
                    for _ in 0..window {
                        cuda::copy_sync(ctx, my_h, my_d, stream);
                    }
                }
                mpi.send(ctx, my_ack, other, 99);
            }
        }
        if me == 0 {
            let bytes = size * window as u64 * iters as u64;
            *result2.lock() = bandwidth_mbps(bytes, ctx.now() - t0);
        }
    });
    layers.run_sim(&mut s.sim, "osu bandwidth");
    let r = *result.lock();
    r
}

/// The AMPI allreduce point of `coll_bench`, rebuilt on a held
/// simulation with the trace sink on.
fn rebuilt_allreduce(cfg: &OsuConfig, size: u64, layers: &mut Layers) -> f64 {
    let mut sim = build_sim(Topology::summit(2), cfg.machine.clone());
    sim.scheduler().trace.enable(TRACE_CAPACITY);
    let (bufs, scratch) = coll_bufs(&mut sim, size);
    let n = bufs.len();
    let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
    let result = Arc::new(Mutex::new(0.0f64));
    let result2 = result.clone();
    let (iters, warmup) = (cfg.lat_iters, cfg.lat_warmup);
    AmpiFactory.launch(&mut sim, move |mpi, ctx| {
        let me = mpi.rank();
        let (buf, scr) = (bufs[me], scratch[me]);
        let mut t0 = 0;
        for i in 0..(warmup + iters) {
            if i == warmup {
                mpi.barrier(ctx);
                t0 = ctx.now();
            }
            let dev = ctx.with_world_ref(|w, _| w.topo.device_of(me));
            coll::allreduce(mpi, ctx, buf, scr, CollOp::Sum, n, dev);
            mpi.barrier(ctx);
        }
        if me == 0 {
            *result2.lock() = as_us(ctx.now() - t0) / iters as f64;
        }
    });
    layers.run_sim(&mut sim, "osu allreduce");
    let r = *result.lock();
    r
}

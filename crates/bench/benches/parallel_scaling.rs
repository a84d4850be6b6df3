//! Full-size Jacobi3D scaling curves on the sharded conservative engine:
//! the 256-node weak and strong sweeps (paper Figures 14–16 shapes) for
//! all four models, in wall-clock minutes instead of hours.
//!
//! Run with `cargo bench --bench parallel_scaling`. Knobs:
//! `RUCX_MAX_NODES` caps the sweep (256 like the paper by default),
//! `RUCX_SHARDS` sets the worker-thread count (default 8; the engine
//! clamps it to the node count per sweep point), `RUCX_BENCH_ITERS` /
//! `RUCX_BENCH_WARMUP` control the timed shards=1 vs shards=N pair that
//! lands in `BENCH_engine.json`.

use rucx_bench::{
    max_nodes, merge_bench_engine, print_table, strong_nodes, weak_nodes, write_json,
};
use rucx_compat::timer::Runner;
use rucx_jacobi::{run_sharded, JacobiConfig, JacobiModel, JacobiResult, Mode};

fn shard_count() -> usize {
    std::env::var("RUCX_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(8)
}

type SweepRow = (usize, JacobiResult, JacobiResult); // (nodes, H, D)

fn sweep(
    model: JacobiModel,
    nodes: &[usize],
    make: fn(usize, Mode) -> JacobiConfig,
    shards: usize,
) -> Vec<SweepRow> {
    nodes
        .iter()
        .map(|&n| {
            let h = run_sharded(model, &make(n, Mode::HostStaging), shards);
            let d = run_sharded(model, &make(n, Mode::Device), shards);
            eprintln!(
                "  {} {n} nodes: H overall {:.2}ms comm {:.2}ms | D overall {:.2}ms comm {:.2}ms",
                model.label(),
                h.overall_ms,
                h.comm_ms,
                d.overall_ms,
                d.comm_ms
            );
            (n, h, d)
        })
        .collect()
}

fn print_sweep(name: &str, title: &str, rows: &[SweepRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, h, d)| {
            vec![
                n.to_string(),
                format!("{:.2}", h.overall_ms),
                format!("{:.2}", d.overall_ms),
                format!("{:.2}", h.comm_ms),
                format!("{:.2}", d.comm_ms),
                format!("{:.1}x", h.comm_ms / d.comm_ms),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "nodes",
            "overall-H",
            "overall-D",
            "comm-H",
            "comm-D",
            "comm speedup",
        ],
        &table,
    );
    let json: Vec<(usize, f64, f64, f64, f64)> = rows
        .iter()
        .map(|(n, h, d)| (*n, h.overall_ms, d.overall_ms, h.comm_ms, d.comm_ms))
        .collect();
    write_json(name, &json);
}

fn main() {
    let shards = shard_count();
    let weak = weak_nodes();
    let strong = strong_nodes();
    println!(
        "rucx sharded Jacobi3D scaling: weak {weak:?}, strong {strong:?}, {shards} shards \
         (RUCX_MAX_NODES / RUCX_SHARDS to adjust)"
    );

    for (model, tag) in [
        (JacobiModel::Charm, "charm"),
        (JacobiModel::Ampi, "ampi"),
        (JacobiModel::Ompi, "openmpi"),
        (JacobiModel::Charm4py, "charm4py"),
    ] {
        let w = sweep(model, &weak, JacobiConfig::weak, shards);
        print_sweep(
            &format!("sharded_weak_{tag}"),
            &format!("{} sharded weak scaling (ms/iter)", model.label()),
            &w,
        );
        let s = sweep(model, &strong, JacobiConfig::strong, shards);
        print_sweep(
            &format!("sharded_strong_{tag}"),
            &format!("{} sharded strong scaling (ms/iter)", model.label()),
            &s,
        );
    }

    // Wall-clock scaling of the engine itself: the largest weak point,
    // sequential (shards=1, the oracle-equivalent path) vs sharded. Lands
    // in BENCH_engine.json alongside the dispatch/resume trajectory; the
    // row names carry the node and (clamped) shard counts, so a capped
    // smoke run never overwrites the paper-scale rows.
    let top = max_nodes().max(1);
    let eff = shards.clamp(1, top);
    let cfg = JacobiConfig::weak(top, Mode::Device);
    let mut r = Runner::from_env();
    r.bench(&format!("jacobi_sharded_weak_n{top}_s1"), || {
        run_sharded(JacobiModel::Charm, &cfg, 1);
    });
    r.bench(&format!("jacobi_sharded_weak_n{top}_s{eff}"), || {
        run_sharded(JacobiModel::Charm, &cfg, eff);
    });
    merge_bench_engine(r.results());
}

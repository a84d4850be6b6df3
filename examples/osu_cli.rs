//! Command-line OSU benchmark runner, mirroring how the real suite is
//! invoked:
//!
//! ```text
//! cargo run --release --example osu_cli -- latency  --model ampi    --mode d --place inter
//! cargo run --release --example osu_cli -- bw       --model charm   --mode h --place intra
//! cargo run --release --example osu_cli -- bibw     --model openmpi --place inter
//! cargo run --release --example osu_cli -- latency  --model openmpi --mode d --no-gdrcopy
//! cargo run --release --example osu_cli -- latency  --model ampi --place inter \
//!     --fault-spec seed=7,drop=0.01
//! cargo run --release --example osu_cli -- bw       --model charm --shards 4
//! cargo run --release --example osu_cli -- coll     --coll allreduce --algo hier
//! cargo run --release --example osu_cli -- coll     --coll bcast --model charm4py
//! ```
//!
//! `--shards N` runs the message sizes on N threads of the shared sweep
//! (`rucx::bench::sweep`); every size is its own deterministic
//! simulation, so the output is byte-identical for every N.

use rucx::bench::{flag, sweep};
use rucx::coll::Algo;
use rucx::osu::coll_bench::{coll_latency, CollKind};
use rucx::osu::{bandwidth, bibw, latency, mpi_like, Mode, Model, OsuConfig, Placement, Series};

fn usage(err: &str) -> ! {
    eprintln!(
        "{err}\nusage: osu_cli <latency|bw|bibw|coll> [--model charm|ampi|openmpi|charm4py] \
         [--mode d|h] [--place intra|inter] [--coll allreduce|bcast] \
         [--algo auto|tree|rd|ring|hier] [--no-gdrcopy] [--quick] [--fault-spec SPEC] \
         [--shards N] [--tune] [--json]"
    );
    std::process::exit(2)
}

/// Run `series(cfg)` one message size at a time on the shared sweep and
/// join the points back into one series, in size order.
fn run_sweep(
    cfg: &OsuConfig,
    shards: usize,
    series: impl Fn(&OsuConfig) -> Series + Sync,
) -> Series {
    let parts = sweep::run(&cfg.sizes, shards, |&size| {
        series(&OsuConfig {
            sizes: vec![size],
            ..cfg.clone()
        })
    });
    Series {
        label: parts[0].label.clone(),
        unit: parts[0].unit,
        points: parts.into_iter().flat_map(|s| s.points).collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(bench) = args.first() else {
        usage("missing benchmark name");
    };
    let mut model = Model::Ompi;
    let mut mode = Mode::Device;
    let mut place = Placement::IntraNode;
    let mut cfg = OsuConfig::default();
    let mut shards = 1usize;
    let mut json = false;
    let mut coll_kind = CollKind::Allreduce;
    let mut algo: Option<Algo> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => {
                model = match it.next().map(|s| s.as_str()) {
                    Some("charm") => Model::Charm,
                    Some("ampi") => Model::Ampi,
                    Some("openmpi") => Model::Ompi,
                    Some("charm4py") => Model::Charm4py,
                    _ => usage("--model needs charm|ampi|openmpi|charm4py"),
                }
            }
            "--mode" => {
                mode = match it.next().map(|s| s.as_str()) {
                    Some("d") => Mode::Device,
                    Some("h") => Mode::HostStaging,
                    _ => usage("--mode needs d|h"),
                }
            }
            "--place" => {
                place = match it.next().map(|s| s.as_str()) {
                    Some("intra") => Placement::IntraNode,
                    Some("inter") => Placement::InterNode,
                    _ => usage("--place needs intra|inter"),
                }
            }
            "--coll" => {
                coll_kind = match it.next().map(|s| s.as_str()) {
                    Some("allreduce") => CollKind::Allreduce,
                    Some("bcast") => CollKind::Bcast,
                    _ => usage("--coll needs allreduce|bcast"),
                }
            }
            "--algo" => algo = flag::algo(it.next(), Algo::parse).unwrap_or_else(|e| usage(&e)),
            "--no-gdrcopy" => cfg.machine.ucp.gdrcopy_enabled = false,
            "--tune" => cfg.machine.ucp.autotune = true,
            "--json" => json = true,
            "--shards" => shards = flag::positive(a, it.next()).unwrap_or_else(|e| usage(&e)),
            "--fault-spec" => {
                cfg.machine.fault = Some(flag::fault_spec(it.next()).unwrap_or_else(|e| usage(&e)))
            }
            "--quick" => {
                let machine = cfg.machine.clone();
                cfg = OsuConfig::quick();
                cfg.machine = machine;
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let series: Series = match bench.as_str() {
        "latency" => run_sweep(&cfg, shards, |c| latency(c, model, mode, place)),
        "bw" => run_sweep(&cfg, shards, |c| bandwidth(c, model, mode, place)),
        "bibw" => match model {
            Model::Ampi => run_sweep(&cfg, shards, |c| {
                bibw::bibw_series(c, "AMPI", place, mpi_like::AmpiFactory)
            }),
            Model::Ompi => run_sweep(&cfg, shards, |c| {
                bibw::bibw_series(c, "OpenMPI", place, mpi_like::OmpiFactory)
            }),
            _ => {
                eprintln!("bibw supports --model ampi|openmpi");
                std::process::exit(2);
            }
        },
        "coll" => {
            if model == Model::Charm {
                eprintln!("coll supports --model ampi|openmpi|charm4py");
                std::process::exit(2);
            }
            run_sweep(&cfg, shards, |c| coll_latency(c, model, coll_kind, algo))
        }
        other => usage(&format!("unknown benchmark {other}")),
    };

    if json {
        use rucx::compat::json::ToJson;
        println!("{}", series.to_json());
        return;
    }
    println!("# {} ({})", series.label, series.unit);
    println!("{:>10}  {:>14}", "size", series.unit);
    for (size, v) in &series.points {
        println!("{size:>10}  {v:>14.2}");
    }
}

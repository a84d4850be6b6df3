//! `rucx-perfbench --workload <osu_suite|jacobi_weak4|svc_rpc|all>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`: untraced passes reporting the
//! host-clock end-to-end metrics (`--trace 0`) or traced passes reporting
//! the per-layer metrics (`--trace 1`). Prints the run record, every
//! metric with its unit, the per-layer table and every check by name; the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--workload all` runs every workload both ways.

use std::process::ExitCode;

use rucx_perfbench::host::forbidden_env;
use rucx_perfbench::report::{self, result_line};
use rucx_perfbench::{Checks, Value, Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rucx-perfbench --workload <osu_suite|jacobi_weak4|svc_rpc|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Each of these changes the program under test; CPU pinning is never
    // applied either, since it hides the cross-thread handoff cost.
    if let Some(var) = forbidden_env() {
        eprintln!("refusing to run: {var} is set and would change the program under test");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let modes: Vec<bool> = if args.workload == "all" {
        vec![false, true]
    } else {
        vec![args.trace]
    };

    let mut checks = Checks::default();
    let mut metrics: Vec<Value> = Vec::new();
    for name in &names {
        let w = Workload::by_name(name, args.seed, false).expect("workload names were validated");
        for &trace in &modes {
            println!(
                "record: {}",
                report::record(&w, args.seed, args.seconds, trace)
            );
            let r = report::run(&w, args.seconds, trace);
            report::print(&w, &r);
            let chosen = if trace { r.layers } else { r.host };
            if names.len() == 1 {
                metrics = chosen;
            } else {
                let prefix: &'static str = w.name();
                metrics.extend(chosen.into_iter().map(|v| Value {
                    name: Box::leak(format!("{prefix}.{}", v.name).into_boxed_str()),
                    ..v
                }));
            }
            checks.merge(r.checks);
        }
    }
    println!("{}", result_line(&mut checks, &metrics));
    ExitCode::SUCCESS
}

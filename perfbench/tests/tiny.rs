//! The benchmark's own tests, on tiny configurations of each workload:
//! every named metric comes out with its unit and every check passes, two
//! runs agree exactly on the virtual-clock and count metrics, and another
//! service seed changes the results while still passing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rucx_perfbench::report::{self, Report};
use rucx_perfbench::{Value, Workload, WORKLOADS};

const HOST: [(&str, &str); 3] = [("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

fn virt(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "osu_suite" => &[
            ("osu_lat_8B_us", "us"),
            ("osu_lat_1MiB_us", "us"),
            ("osu_bw_4MiB_MBps", "MB/s"),
            ("osu_allreduce_1MiB_us", "us"),
        ],
        "jacobi_weak4" => &[("jacobi_iter_ms", "ms"), ("jacobi_comm_ms", "ms")],
        _ => &[
            ("svc_tasks_per_s", "tasks/s"),
            ("svc_p50_us", "us"),
            ("svc_p99_us", "us"),
        ],
    }
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let w = Workload::by_name(workload, seed, true).expect("known workload");
    report::run(&w, 1e-3, trace)
}

fn names(vs: &[Value]) -> Vec<(&'static str, &'static str)> {
    vs.iter().map(|v| (v.name, v.unit)).collect()
}

/// `"name": "<metric>"` entries of one list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let e2e = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = tiny(workload, 1, trace);
            assert!(
                r.checks.ok(),
                "{workload} trace={trace}: {:?}",
                r.checks.violations
            );
            assert_eq!(r.checks.failed(), 0);
            let listed = if trace { &r.layers } else { &r.host };
            let want: Vec<&String> = if trace {
                per_layer.iter().collect()
            } else {
                e2e.iter().collect()
            };
            let got: Vec<String> = listed.iter().map(|v| v.name.to_string()).collect();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want,
                "{workload} trace={trace}"
            );
            assert!(listed
                .iter()
                .all(|v| v.value.is_finite() && !v.unit.is_empty()));
            if trace {
                assert!(r.last_traced.is_some());
            } else {
                assert_eq!(names(&r.host), HOST);
                assert!(r.host.iter().all(|v| v.value > 0.0), "{:?}", r.host);
                assert_eq!(names(&r.host_wall), [("wall_s", "s"), ("steal_s", "s")]);
                assert_eq!(names(&r.virt), virt(workload), "{workload}");
                assert!(r.virt.iter().all(|v| v.value.is_finite() && v.value > 0.0));
            }
        }
    }
}

#[test]
fn virtual_and_count_metrics_repeat_exactly() {
    for workload in WORKLOADS {
        let (a, b) = (tiny(workload, 3, false), tiny(workload, 3, false));
        assert_eq!(a.virt, b.virt, "{workload}");
        let (a, b) = (tiny(workload, 3, true), tiny(workload, 3, true));
        let counts = |r: &Report| -> Vec<Value> {
            r.layers
                .iter()
                .filter(|v| v.unit == "count")
                .cloned()
                .collect()
        };
        assert_eq!(counts(&a), counts(&b), "{workload}");
        let (la, lb) = (a.last_traced.unwrap(), b.last_traced.unwrap());
        assert_eq!(la.counters, lb.counters, "{workload}");
        assert_eq!(la.trace_names, lb.trace_names, "{workload}");
        assert_eq!(la.busy_ns, lb.busy_ns, "{workload}");
        assert_eq!(la.events, lb.events, "{workload}");
    }
}

#[test]
fn another_svc_seed_changes_results_and_still_passes() {
    use rucx_perfbench::svc::{digest_of, expected_results, SvcRpc};
    let (one, two) = (SvcRpc::tiny(1), SvcRpc::tiny(2));
    assert_ne!(
        digest_of(&expected_results(&one.cfg)),
        digest_of(&expected_results(&two.cfg))
    );
    let (a, b) = (tiny("svc_rpc", 1, false), tiny("svc_rpc", 2, false));
    assert!(
        a.checks.ok() && b.checks.ok(),
        "{:?} {:?}",
        a.checks.violations,
        b.checks.violations
    );
    assert_ne!(a.virt, b.virt);
    let traced = tiny("svc_rpc", 2, true);
    assert!(traced.checks.ok(), "{:?}", traced.checks.violations);
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(Workload::by_name("nope", 1, true).is_none());
}

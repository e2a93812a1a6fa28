//! Tiny-size runs of every workload: each emits exactly the metrics
//! BENCHMARK.json lists, with their units, passes its own oracle, and has
//! the oracle reject a deliberately corrupted reply.

use cf_telemetry::json::{self, Value};
use perfbench::{run, Config, Report, Scale, WORKLOADS};

fn tiny(workload: &str, trace: bool, corrupt_op: Option<u64>) -> Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        corrupt_op,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_oracle() {
    for &w in WORKLOADS {
        for trace in [false, true] {
            let r = tiny(w, trace, None);
            assert!(r.correct, "{w}: {:?}", r.first_failure);
            assert_eq!(r.failed, 0, "{w}");
            assert!(r.attempted > 0, "{w}");
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted(&r), listed(section), "{w} trace={trace}");
            assert!(
                r.metrics
                    .iter()
                    .all(|m| m.1.is_finite() && m.1 >= 0.0 || m.0 == "trace.overhead_share"),
                "{w}: {:?}",
                r.metrics
            );
            let line = json::parse(&r.json()).expect("the result line is JSON");
            assert_eq!(line.as_obj().map(<[_]>::len), Some(4));
        }
    }
}

#[test]
fn end_to_end_times_are_never_zero() {
    for &w in WORKLOADS {
        let r = tiny(w, false, None);
        for name in ["setup_s", "host_rps", "host_p50_us", "host_p99_us"] {
            assert!(r.metric(name).is_some_and(|v| v > 0.0), "{w} {name}");
        }
    }
}

#[test]
fn traced_runs_attribute_time_to_the_layers_each_workload_calls() {
    let busy = |r: &Report, name: &str| r.metric(name).is_some_and(|v| v > 0.0);
    let udp = tiny("twitter_udp", true, None);
    for name in [
        "kv.client_send_ns",
        "kv.server_handle_ns",
        "net.udp_recv_ns",
    ] {
        assert!(busy(&udp, name), "twitter_udp {name}");
    }
    assert!(!busy(&udp, "net.tcp_server_poll_ns"));
    let tcp = tiny("cdn_tcp", true, None);
    for name in [
        "net.tcp_server_poll_ns",
        "net.tcp_client_poll_ns",
        "nic.hub_pump_ns",
    ] {
        assert!(busy(&tcp, name), "cdn_tcp {name}");
    }
    assert_eq!(
        tcp.metric("wl.put_share"),
        Some(0.0),
        "cdn_tcp is read-only"
    );
    let cluster = tiny("cluster_rw", true, None);
    for name in ["cluster.node_poll_ns", "nic.switch_pump_ns"] {
        assert!(busy(&cluster, name), "cluster_rw {name}");
    }
    assert_eq!(cluster.metric("cluster.quorum_reads_per_get"), Some(1.0));
    assert_eq!(cluster.metric("cluster.repl_applies_per_put"), Some(2.0));
}

#[test]
fn oracle_rejects_a_corrupted_reply_in_every_workload() {
    for &w in WORKLOADS {
        // Op 5 is a GET or a put ack depending on the stream; either way
        // the corrupted copy must be the first reply to fail. (A put whose
        // ack failed leaves its key's expected value unknown, so later
        // GETs of that key may fail too.)
        let r = tiny(w, false, Some(5));
        assert!(!r.correct, "{w} accepted a corrupted reply");
        assert!(r.failed >= 1, "{w}");
        assert!(
            r.first_failure
                .as_deref()
                .is_some_and(|f| f.starts_with("op 5:")),
            "{w}: {:?}",
            r.first_failure
        );
    }
}

/// The `sim.*` values a fresh `perfbench` process reports for `workload`.
fn virtual_counts(workload: &str) -> Vec<(String, f64)> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", "1", "--tiny"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    line.get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .filter(|(name, _)| name.starts_with("sim."))
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).expect("value"),
            )
        })
        .collect()
}

/// The cost model is a deterministic function of the seed: two fresh
/// processes report bit-identical virtual-clock counts. (Within one
/// process a second fixture lands at other heap addresses, which the
/// simulated cache sees, so the comparison is across processes.)
#[test]
fn virtual_clock_counts_repeat_exactly() {
    for &w in WORKLOADS {
        let (a, b) = (virtual_counts(w), virtual_counts(w));
        assert_eq!(a.len(), 12, "{w}");
        assert_eq!(a, b, "{w}");
        assert!(a.iter().any(|(_, v)| *v > 0.0), "{w}");
    }
}

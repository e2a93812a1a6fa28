//! Hot-path microbenchmark: ns/op and allocs/op for the steady-state
//! request path, per serialization kind. The enforcement artifact behind
//! the CI benchmark ratchet (`BENCH_hotpath.json`).
//!
//! Three drivers per [`SerKind`], all on a warm client/server pair:
//!
//! | op          | what one iteration does                                |
//! |-------------|--------------------------------------------------------|
//! | `get`       | single-key GET round trip (encode → serve → recv)      |
//! | `batch_get` | multi-key GET round trip (`batch_keys` keys)           |
//! | `put`       | PUT round trip overwriting a hot key                   |
//!
//! Two measurements per op:
//!
//! - **ns/op** — *real* wall-clock time (`std::time::Instant`), not virtual
//!   time: allocator churn is invisible to the simulator's cost model, so
//!   the zero-alloc work can only be observed on the host clock. Split
//!   into `encode` (client send), `serve` (server poll: decode + app +
//!   reply), and `recv` (client decode) segments. Each op is timed in
//!   [`REPS`] windows interleaved across ops and kinds, so drift in the host
//!   hits every row alike; the report carries the median window and the
//!   min/max spread.
//! - **allocs/op** — real heap acquisitions from
//!   [`cf_telemetry::alloctrack`], meaningful when the enclosing binary
//!   installs [`cf_telemetry::CountingAlloc`] as its global allocator (the
//!   `hotpath` bench does; the in-lib smoke test does not, and reports
//!   `alloc_counted: false`).
//!
//! Emits `hotpath.json` (schema in EXPERIMENTS.md). The committed
//! `BENCH_hotpath.json` is the ratchet baseline: the bench binary itself
//! compares a fresh run against it and fails on regression — allocs/op is
//! a hard floor (deterministic), the median ns/op gets a configurable
//! tolerance (`CF_HOTPATH_TOLERANCE`, default 2.0×, wall clocks differ
//! across machines).

use std::time::Instant;

use cf_net::UdpStack;
use cf_nic::link;
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::alloctrack::alloc_count;
use cornflakes_core::SerializationConfig;

use cf_kv::client::{KvClient, Response, CLIENT_PORT, SERVER_PORT};
use cf_kv::server::{KvServer, SerKind};

use crate::artifacts::write_json_artifact;
use crate::tables::print_table;

/// Harness knobs; [`HotpathParams::quick`] is the CI-sized preset.
#[derive(Clone, Debug)]
pub struct HotpathParams {
    /// Untimed rounds per op before measurement (pools, maps, and scratch
    /// reach their steady-state footprint — the warmup contract).
    pub warmup: u64,
    /// Timed rounds per op.
    pub rounds: u64,
    /// Value size in bytes (below the hybrid threshold: exercises the
    /// arena-copy encode path; served values still leave zero-copy).
    pub value_bytes: usize,
    /// Keys per `batch_get` iteration.
    pub batch_keys: usize,
}

/// Timed windows of `rounds` per op, interleaved across ops and kinds; the
/// report is their median (odd, so the median is one window).
const REPS: usize = 5;

impl HotpathParams {
    /// Full run: enough rounds that per-round `Instant` overhead amortizes.
    pub fn full() -> Self {
        HotpathParams {
            warmup: 1_024,
            rounds: 16_384,
            value_bytes: 256,
            batch_keys: 8,
        }
    }

    /// CI smoke preset: the same shape, a fraction of the volume.
    pub fn quick() -> Self {
        HotpathParams {
            warmup: 256,
            rounds: 2_048,
            ..HotpathParams::full()
        }
    }
}

/// Per-op measurement.
#[derive(Clone, Debug)]
pub struct OpStats {
    /// Operation label (`get`, `batch_get`, `put`).
    pub op: &'static str,
    /// Wall-clock nanoseconds per round trip in the median window.
    pub ns_per_op: f64,
    /// Fastest window's ns per round trip.
    pub ns_min: f64,
    /// Slowest window's ns per round trip.
    pub ns_max: f64,
    /// Heap acquisitions per round trip over all windows (0.0 when not
    /// counted).
    pub allocs_per_op: f64,
    /// Client encode+send segment of `ns_per_op`.
    pub encode_ns_per_op: f64,
    /// Server poll (decode + app + reply) segment.
    pub serve_ns_per_op: f64,
    /// Client receive+decode segment.
    pub recv_ns_per_op: f64,
}

/// One serialization kind's measurements.
#[derive(Clone, Debug)]
pub struct KindReport {
    /// Kind label (lowercase).
    pub kind: &'static str,
    /// `get`, `batch_get`, `put` in order.
    pub ops: Vec<OpStats>,
}

/// The full report, as emitted to `hotpath.json`.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// Timed rounds per window.
    pub rounds: u64,
    /// Warmup rounds per op.
    pub warmup: u64,
    /// Value size driven.
    pub value_bytes: usize,
    /// Whether the binary counts heap acquisitions (global allocator is
    /// [`cf_telemetry::CountingAlloc`]). When false, allocs/op is 0 by
    /// construction and must not be ratcheted against.
    pub alloc_counted: bool,
    /// Per-kind measurements.
    pub kinds: Vec<KindReport>,
}

const KINDS: [(SerKind, &str); 4] = [
    (SerKind::Cornflakes, "cornflakes"),
    (SerKind::Protobuf, "protobuf"),
    (SerKind::FlatBuffers, "flatbuffers"),
    (SerKind::CapnProto, "capnproto"),
];

/// Client and server on one Sim, telemetry disabled, no retries — the
/// zero-alloc steady-state configuration (DESIGN.md "Hot-path memory
/// discipline").
fn fixture(kind: SerKind) -> (KvClient, KvServer) {
    let sim = Sim::new(MachineProfile::tiny_for_tests());
    let (cp, sp) = link();
    let client_stack = UdpStack::new(sim.clone(), cp, CLIENT_PORT, SerializationConfig::hybrid());
    let server_stack = UdpStack::new(sim.clone(), sp, SERVER_PORT, SerializationConfig::hybrid());
    let client = KvClient::new(client_stack, kind);
    let mut server = KvServer::new(server_stack, kind);
    // A dedup window the warmup saturates: once full, each put's id insert
    // evicts the oldest in place and the window's containers stop growing.
    server.set_dedup_capacity(128);
    (client, server)
}

/// Whether this binary's global allocator feeds the acquisition counter.
fn alloc_counting_active() -> bool {
    let before = alloc_count();
    let probe = std::hint::black_box(Box::new(0u8));
    drop(probe);
    alloc_count() != before
}

struct RoundTimer {
    encode_ns: f64,
    serve_ns: f64,
    recv_ns: f64,
    allocs: u64,
}

impl RoundTimer {
    fn new() -> Self {
        RoundTimer {
            encode_ns: 0.0,
            serve_ns: 0.0,
            recv_ns: 0.0,
            allocs: 0,
        }
    }

    fn total_ns(&self) -> f64 {
        self.encode_ns + self.serve_ns + self.recv_ns
    }

    /// Folds the windows of one op: the median window's time and segments
    /// (so they still telescope), the min/max spread, and allocations over
    /// every window.
    fn stats(op: &'static str, windows: &mut [RoundTimer], rounds: u64) -> OpStats {
        windows.sort_by(|a, b| a.total_ns().total_cmp(&b.total_ns()));
        let per = |total: f64| total / rounds as f64;
        let mid = &windows[windows.len() / 2];
        let allocs: u64 = windows.iter().map(|w| w.allocs).sum();
        OpStats {
            op,
            ns_per_op: per(mid.total_ns()),
            ns_min: per(windows[0].total_ns()),
            ns_max: per(windows[windows.len() - 1].total_ns()),
            allocs_per_op: allocs as f64 / (rounds * windows.len() as u64) as f64,
            encode_ns_per_op: per(mid.encode_ns),
            serve_ns_per_op: per(mid.serve_ns),
            recv_ns_per_op: per(mid.recv_ns),
        }
    }
}

/// One timed round trip; segment times and allocation counts accumulate
/// into `t`. `send` must enqueue exactly one request. The response decodes
/// into the caller's reusable `resp` so its buffers persist across rounds
/// (the steady-state client pattern — `KvClient::recv_response_into`).
fn timed_round(
    client: &mut KvClient,
    server: &mut KvServer,
    t: &mut RoundTimer,
    resp: &mut Response,
    send: impl FnOnce(&mut KvClient) -> u32,
) {
    let a0 = alloc_count();
    let t0 = Instant::now();
    let id = send(client);
    let t1 = Instant::now();
    let served = server.poll();
    let t2 = Instant::now();
    let answered = client.recv_response_into(resp);
    let t3 = Instant::now();
    t.allocs += alloc_count() - a0;
    t.encode_ns += (t1 - t0).as_nanos() as f64;
    t.serve_ns += (t2 - t1).as_nanos() as f64;
    t.recv_ns += (t3 - t2).as_nanos() as f64;
    assert_eq!(served, 1, "exactly one request served per round");
    assert!(answered, "request answered");
    assert_eq!(resp.id, Some(id), "response matches request");
}

/// The three drivers.
#[derive(Clone, Copy)]
enum Op {
    Get,
    BatchGet,
    Put,
}

impl Op {
    /// Report order.
    const ALL: [Op; 3] = [Op::Get, Op::BatchGet, Op::Put];

    fn label(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::BatchGet => "batch_get",
            Op::Put => "put",
        }
    }
}

const HOT_KEY: &[u8] = b"hotpath-key";

/// The request inputs every kind shares.
struct Inputs<'a> {
    value: &'a [u8],
    /// Batched keys; they share the hot key's value size.
    batch: &'a [&'a [u8]],
}

/// One kind's warm client/server pair.
struct Rig {
    client: KvClient,
    server: KvServer,
    /// The one Response for the whole kind: its value buffers reach batch
    /// capacity during warmup and are reused every round after.
    resp: Response,
}

impl Rig {
    /// Builds the pair, preloads the batch keys and then the hot key, and
    /// warms every driver.
    fn warm(params: &HotpathParams, kind: SerKind, inputs: &Inputs) -> Rig {
        let (client, server) = fixture(kind);
        let mut rig = Rig {
            client,
            server,
            resp: Response::default(),
        };
        for name in inputs.batch.iter().chain([&HOT_KEY]) {
            let id = rig.client.send_put(name, inputs.value);
            rig.server.poll();
            assert!(
                rig.client.recv_response_into(&mut rig.resp),
                "preload put answered"
            );
            assert_eq!(rig.resp.id, Some(id));
        }
        for _ in 0..params.warmup {
            for op in Op::ALL {
                rig.window(op, inputs, 1);
            }
        }
        rig
    }

    /// Times `rounds` round trips of driver `op`.
    fn window(&mut self, op: Op, inputs: &Inputs, rounds: u64) -> RoundTimer {
        let Rig {
            client,
            server,
            resp,
        } = self;
        let mut t = RoundTimer::new();
        match op {
            Op::Get => {
                for _ in 0..rounds {
                    timed_round(client, server, &mut t, resp, |c| c.send_get(&[HOT_KEY]));
                }
            }
            Op::BatchGet => {
                for _ in 0..rounds {
                    timed_round(client, server, &mut t, resp, |c| c.send_get(inputs.batch));
                }
            }
            Op::Put => {
                for _ in 0..rounds {
                    timed_round(client, server, &mut t, resp, |c| {
                        c.send_put(HOT_KEY, inputs.value)
                    });
                }
            }
        }
        t
    }
}

fn report_json(r: &HotpathReport) -> String {
    let mut kinds = String::new();
    for (i, k) in r.kinds.iter().enumerate() {
        let ops: Vec<String> = k
            .ops
            .iter()
            .map(|o| {
                format!(
                    "      {{\"op\": \"{}\", \"ns_per_op\": {:.1}, \"ns_min\": {:.1}, \
                     \"ns_max\": {:.1}, \"allocs_per_op\": {:.4}, \
                     \"encode_ns_per_op\": {:.1}, \"serve_ns_per_op\": {:.1}, \
                     \"recv_ns_per_op\": {:.1}}}",
                    o.op,
                    o.ns_per_op,
                    o.ns_min,
                    o.ns_max,
                    o.allocs_per_op,
                    o.encode_ns_per_op,
                    o.serve_ns_per_op,
                    o.recv_ns_per_op
                )
            })
            .collect();
        kinds.push_str(&format!(
            "    {{\"kind\": \"{}\", \"ops\": [\n{}\n    ]}}{}\n",
            k.kind,
            ops.join(",\n"),
            if i + 1 < r.kinds.len() { "," } else { "" }
        ));
    }
    format!(
        "{{\n  \"experiment\": \"hotpath\",\n  \"rounds\": {},\n  \"reps\": {},\n  \
         \"warmup\": {},\n  \"value_bytes\": {},\n  \"alloc_counted\": {},\n  \
         \"kinds\": [\n{}  ]\n}}\n",
        r.rounds, REPS, r.warmup, r.value_bytes, r.alloc_counted, kinds
    )
}

/// Runs the microbenchmark, prints the table, writes `hotpath.json`.
pub fn run(params: &HotpathParams) -> HotpathReport {
    let value = vec![0x5A_u8; params.value_bytes];
    let batch_names: Vec<Vec<u8>> = (0..params.batch_keys)
        .map(|i| format!("hotpath-batch-{i:04}").into_bytes())
        .collect();
    let batch: Vec<&[u8]> = batch_names.iter().map(Vec::as_slice).collect();
    let inputs = Inputs {
        value: &value,
        batch: &batch,
    };
    let mut rigs: Vec<Rig> = KINDS
        .iter()
        .map(|(kind, _)| Rig::warm(params, *kind, &inputs))
        .collect();
    // windows[kind][op]: one timer per rep, interleaved so host drift
    // lands on every kind and op alike.
    let mut windows: Vec<Vec<Vec<RoundTimer>>> = rigs
        .iter()
        .map(|_| Op::ALL.iter().map(|_| Vec::new()).collect())
        .collect();
    for _ in 0..REPS {
        for (rig, per_op) in rigs.iter_mut().zip(&mut windows) {
            for (op, w) in Op::ALL.into_iter().zip(per_op.iter_mut()) {
                w.push(rig.window(op, &inputs, params.rounds));
            }
        }
    }
    let report = HotpathReport {
        rounds: params.rounds,
        warmup: params.warmup,
        value_bytes: params.value_bytes,
        alloc_counted: alloc_counting_active(),
        kinds: KINDS
            .iter()
            .zip(&mut windows)
            .map(|((_, label), per_op)| KindReport {
                kind: label,
                ops: Op::ALL
                    .into_iter()
                    .zip(per_op.iter_mut())
                    .map(|(op, w)| RoundTimer::stats(op.label(), w, params.rounds))
                    .collect(),
            })
            .collect(),
    };

    let mut rows = Vec::new();
    for k in &report.kinds {
        for o in &k.ops {
            rows.push(vec![
                k.kind.to_string(),
                o.op.to_string(),
                format!("{:.0}", o.ns_per_op),
                format!("{:.0}-{:.0}", o.ns_min, o.ns_max),
                if report.alloc_counted {
                    format!("{:.2}", o.allocs_per_op)
                } else {
                    "n/a".to_string()
                },
                format!("{:.0}", o.encode_ns_per_op),
                format!("{:.0}", o.serve_ns_per_op),
                format!("{:.0}", o.recv_ns_per_op),
            ]);
        }
    }
    print_table(
        "Hot path: median ns/op of the windows and allocs/op per round trip (real time)",
        &[
            "kind",
            "op",
            "ns/op",
            "min-max",
            "allocs/op",
            "encode",
            "serve",
            "recv",
        ],
        &rows,
    );

    match write_json_artifact("hotpath", &report_json(&report)) {
        Ok(path) => println!("  artifact: {}", path.display()),
        Err(e) => eprintln!("  artifact write failed: {e}"),
    }
    report
}

/// Stray-allocation budget per measured window: a handful of one-off
/// allocations per window (lazy runtime init, hash-seed-dependent rehash
/// timing, amortized container doubling that happens to land inside the
/// window) is a *fixed* count, not a per-request cost, so the floor's
/// slack is `STRAY_ALLOC_BUDGET / rounds` — it shrinks as the windows grow.
/// Any structural regression costs at least one allocation per request,
/// orders of magnitude above this budget, and still trips.
const STRAY_ALLOC_BUDGET: f64 = 16.0;

/// Compares a fresh report against the committed `BENCH_hotpath.json`
/// baseline. Returns every violation found (empty = ratchet holds).
///
/// - **allocs/op is a hard floor** (modulo [`STRAY_ALLOC_BUDGET`] one-off
///   allocations per window): the driver is deterministic, so any
///   per-request rise over the baseline is a regression. Only enforced
///   when both the baseline and the current run actually counted
///   allocations.
/// - **median ns/op gets `tolerance`** (a multiplier, e.g. 2.0): wall
///   clocks differ across machines, so the gate catches structural
///   regressions, not scheduler noise.
/// - A kind/op present in the baseline but missing from the current run is
///   a violation — coverage only ratchets up.
pub fn ratchet(current: &HotpathReport, baseline_json: &str, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let baseline = match cf_telemetry::json::parse(baseline_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let base_counted = matches!(
        baseline.get("alloc_counted"),
        Some(cf_telemetry::json::Value::Bool(true))
    );
    let enforce_allocs = base_counted && current.alloc_counted;
    let alloc_slack = STRAY_ALLOC_BUDGET / current.rounds.max(1) as f64;

    let kinds = baseline
        .get("kinds")
        .and_then(|v| v.as_arr().map(<[_]>::to_vec))
        .unwrap_or_default();
    if kinds.is_empty() {
        violations.push("baseline has no kinds".to_string());
    }
    for bk in &kinds {
        let kind = bk.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
        let Some(ck) = current.kinds.iter().find(|k| k.kind == kind) else {
            violations.push(format!("kind {kind} present in baseline, missing from run"));
            continue;
        };
        for bo in bk.get("ops").and_then(|v| v.as_arr()).unwrap_or(&[]).iter() {
            let op = bo.get("op").and_then(|v| v.as_str()).unwrap_or("?");
            let Some(co) = ck.ops.iter().find(|o| o.op == op) else {
                violations.push(format!("{kind}.{op} present in baseline, missing from run"));
                continue;
            };
            let base_ns = bo.get("ns_per_op").and_then(|v| v.as_f64()).unwrap_or(0.0);
            if base_ns > 0.0 && co.ns_per_op > base_ns * tolerance {
                violations.push(format!(
                    "{kind}.{op}: ns/op regressed {:.0} -> {:.0} (> {tolerance:.2}x tolerance)",
                    base_ns, co.ns_per_op
                ));
            }
            if enforce_allocs {
                let base_allocs = bo
                    .get("allocs_per_op")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                if co.allocs_per_op > base_allocs + alloc_slack {
                    violations.push(format!(
                        "{kind}.{op}: allocs/op rose {:.4} -> {:.4} (hard floor)",
                        base_allocs, co.allocs_per_op
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_all_kinds_and_ops() {
        let report = run(&HotpathParams {
            warmup: 16,
            rounds: 64,
            ..HotpathParams::quick()
        });
        assert_eq!(report.kinds.len(), 4);
        for k in &report.kinds {
            let labels: Vec<_> = k.ops.iter().map(|o| o.op).collect();
            assert_eq!(labels, ["get", "batch_get", "put"], "kind {}", k.kind);
            for o in &k.ops {
                assert!(o.ns_per_op > 0.0, "{}:{} measured nothing", k.kind, o.op);
                assert!(o.ns_min <= o.ns_per_op && o.ns_per_op <= o.ns_max);
                let segments = o.encode_ns_per_op + o.serve_ns_per_op + o.recv_ns_per_op;
                assert!((segments - o.ns_per_op).abs() < 1e-6, "segments telescope");
            }
        }
        // The lib test binary keeps the system allocator.
        assert!(!report.alloc_counted);
        let json = report_json(&report);
        cf_telemetry::json::validate(&json).expect("artifact is valid JSON");
    }
}

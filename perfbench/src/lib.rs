//! Host-clock benchmark of the Cornflakes stack.
//!
//! Each workload is a closed loop — one outstanding request per
//! connection — with the clients, the simulated NICs and the server in one
//! process on one thread:
//!
//! - `twitter_udp`: one cornflakes [`cf_kv::server::KvServer`] over UDP
//!   serving the synthetic Twitter trace from a keyspace larger than the
//!   host's caches. Per-packet cost sets p50, per-byte cost (8 KB values
//!   through gather and FCS) sets p99.
//! - `cdn_tcp`: a [`cf_kv::tcp_server::TcpKvServer`] on the flow-table
//!   listener serving read-only GETs of ≤8 KB CDN sub-objects to a few
//!   `TcpKvClient` connections in lockstep. Per-byte cost and all-zero-copy
//!   replies dominate; no UDP, cluster or store-put code runs.
//! - `cluster_rw`: a 3-node R=3 [`cf_cluster::Cluster`] with one quorum-read
//!   client, half puts, small values over a cache-resident Zipf keyspace.
//!   Per-packet and write work dominate: replication fan-out, store
//!   overwrite, dedup and versioning.
//!
//! Set-up builds the fixture, preloads the store, generates the op stream
//! from the seed, and runs the virtual-clock phases (saturated and open
//! loop, via [`cf_sim::OpenLoopSim`]) that double as warm-up. The timed
//! window then only calls the program: [`probe::Probe`] times each call and
//! the oracle checks every reply between calls.
//!
//! With tracing on, the window alternates traced and untraced blocks of
//! steps: traced blocks record a span per call and give per-layer self
//! times, and the two kinds of block together give the tracing overhead.

pub mod cdn_tcp;
pub mod cluster_rw;
pub mod oracle;
pub mod probe;
pub mod twitter_udp;

use std::time::{Duration, Instant};

use cf_nic::NicStats;
use cf_sim::{Category, OpenLoopSim, Sim};

use crate::oracle::Mismatch;
use crate::probe::{Layer, Probe};

/// A [`Category`] label as a metric-name component (`serialize(copy)` →
/// `serialize_copy`).
fn category_name(c: Category) -> String {
    c.label().replace('(', "_").replace(')', "")
}

/// Workload names.
pub const WORKLOADS: &[&str] = &["twitter_udp", "cdn_tcp", "cluster_rw"];

/// How large a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A few thousand keys and ops, for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Size of the fixture and op stream.
    pub scale: Scale,
    /// Corrupts the reply to this timed op before the oracle sees it (the
    /// oracle's own tests).
    pub corrupt_op: Option<u64>,
}

/// Cumulative counts read from the program's public stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Summed over every NIC in the fixture.
    pub nic: NicStats,
    /// Puts the server(s) applied (replicas included).
    pub puts_applied: u64,
    /// Replies the server(s) flagged `DEGRADED`.
    pub degraded: u64,
    /// Frames through the TCP hub, both directions.
    pub tcp_frames: u64,
    /// TCP segments retransmitted, every endpoint.
    pub tcp_retransmits: u64,
    /// Frames the cluster switch forwarded.
    pub switch_frames: u64,
    /// `REPL_PUT`s applied by backups.
    pub repl_applies: u64,
    /// Quorum GETs the cluster client issued.
    pub quorum_reads: u64,
    /// Replica rotations by the cluster client.
    pub failovers: u64,
}

/// Field-wise sum of two NICs' stats.
pub fn add_nic(a: NicStats, b: NicStats) -> NicStats {
    NicStats {
        tx_frames: a.tx_frames + b.tx_frames,
        tx_bytes: a.tx_bytes + b.tx_bytes,
        tx_sg_entries: a.tx_sg_entries + b.tx_sg_entries,
        doorbells: a.doorbells + b.doorbells,
        completions: a.completions + b.completions,
        rx_frames: a.rx_frames + b.rx_frames,
        rx_bytes: a.rx_bytes + b.rx_bytes,
        rx_nobuf_drops: a.rx_nobuf_drops + b.rx_nobuf_drops,
        rx_backlog_drops: a.rx_backlog_drops + b.rx_backlog_drops,
    }
}

/// Workload properties as the oracle saw them, cumulative.
#[derive(Clone, Copy, Debug, Default)]
pub struct Props {
    /// GETs completed.
    pub gets: u64,
    /// GETs whose value is ≥512 B (the zero-copy side of the hybrid
    /// threshold).
    pub big_gets: u64,
    /// Puts completed.
    pub puts: u64,
    /// Value bytes returned by GETs plus value bytes put.
    pub value_bytes: u64,
    /// Distinct keys touched, set-up included.
    pub distinct_keys: u64,
}

/// Failures seen by the oracle.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops whose reply failed the oracle.
    pub failed: u64,
    /// The first failure, for the report.
    pub first: Option<(u64, Mismatch)>,
}

impl Outcome {
    /// Records the oracle's verdict on op `op`.
    pub fn note(&mut self, op: u64, verdict: Result<(), Mismatch>) {
        if let Err(m) = verdict {
            self.failed += 1;
            self.first.get_or_insert((op, m));
        }
    }
}

/// A workload fixture driven by the runner.
pub trait Workload {
    /// Ops each [`Workload::step`] completes.
    fn ops_per_step(&self) -> u64;
    /// Runs one closed-loop step whose first op has id `op`: issues the
    /// next request on every connection, drives the program until each is
    /// answered, and checks every reply. The reply to op `corrupt`, if it
    /// is one of this step's, is corrupted before the oracle sees it.
    /// Returns reply payload bytes.
    fn step(&mut self, op: u64, corrupt: Option<u64>, probe: &mut Probe, out: &mut Outcome) -> u64;
    /// The virtual clock whose advance is the served work.
    fn sim(&self) -> &Sim;
    /// Counters from the program's public stats.
    fn counters(&mut self) -> Counters;
    /// What the oracle has seen so far.
    fn props(&self) -> Props;
    /// Registered pinned-pool bytes across the fixture.
    fn pool_bytes(&self) -> u64;
    /// The virtual-clock phases: steps at saturation, and the open-loop
    /// offered rate (steps per virtual second) and window.
    fn virt_plan(&self) -> VirtPlan;
}

/// Sizes of the virtual-clock set-up phases. Each workload's open-loop
/// rate is fixed at about 60% of the saturated capacity its cost model
/// gives, so `sim.virt_p99_us` includes queueing without an unbounded
/// backlog.
#[derive(Clone, Copy, Debug)]
pub struct VirtPlan {
    /// Back-to-back steps for `sim.virt_krps` and the per-category split.
    pub saturated_steps: u64,
    /// Offered steps per virtual second for `sim.virt_p99_us`.
    pub open_rate: f64,
    /// Virtual window of the open-loop phase.
    pub open_window_ns: u64,
}

/// Builds workload `cfg.workload` (preload and op stream included).
pub fn build(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "twitter_udp" => Box::new(twitter_udp::TwitterUdp::build(cfg)),
        "cdn_tcp" => Box::new(cdn_tcp::CdnTcp::build(cfg)),
        "cluster_rw" => Box::new(cluster_rw::ClusterRw::build(cfg)),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

/// Deterministic virtual-clock results of one set-up.
#[derive(Clone, Debug, Default)]
struct VirtResult {
    ns_per_op: Vec<(Category, f64)>,
    krps: f64,
    p99_us: f64,
}

/// Runs the virtual-clock phases on a fresh fixture. They are also the
/// warm-up: pools, scratch and the store reach their steady state.
fn warm(w: &mut dyn Workload, seed: u64, out: &mut Outcome) -> VirtResult {
    let plan = w.virt_plan();
    let sim = w.sim().clone();
    let mut probe = Probe::new();
    let ol = OpenLoopSim {
        clock: sim.clock(),
        seed,
        one_way_wire_ns: 5_000,
        duration_ns: plan.open_window_ns,
        warmup_requests: 0,
    };
    let per_step = w.ops_per_step();
    let mut op = 0u64;
    let before = sim.attribution();
    let sat = ol.run_saturated(plan.saturated_steps, |_| {
        let b = w.step(op, None, &mut probe, out);
        op += per_step;
        b
    });
    let after = sim.attribution();
    let ops = (plan.saturated_steps * per_step) as f64;
    let ns_per_op = Category::all()
        .iter()
        .map(|&c| (c, (after.get(c) - before.get(c)) / ops))
        .collect();
    let open = ol.run(plan.open_rate, |_| {
        let b = w.step(op, None, &mut probe, out);
        op += per_step;
        b
    });
    VirtResult {
        ns_per_op,
        krps: sat.achieved_rps * per_step as f64 / 1e3,
        p99_us: open.p99_ns() as f64 / 1e3,
    }
}

/// Set-ups per untraced run, each in its own process; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 5;
/// Steps per block of the timed window (the deadline is checked between
/// blocks, and traced runs alternate traced and untraced blocks).
const BLOCK_STEPS: u64 = 128;

/// One run's result.
#[derive(Debug)]
pub struct Report {
    /// Every reply passed the oracle.
    pub correct: bool,
    /// Ops timed.
    pub attempted: u64,
    /// Ops that failed the oracle, set-up included.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// Metrics in output order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Retained spans as Chrome trace JSON (traced runs).
    pub spans_json: Option<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    cf_telemetry::json::num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Set-up alone: builds and warms the fixture, returning its seconds
/// (the extra set-ups behind `setup_s`).
pub fn setup_seconds(cfg: &Config) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut w = build(cfg)?;
    let mut outcome = Outcome::default();
    warm(w.as_mut(), cfg.seed, &mut outcome);
    let secs = t0.elapsed().as_secs_f64();
    match outcome.first {
        None => Ok(secs),
        Some((op, m)) => Err(format!("set-up op {op} failed the oracle: {m:?}")),
    }
}

/// Latency samples of one kind of block.
#[derive(Default)]
struct Window {
    ops: u64,
    prog_ns: u64,
    lat_ns: Vec<u32>,
}

impl Window {
    fn rps(&self) -> f64 {
        self.ops as f64 / (self.prog_ns.max(1) as f64 / 1e9)
    }
}

/// The `q` quantile of sorted `v` (nearest rank).
fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process high-water RSS in MiB (`VmHWM`), 0 where unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host ns per op of sealing and checking this run's frames:
/// [`cf_nic::frame_fcs`] timed over frames of the run's mean length, twice
/// per frame (seal on transmit, check on receive).
fn fcs_ns_per_op(frames_per_op: f64, mean_frame_len: usize) -> f64 {
    if frames_per_op == 0.0 || mean_frame_len == 0 {
        return 0.0;
    }
    let frame: Vec<u8> = (0..mean_frame_len).map(|i| (i * 31) as u8).collect();
    let mut calls = 0u64;
    let mut acc = 0u32;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(50) {
        for _ in 0..64 {
            acc ^= cf_nic::frame_fcs(std::hint::black_box(&frame));
        }
        calls += 64;
    }
    let per_call = t0.elapsed().as_nanos() as f64 / calls as f64;
    std::hint::black_box(acc);
    per_call * frames_per_op * 2.0
}

/// Runs one workload: set-up, then the timed window.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut outcome = Outcome::default();
    let t0 = Instant::now();
    let mut w = build(cfg)?;
    let virt = warm(w.as_mut(), cfg.seed, &mut outcome);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut probe = Probe::new();
    let mut blocks = [Window::default(), Window::default()];
    let c0 = w.counters();
    let p0 = w.props();
    let per_step = w.ops_per_step();
    let setup_failed = outcome.failed;
    let mut timed_out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut op = 0u64;
    let mut block = 0u64;
    loop {
        let traced = cfg.trace && block % 2 == 1;
        probe.set_tracing(traced);
        let win = &mut blocks[usize::from(traced)];
        for _ in 0..BLOCK_STEPS {
            let p = probe.prog_ns;
            probe.begin_op(op);
            w.step(op, cfg.corrupt_op, &mut probe, &mut timed_out);
            probe.end_op(per_step);
            let lat = u32::try_from(probe.prog_ns - p).unwrap_or(u32::MAX);
            win.ops += per_step;
            win.prog_ns += probe.prog_ns - p;
            for _ in 0..per_step {
                win.lat_ns.push(lat);
            }
            op += per_step;
        }
        block += 1;
        if Instant::now() >= deadline && (!cfg.trace || block >= 2) {
            break;
        }
    }
    let c1 = w.counters();
    let p1 = w.props();
    let ops = op;
    let failed = setup_failed + timed_out.failed;
    let first_failure = outcome
        .first
        .or(timed_out.first)
        .map(|(op, m)| format!("op {op}: {m:?}"));

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    if !cfg.trace {
        let win = &mut blocks[0];
        win.lat_ns.sort_unstable();
        put("setup_s", setup_s, "s");
        put("host_rps", win.rps(), "1/s");
        put("host_p50_us", quantile(&win.lat_ns, 0.50) / 1e3, "us");
        put("host_p99_us", quantile(&win.lat_ns, 0.99) / 1e3, "us");
        put("peak_rss_mib", peak_rss_mib(), "MiB");
    } else {
        let per_op = |v: u64| v as f64 / ops as f64;
        let traced_ops = probe.traced_ops.max(1) as f64;
        for l in Layer::ALL {
            put(
                l.metric(),
                probe.self_ns[l.index()] as f64 / traced_ops,
                "ns/op",
            );
        }
        let puts = p1.puts - p0.puts;
        let gets = p1.gets - p0.gets;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let tx_frames = c1.nic.tx_frames - c0.nic.tx_frames;
        let tx_bytes = c1.nic.tx_bytes - c0.nic.tx_bytes;
        put(
            "kv.puts_applied_per_op",
            per_op(c1.puts_applied - c0.puts_applied),
            "count/op",
        );
        put(
            "kv.degraded_per_op",
            per_op(c1.degraded - c0.degraded),
            "count/op",
        );
        put(
            "net.tcp_frames_per_op",
            per_op(c1.tcp_frames - c0.tcp_frames),
            "count/op",
        );
        put(
            "net.tcp_retransmits",
            (c1.tcp_retransmits - c0.tcp_retransmits) as f64,
            "count",
        );
        put("nic.tx_frames_per_op", per_op(tx_frames), "count/op");
        put("nic.tx_bytes_per_op", per_op(tx_bytes), "bytes/op");
        put(
            "nic.sg_entries_per_op",
            per_op(c1.nic.tx_sg_entries - c0.nic.tx_sg_entries),
            "count/op",
        );
        put(
            "nic.doorbells_per_op",
            per_op(c1.nic.doorbells - c0.nic.doorbells),
            "count/op",
        );
        let mean_frame = tx_bytes.checked_div(tx_frames).unwrap_or(0) as usize;
        put(
            "nic.fcs_ns_per_op",
            fcs_ns_per_op(per_op(tx_frames), mean_frame),
            "ns/op",
        );
        put(
            "cluster.switch_frames_per_op",
            per_op(c1.switch_frames - c0.switch_frames),
            "count/op",
        );
        put(
            "cluster.repl_applies_per_put",
            ratio(c1.repl_applies - c0.repl_applies, puts),
            "count/op",
        );
        put(
            "cluster.quorum_reads_per_get",
            ratio(c1.quorum_reads - c0.quorum_reads, gets),
            "count/op",
        );
        put(
            "cluster.failovers",
            (c1.failovers - c0.failovers) as f64,
            "count",
        );
        put("mem.allocs_per_op", per_op(probe.allocs), "count/op");
        put("mem.pool_bytes_in_use", w.pool_bytes() as f64, "bytes");
        put("sim.virt_krps", virt.krps, "krps");
        put("sim.virt_p99_us", virt.p99_us, "us");
        put(
            "wl.zero_copy_share",
            ratio(p1.big_gets - p0.big_gets, gets),
            "share",
        );
        put("wl.put_share", per_op(puts), "share");
        put(
            "wl.mean_value_bytes",
            per_op(p1.value_bytes - p0.value_bytes),
            "bytes/op",
        );
        put("wl.distinct_keys", p1.distinct_keys as f64, "count");
        let (untraced, traced) = (blocks[0].rps(), blocks[1].rps());
        put("trace.host_rps_traced", traced, "1/s");
        put("trace.host_rps_untraced", untraced, "1/s");
        put("trace.overhead_share", 1.0 - traced / untraced, "share");
        for (c, v) in &virt.ns_per_op {
            metrics.push((
                format!("sim.virt_ns_per_op.{}", category_name(*c)),
                *v,
                "ns/op",
            ));
        }
    }
    Ok(Report {
        correct: failed == 0,
        attempted: ops,
        failed,
        first_failure,
        metrics,
        spans_json: cfg.trace.then(|| probe.spans_json()),
    })
}

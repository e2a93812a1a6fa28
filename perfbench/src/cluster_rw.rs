//! `cluster_rw`: a 3-node, R=3 `Cluster` with one `ClusterClient` reading
//! in `ReadMode::Quorum`; half the ops are puts of Google-distributed field
//! sizes over a small Zipf keyspace.

use cf_cluster::{Cluster, ClusterClient, ClusterConfig, ReadMode};
use cf_kv::client::{Response, RetryConfig};
use cf_nic::NicStats;
use cf_sim::rng::SplitMix64;
use cf_sim::{MachineProfile, Sim};
use cf_workloads::{key_string, GoogleSizeDist, Zipf};

use crate::oracle::{self, Fills, Mismatch, Reply, Shadow};
use crate::probe::{Layer, Probe};
use crate::{add_nic, Config, Counters, Outcome, Props, Scale, VirtPlan, Workload};

/// Share of ops that are puts.
const PUT_SHARE: f64 = 0.5;
/// Zipf exponent of key popularity.
const THETA: f64 = 0.99;
/// Largest field size the Google distribution draws.
const MAX_VALUE: usize = 8192;
/// `Cluster::poll` rounds before an unanswered request counts as timed
/// out.
const MAX_ROUNDS: usize = 8;

/// Fixture sizes: (keys, op stream length).
fn sizes(scale: Scale) -> (u64, usize) {
    match scale {
        // A few MiB of values: resident in the host's caches.
        Scale::Full => (4_096, 1 << 19),
        Scale::Tiny => (256, 2_048),
    }
}

#[derive(Clone, Copy, Debug)]
struct Op {
    key: u32,
    /// Put size; 0 for a GET.
    put_len: u32,
}

/// The fixture; see the module docs.
pub struct ClusterRw {
    cluster: Cluster,
    client: ClusterClient,
    keys: Vec<Vec<u8>>,
    preload_lens: Vec<u32>,
    ops: Vec<Op>,
    pos: usize,
    shadow: Shadow,
    fills: Fills,
    props: Props,
    touched: Vec<bool>,
    scale: Scale,
}

impl ClusterRw {
    /// Builds the cluster and its client, preloads every key on its
    /// replicas, and generates the op stream from `cfg.seed`.
    pub fn build(cfg: &Config) -> Self {
        let (num_keys, stream) = sizes(cfg.scale);
        let sim = Sim::new(MachineProfile::cloudlab_c6525());
        let mut cluster = Cluster::new(
            sim,
            ClusterConfig {
                nodes: 3,
                replication: 3,
                ..ClusterConfig::default()
            },
        );
        let mut client = cluster.client();
        client.set_read_mode(ReadMode::Quorum);
        // Quorum reads fan out through the retransmit machinery.
        client.enable_retries_seeded(cfg.seed, RetryConfig::default());
        let keys: Vec<Vec<u8>> = (0..num_keys)
            .map(|id| key_string(id).into_bytes())
            .collect();
        let preload_lens: Vec<u32> = (0..num_keys)
            .map(|id| GoogleSizeDist::object_for_key(id, 1)[0] as u32)
            .collect();
        for (key, &len) in keys.iter().zip(&preload_lens) {
            cluster.preload(key, &[len as usize]);
        }
        let mut zipf = Zipf::new(num_keys, THETA, cfg.seed);
        let mut coin = SplitMix64::new(cfg.seed ^ 0xC1u64);
        let mut field = GoogleSizeDist::new(1, cfg.seed ^ 0x6006);
        let ops = (0..stream)
            .map(|_| {
                let key = zipf.next() as u32;
                let put_len = if coin.next_bool(PUT_SHARE) {
                    field.sample_field_size() as u32
                } else {
                    0
                };
                Op { key, put_len }
            })
            .collect();
        ClusterRw {
            cluster,
            client,
            shadow: Shadow::new(keys.len()),
            touched: vec![false; keys.len()],
            keys,
            preload_lens,
            ops,
            pos: 0,
            fills: Fills::new(MAX_VALUE),
            props: Props::default(),
            scale: cfg.scale,
        }
    }

    /// One `Cluster::poll` round, call by call: four passes of switch pump
    /// plus every node's poll, then a last pump so replies reach the
    /// client's uplink.
    fn poll_round(&mut self, op: u64, probe: &mut Probe) {
        for _ in 0..4 {
            let switch = self.cluster.switch();
            probe.call(Layer::NicSwitchPump, op, || switch.pump());
            for node in self.cluster.nodes.iter_mut() {
                probe.call(Layer::ClusterNodePoll, op, || node.poll());
            }
        }
        let switch = self.cluster.switch();
        probe.call(Layer::NicSwitchPump, op, || switch.pump());
    }
}

impl Workload for ClusterRw {
    fn ops_per_step(&self) -> u64 {
        1
    }

    fn step(&mut self, op: u64, corrupt: Option<u64>, probe: &mut Probe, out: &mut Outcome) -> u64 {
        let next = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        let k = next.key as usize;
        let put_len = next.put_len as usize;
        let is_put = put_len > 0;
        let fill = if is_put { self.fills.next_fill() } else { 0 };
        let (client, key) = (&mut self.client, self.keys[k].as_slice());
        let id = if is_put {
            let val = self.fills.value(fill, put_len);
            probe.call(Layer::KvClientSend, op, || client.send_put(key, val))
        } else {
            probe.call(Layer::KvClientSend, op, || client.send_get(key))
        };
        let mut resp: Option<Response> = None;
        for _ in 0..MAX_ROUNDS {
            self.poll_round(op, probe);
            let client = &mut self.client;
            resp = probe.call(Layer::KvClientRecv, op, || client.recv_response());
            if resp.is_some() {
                break;
            }
            // Unanswered after a full round: let the client's retransmit
            // timers act, as a deployed client's loop would.
            probe.call(Layer::KvClientRecv, op, || client.poll_timers());
        }
        let verdict = match resp.as_mut() {
            None => Err(Mismatch::Timeout),
            Some(r) => {
                if corrupt == Some(op) {
                    oracle::corrupt(&mut r.id, &mut r.vals);
                }
                let expect = (!is_put).then(|| {
                    self.shadow
                        .expect(k, &self.keys[k], self.preload_lens[k] as usize)
                });
                let reply = Reply {
                    id: r.id,
                    flags: r.flags,
                    vals: &r.vals,
                };
                oracle::check(id, reply, expect)
            }
        };
        if verdict.is_ok() {
            if is_put {
                self.shadow.put(k, fill, put_len);
                self.props.puts += 1;
                self.props.value_bytes += put_len as u64;
            } else {
                let len = resp.as_ref().map_or(0, |r| r.vals[0].len());
                self.props.gets += 1;
                self.props.big_gets += u64::from(len >= 512);
                self.props.value_bytes += len as u64;
            }
        }
        out.note(op, verdict);
        if !std::mem::replace(&mut self.touched[k], true) {
            self.props.distinct_keys += 1;
        }
        resp.map_or(0, |r| r.payload_bytes as u64)
    }

    fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    fn counters(&mut self) -> Counters {
        let nodes = self
            .cluster
            .nodes
            .iter()
            .fold(NicStats::default(), |acc, n| {
                add_nic(acc, n.server.nic().borrow().stats())
            });
        Counters {
            nic: add_nic(nodes, self.client.kv.stack.nic_stats()),
            puts_applied: self.cluster.total_puts_applied(),
            degraded: self
                .cluster
                .nodes
                .iter()
                .map(|n| n.server.degraded_replies())
                .sum(),
            switch_frames: self.cluster.switch().stats().forwarded,
            repl_applies: self.cluster.nodes.iter().map(|n| n.repl_applies()).sum(),
            quorum_reads: self.client.quorum_reads(),
            failovers: self.client.failovers(),
            ..Counters::default()
        }
    }

    fn props(&self) -> Props {
        self.props
    }

    fn pool_bytes(&self) -> u64 {
        let nodes: usize = self
            .cluster
            .nodes
            .iter()
            .flat_map(|n| n.server.shards())
            .map(|s| s.stack.ctx().pool.registered_bytes())
            .sum();
        (nodes + self.client.kv.stack.ctx().pool.registered_bytes()) as u64
    }

    fn virt_plan(&self) -> VirtPlan {
        match self.scale {
            Scale::Full => VirtPlan {
                saturated_steps: 5_000,
                open_rate: 180_000.0,
                open_window_ns: 20_000_000,
            },
            Scale::Tiny => VirtPlan {
                saturated_steps: 200,
                open_rate: 180_000.0,
                open_window_ns: 2_000_000,
            },
        }
    }
}

//! `twitter_udp`: one cornflakes `KvServer` over UDP serving the synthetic
//! Twitter trace (Zipf θ=0.75, 8% puts, ~32% of GET values ≥512 B).

use cf_kv::client::{client_server_pair, KvClient, Response};
use cf_kv::server::{KvServer, SerKind};
use cf_mem::PoolConfig;
use cf_sim::{MachineProfile, Sim};
use cf_workloads::{key_string, TwitterConfig, TwitterOp, TwitterTrace};
use cornflakes_core::SerializationConfig;

use crate::oracle::{self, Fills, Mismatch, Reply, Shadow};
use crate::probe::{Layer, Probe};
use crate::{add_nic, Config, Counters, Outcome, Props, Scale, VirtPlan, Workload};

/// Largest Twitter value (the trace's top size bucket).
const MAX_VALUE: usize = 8192;

/// Fixture sizes: (keys, op stream length).
fn sizes(scale: Scale) -> (u64, usize) {
    match scale {
        // ~150 MiB of pinned values: beyond the host's last-level
        // cache, so store lookups and value reads miss it.
        Scale::Full => (1 << 17, 1 << 20),
        Scale::Tiny => (2_048, 4_096),
    }
}

/// One generated op: key id, and whether it is a put.
#[derive(Clone, Copy, Debug)]
struct Op {
    key: u32,
    put: bool,
}

/// The fixture; see the module docs.
pub struct TwitterUdp {
    server_sim: Sim,
    client: KvClient,
    server: KvServer,
    keys: Vec<Vec<u8>>,
    ops: Vec<Op>,
    pos: usize,
    shadow: Shadow,
    fills: Fills,
    resp: Response,
    props: Props,
    touched: Vec<bool>,
    scale: Scale,
}

impl TwitterUdp {
    /// Builds the client/server pair, preloads every key with its trace
    /// size, and generates the op stream from `cfg.seed`.
    pub fn build(cfg: &Config) -> Self {
        let (num_keys, stream) = sizes(cfg.scale);
        let server_sim = Sim::new(MachineProfile::cloudlab_c6525());
        let pool = PoolConfig {
            min_class: 64,
            max_class: 16 * 1024,
            slots_per_region: 4096,
            max_regions_per_class: 1024,
        };
        let (client, mut server) = client_server_pair(
            server_sim.clone(),
            SerKind::Cornflakes,
            SerializationConfig::hybrid(),
            pool,
        );
        let keys: Vec<Vec<u8>> = (0..num_keys)
            .map(|id| key_string(id).into_bytes())
            .collect();
        for (id, key) in keys.iter().enumerate() {
            let size = TwitterTrace::value_size(id as u64);
            server
                .store
                .preload(server.stack.ctx(), key, &[size])
                .expect("the pool holds the preloaded keyspace");
        }
        let mut trace = TwitterTrace::new(
            TwitterConfig {
                num_keys,
                ..TwitterConfig::default()
            },
            cfg.seed,
        );
        let ops = (0..stream)
            .map(|_| match trace.next() {
                TwitterOp::Get { key } => Op {
                    key: key as u32,
                    put: false,
                },
                TwitterOp::Put { key, .. } => Op {
                    key: key as u32,
                    put: true,
                },
            })
            .collect();
        TwitterUdp {
            server_sim,
            client,
            server,
            shadow: Shadow::new(keys.len()),
            touched: vec![false; keys.len()],
            keys,
            ops,
            pos: 0,
            fills: Fills::new(MAX_VALUE),
            resp: Response::default(),
            props: Props::default(),
            scale: cfg.scale,
        }
    }

    /// Server side of one request: receive until the queue is empty,
    /// handling each packet (`KvServer::poll` without its telemetry span;
    /// transmit batching is off, so there is nothing to flush).
    fn serve(&mut self, op: u64, probe: &mut Probe) {
        loop {
            let stack = &mut self.server.stack;
            let Some(pkt) = probe.call(Layer::NetUdpRecv, op, || stack.recv_packet()) else {
                break;
            };
            let server = &mut self.server;
            probe.call(Layer::KvServerHandle, op, || server.handle(pkt));
        }
    }
}

impl Workload for TwitterUdp {
    fn ops_per_step(&self) -> u64 {
        1
    }

    fn step(&mut self, op: u64, corrupt: Option<u64>, probe: &mut Probe, out: &mut Outcome) -> u64 {
        let next = self.ops[self.pos];
        self.pos = (self.pos + 1) % self.ops.len();
        let k = next.key as usize;
        let size = TwitterTrace::value_size(u64::from(next.key));
        let fill = if next.put { self.fills.next_fill() } else { 0 };
        let (client, key) = (&mut self.client, self.keys[k].as_slice());
        let id = if next.put {
            let val = self.fills.value(fill, size);
            probe.call(Layer::KvClientSend, op, || client.send_put(key, val))
        } else {
            probe.call(Layer::KvClientSend, op, || client.send_get(&[key]))
        };
        self.serve(op, probe);
        let (client, resp) = (&mut self.client, &mut self.resp);
        let answered = probe.call(Layer::KvClientRecv, op, || client.recv_response_into(resp));
        if corrupt == Some(op) {
            oracle::corrupt(&mut self.resp.id, &mut self.resp.vals);
        }
        let verdict = if !answered {
            Err(Mismatch::Timeout)
        } else {
            let expect = (!next.put).then(|| self.shadow.expect(k, &self.keys[k], size));
            let reply = Reply {
                id: self.resp.id,
                flags: self.resp.flags,
                vals: &self.resp.vals,
            };
            oracle::check(id, reply, expect)
        };
        if verdict.is_ok() {
            if next.put {
                self.shadow.put(k, fill, size);
                self.props.puts += 1;
            } else {
                self.props.gets += 1;
                self.props.big_gets += u64::from(size >= 512);
            }
            self.props.value_bytes += size as u64;
        }
        out.note(op, verdict);
        if !std::mem::replace(&mut self.touched[k], true) {
            self.props.distinct_keys += 1;
        }
        self.resp.payload_bytes as u64
    }

    fn sim(&self) -> &Sim {
        &self.server_sim
    }

    fn counters(&mut self) -> Counters {
        Counters {
            nic: add_nic(self.client.stack.nic_stats(), self.server.stack.nic_stats()),
            puts_applied: self.server.puts_applied(),
            degraded: self.server.degraded_replies(),
            ..Counters::default()
        }
    }

    fn props(&self) -> Props {
        self.props
    }

    fn pool_bytes(&self) -> u64 {
        (self.client.stack.ctx().pool.registered_bytes()
            + self.server.stack.ctx().pool.registered_bytes()) as u64
    }

    fn virt_plan(&self) -> VirtPlan {
        match self.scale {
            Scale::Full => VirtPlan {
                saturated_steps: 20_000,
                open_rate: 700_000.0,
                open_window_ns: 20_000_000,
            },
            Scale::Tiny => VirtPlan {
                saturated_steps: 500,
                open_rate: 700_000.0,
                open_window_ns: 1_000_000,
            },
        }
    }
}

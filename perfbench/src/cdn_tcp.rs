//! `cdn_tcp`: a `TcpKvServer` on the flow-table listener serving
//! read-only GETs of ≤8 KB CDN sub-objects to `TcpKvClient` connections
//! through the `PortHub`. Each connection walks objects' sub-objects in
//! order, as `CdnTrace` does; the connections run in lockstep, one
//! outstanding request each.

use std::cell::RefCell;
use std::rc::Rc;

use cf_kv::msg_type;
use cf_kv::tcp_server::{TcpKvClient, TcpKvServer, TcpReply};
use cf_net::{FlowConfig, TcpListener, TcpStack};
use cf_nic::{Nic, NicStats, PortHub};
use cf_sim::{MachineProfile, Sim};
use cf_telemetry::{Telemetry, TelemetryConfig};
use cf_workloads::CdnTrace;
use cornflakes_core::SerializationConfig;

use crate::oracle::{self, Expected, Mismatch, Reply};
use crate::probe::{Layer, Probe};
use crate::{add_nic, Config, Counters, Outcome, Props, Scale, VirtPlan, Workload};

const SERVER_PORT: u16 = 9000;
const FIRST_CLIENT_PORT: u16 = 4000;
/// Connections when the host has the cores for them.
const MAX_CONNS: usize = 2;
/// Settle rounds before an unanswered request counts as timed out.
const MAX_ROUNDS: usize = 16;

/// Fixture sizes: (objects, ops generated per connection).
fn sizes(scale: Scale) -> (u64, usize) {
    match scale {
        Scale::Full => (2_048, 1 << 19),
        Scale::Tiny => (64, 2_048),
    }
}

struct Conn {
    client: TcpKvClient,
    nic: Rc<RefCell<Nic>>,
    /// Sub-object indices this connection requests, in order.
    ops: Vec<u32>,
    /// Outstanding request id and sub-object, while unanswered.
    pending: Option<(u32, u32)>,
    reply: Option<TcpReply>,
}

/// The fixture; see the module docs.
pub struct CdnTcp {
    server_sim: Sim,
    hub: PortHub,
    server: TcpKvServer,
    conns: Vec<Conn>,
    /// Sub-object keys and lengths, indexed by sub-object.
    keys: Vec<Vec<u8>>,
    lens: Vec<u32>,
    pos: usize,
    /// Registry-only telemetry on the server (traced runs): the listener
    /// exposes its NIC and KV counters nowhere else.
    tele: Option<Telemetry>,
    props: Props,
    touched: Vec<bool>,
    scale: Scale,
}

impl CdnTcp {
    /// Builds the listener, hub and connections, preloads every
    /// sub-object, and generates each connection's walk from `cfg.seed`.
    pub fn build(cfg: &Config) -> Self {
        let (objects, stream) = sizes(cfg.scale);
        let server_sim = Sim::new(MachineProfile::cloudlab_c6525());
        let client_sim = Sim::new(MachineProfile::cloudlab_c6525());
        let (server_wire, trunk) = cf_nic::link();
        let mut hub = PortHub::new(trunk);
        let listener = TcpListener::new(
            server_sim.clone(),
            server_wire,
            SERVER_PORT,
            SerializationConfig::hybrid(),
            FlowConfig::default(),
        );
        let mut server = TcpKvServer::new(listener);
        let tele = cfg.trace.then(|| {
            let t = Telemetry::new(server_sim.clock(), TelemetryConfig::default());
            server.set_telemetry(&t);
            t
        });

        let mut first_sub = Vec::with_capacity(objects as usize);
        let mut keys = Vec::new();
        let mut lens = Vec::new();
        for id in 0..objects {
            first_sub.push(keys.len() as u32);
            for seg in 0..CdnTrace::num_segments(id) {
                let key = format!("cdn{id:08}.{seg:06}").into_bytes();
                let len = CdnTrace::segment_size(id, seg);
                server
                    .store
                    .preload(server.listener.ctx(), &key, &[len])
                    .expect("the pool holds the preloaded objects");
                keys.push(key);
                lens.push(len as u32);
            }
        }

        let nconns = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(MAX_CONNS);
        let mut conns = Vec::with_capacity(nconns);
        for c in 0..nconns {
            let port = FIRST_CLIENT_PORT + c as u16;
            let nic = Rc::new(RefCell::new(Nic::new(client_sim.clone(), hub.attach(port))));
            let stack = TcpStack::on_queue(
                client_sim.clone(),
                Rc::clone(&nic),
                0,
                port,
                SerializationConfig::hybrid(),
            );
            let mut client = TcpKvClient::new(stack);
            client.connect(SERVER_PORT).expect("SYN sent");
            hub.pump();
            server.poll().expect("server accepts");
            hub.pump();
            client.poll().expect("client completes the handshake");
            hub.pump();
            server.poll().expect("server sees the ACK");
            assert!(client.is_established(), "connection {c} established");
            let mut trace = CdnTrace::new(objects, cfg.seed ^ (c as u64).wrapping_mul(0x9E37));
            let ops = (0..stream)
                .map(|_| {
                    let (id, seg, _) = trace.next();
                    first_sub[id as usize] + seg as u32
                })
                .collect();
            conns.push(Conn {
                client,
                nic,
                ops,
                pending: None,
                reply: None,
            });
        }
        CdnTcp {
            server_sim,
            hub,
            server,
            conns,
            touched: vec![false; keys.len()],
            keys,
            lens,
            pos: 0,
            tele,
            props: Props::default(),
            scale: cfg.scale,
        }
    }

    /// One settle round: requests reach the server, replies reach the
    /// clients, and the clients' ACKs release the server's tx records.
    fn settle(&mut self, op: u64, probe: &mut Probe) -> Result<(), cf_net::NetError> {
        let (hub, server) = (&mut self.hub, &mut self.server);
        probe.call(Layer::NicHubPump, op, || hub.pump());
        probe.call(Layer::NetTcpServerPoll, op, || server.poll())?;
        probe.call(Layer::NicHubPump, op, || hub.pump());
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let client = &mut conn.client;
            probe.call(Layer::NetTcpClientPoll, op + i as u64, || client.poll())?;
        }
        probe.call(Layer::NicHubPump, op, || hub.pump());
        probe.call(Layer::NetTcpServerPoll, op, || server.poll())?;
        Ok(())
    }
}

impl Workload for CdnTcp {
    fn ops_per_step(&self) -> u64 {
        self.conns.len() as u64
    }

    fn step(&mut self, op: u64, corrupt: Option<u64>, probe: &mut Probe, out: &mut Outcome) -> u64 {
        let pos = self.pos;
        self.pos = (self.pos + 1) % self.conns[0].ops.len();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let sub = conn.ops[pos];
            let (client, key) = (&mut conn.client, self.keys[sub as usize].as_slice());
            match probe.call(Layer::KvClientSend, op + i as u64, || client.get(&[key])) {
                Ok(id) => conn.pending = Some((id, sub)),
                Err(_) => out.note(op + i as u64, Err(Mismatch::Timeout)),
            }
        }
        for _ in 0..MAX_ROUNDS {
            if self.settle(op, probe).is_err() {
                break;
            }
            let mut waiting = false;
            for (i, conn) in self.conns.iter_mut().enumerate() {
                if conn.pending.is_none() || conn.reply.is_some() {
                    continue;
                }
                let client = &mut conn.client;
                conn.reply = probe
                    .call(Layer::KvClientRecv, op + i as u64, || client.recv_reply())
                    .ok()
                    .flatten();
                waiting |= conn.reply.is_none();
            }
            if !waiting {
                break;
            }
        }
        let mut bytes = 0;
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let Some((id, sub)) = conn.pending.take() else {
                continue;
            };
            let op = op + i as u64;
            let len = self.lens[sub as usize] as usize;
            let verdict = match conn.reply.take() {
                None => Err(Mismatch::Timeout),
                Some(mut r) => {
                    if corrupt == Some(op) {
                        let mut rid = Some(r.req_id);
                        oracle::corrupt(&mut rid, &mut r.vals);
                        r.req_id = rid.unwrap_or(0);
                    }
                    bytes += r.vals.iter().map(Vec::len).sum::<usize>() as u64;
                    if r.msg_type != msg_type::GET | msg_type::RESPONSE {
                        Err(Mismatch::MsgType(r.msg_type))
                    } else {
                        let key = &self.keys[sub as usize];
                        let expect = Expected {
                            len,
                            fill: cf_kv::store::KvStore::expected_fill(key, 0),
                        };
                        let reply = Reply {
                            id: Some(r.req_id),
                            flags: r.flags,
                            vals: &r.vals,
                        };
                        oracle::check(id, reply, Some(expect))
                    }
                }
            };
            if verdict.is_ok() {
                self.props.gets += 1;
                self.props.big_gets += u64::from(len >= 512);
                self.props.value_bytes += len as u64;
            }
            out.note(op, verdict);
            if !std::mem::replace(&mut self.touched[sub as usize], true) {
                self.props.distinct_keys += 1;
            }
        }
        bytes
    }

    fn sim(&self) -> &Sim {
        &self.server_sim
    }

    fn counters(&mut self) -> Counters {
        let clients = self.conns.iter().fold(NicStats::default(), |acc, c| {
            add_nic(acc, c.nic.borrow().stats())
        });
        let tele = self.tele.clone().unwrap_or_default();
        let server = NicStats {
            tx_frames: tele.counter_value("nic.tx_frames"),
            tx_bytes: tele.counter_value("nic.tx_bytes"),
            tx_sg_entries: tele.counter_value("nic.tx_sg_entries"),
            doorbells: tele.counter_value("nic.doorbells"),
            ..NicStats::default()
        };
        let hub = self.hub.stats();
        let retransmits = self.server.listener.stats().retransmissions
            + self
                .conns
                .iter()
                .map(|c| c.client.stack.retransmissions())
                .sum::<u64>();
        Counters {
            nic: add_nic(clients, server),
            puts_applied: tele.counter_value("kv.tcp.puts_applied"),
            degraded: tele.counter_value("kv.tcp.degraded_replies"),
            tcp_frames: hub.delivered + hub.uplinked,
            tcp_retransmits: retransmits,
            ..Counters::default()
        }
    }

    fn props(&self) -> Props {
        self.props
    }

    fn pool_bytes(&self) -> u64 {
        let clients: usize = self
            .conns
            .iter()
            .map(|c| c.client.stack.ctx().pool.registered_bytes())
            .sum();
        (clients + self.server.listener.ctx().pool.registered_bytes()) as u64
    }

    fn virt_plan(&self) -> VirtPlan {
        match self.scale {
            Scale::Full => VirtPlan {
                saturated_steps: 2_000,
                open_rate: 300_000.0,
                open_window_ns: 10_000_000,
            },
            Scale::Tiny => VirtPlan {
                saturated_steps: 200,
                open_rate: 300_000.0,
                open_window_ns: 1_000_000,
            },
        }
    }
}

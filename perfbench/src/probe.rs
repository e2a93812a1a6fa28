//! Host-clock instrumentation around every call the benchmark makes into
//! the program.
//!
//! [`Probe::call`] times one call with `Instant` and counts the heap
//! acquisitions it makes, so the benchmark's own work between calls (op
//! generation, reply checking) never lands in a measurement. With tracing
//! on, every call also becomes a span under the current op's root span;
//! spans stay in memory (up to [`SPAN_LOG_CAP`]) and per-layer self time is
//! derived from them when the op ends.

use std::time::Instant;

use cf_telemetry::alloctrack::alloc_count;

/// The program's public entry points the benchmark calls, one per layer
/// boundary. The names are the per-layer metric stems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `KvClient::send_*`, `ClusterClient::send_*`, `TcpKvClient::get`.
    KvClientSend,
    /// `KvClient::recv_response_into`, `ClusterClient::recv_response`,
    /// `TcpKvClient::recv_reply`.
    KvClientRecv,
    /// `KvServer::handle`.
    KvServerHandle,
    /// `UdpStack::recv_packet` on the server.
    NetUdpRecv,
    /// `TcpKvServer::poll`.
    NetTcpServerPoll,
    /// `TcpKvClient::poll`.
    NetTcpClientPoll,
    /// `PortHub::pump`.
    NicHubPump,
    /// `SimSwitch::pump`.
    NicSwitchPump,
    /// `ClusterNode::poll`.
    ClusterNodePoll,
}

/// Number of [`Layer`] variants.
pub const NUM_LAYERS: usize = 9;

impl Layer {
    /// Every layer, in metric order.
    pub const ALL: [Layer; NUM_LAYERS] = [
        Layer::KvClientSend,
        Layer::KvClientRecv,
        Layer::KvServerHandle,
        Layer::NetUdpRecv,
        Layer::NetTcpServerPoll,
        Layer::NetTcpClientPoll,
        Layer::NicHubPump,
        Layer::NicSwitchPump,
        Layer::ClusterNodePoll,
    ];

    /// Per-layer metric name (host ns of self time per op).
    pub fn metric(self) -> &'static str {
        match self {
            Layer::KvClientSend => "kv.client_send_ns",
            Layer::KvClientRecv => "kv.client_recv_ns",
            Layer::KvServerHandle => "kv.server_handle_ns",
            Layer::NetUdpRecv => "net.udp_recv_ns",
            Layer::NetTcpServerPoll => "net.tcp_server_poll_ns",
            Layer::NetTcpClientPoll => "net.tcp_client_poll_ns",
            Layer::NicHubPump => "nic.hub_pump_ns",
            Layer::NicSwitchPump => "nic.switch_pump_ns",
            Layer::ClusterNodePoll => "cluster.node_poll_ns",
        }
    }

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Most spans kept for the trace file; self times are accumulated from
/// every op's spans regardless.
pub const SPAN_LOG_CAP: usize = 200_000;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `start_ns`/`end_ns` are host ns since the probe was
/// created; `parent` indexes the op's root span in the log.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `None` for an op's root span.
    pub layer: Option<Layer>,
    /// Op id the span belongs to.
    pub op: u64,
    /// Index of the parent span in [`Probe::spans`], `u32::MAX` for roots.
    pub parent: u32,
    /// Start, host ns since the probe's epoch.
    pub start_ns: u64,
    /// End, host ns since the probe's epoch.
    pub end_ns: u64,
}

/// Times calls into the program; see the module docs.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    /// Host ns spent inside calls into the program, cumulative.
    pub prog_ns: u64,
    /// Heap acquisitions made inside calls into the program, cumulative.
    pub allocs: u64,
    tracing: bool,
    /// The current op's spans (root first) while tracing.
    op_spans: Vec<Span>,
    /// Scratch: per span of the current op, ns covered by its children.
    child_ns: Vec<u64>,
    /// Retained spans, written out at the end of a traced run.
    pub spans: Vec<Span>,
    /// Self time per layer accumulated over traced ops.
    pub self_ns: [u64; NUM_LAYERS],
    /// Ops whose spans were recorded.
    pub traced_ops: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    /// A probe with tracing off.
    pub fn new() -> Self {
        Probe {
            epoch: Instant::now(),
            prog_ns: 0,
            allocs: 0,
            tracing: false,
            op_spans: Vec::with_capacity(64),
            child_ns: Vec::with_capacity(64),
            spans: Vec::new(),
            self_ns: [0; NUM_LAYERS],
            traced_ops: 0,
        }
    }

    /// Turns span recording on or off (between ops only).
    pub fn set_tracing(&mut self, on: bool) {
        debug_assert!(self.op_spans.is_empty(), "toggle tracing between ops");
        if on && self.spans.capacity() == 0 {
            self.spans.reserve_exact(SPAN_LOG_CAP);
        }
        self.tracing = on;
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Opens the root span of op `op` (tracing only).
    pub fn begin_op(&mut self, op: u64) {
        if self.tracing {
            let now = self.since_epoch(Instant::now());
            self.op_spans.push(Span {
                layer: None,
                op,
                parent: NO_PARENT,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Closes the current op's root span: derives each child's self time
    /// (its duration minus the part its own children cover), adds it to
    /// its layer, and retains the spans while the log has room.
    pub fn end_op(&mut self, ops: u64) {
        if !self.tracing || self.op_spans.is_empty() {
            return;
        }
        self.op_spans[0].end_ns = self.since_epoch(Instant::now());
        self.child_ns.clear();
        self.child_ns.resize(self.op_spans.len(), 0);
        for s in &self.op_spans[1..] {
            self.child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        for (i, s) in self.op_spans.iter().enumerate().skip(1) {
            let own = (s.end_ns - s.start_ns).saturating_sub(self.child_ns[i]);
            if let Some(layer) = s.layer {
                self.self_ns[layer.index()] += own;
            }
        }
        self.traced_ops += ops;
        if self.spans.len() + self.op_spans.len() <= SPAN_LOG_CAP {
            let base = self.spans.len() as u32;
            for s in &self.op_spans {
                let mut s = *s;
                if s.parent != NO_PARENT {
                    s.parent += base;
                }
                self.spans.push(s);
            }
        }
        self.op_spans.clear();
    }

    /// Calls `f`, one call into the program at `layer`, for op `op`.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, op: u64, f: impl FnOnce() -> R) -> R {
        let a0 = alloc_count();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.allocs += alloc_count() - a0;
        self.prog_ns += (t1 - t0).as_nanos() as u64;
        if self.tracing && !self.op_spans.is_empty() {
            let span = Span {
                layer: Some(layer),
                op,
                parent: 0,
                start_ns: self.since_epoch(t0),
                end_ns: self.since_epoch(t1),
            };
            self.op_spans.push(span);
        }
        r
    }

    /// The retained spans as Chrome trace-event JSON (`ph: "X"`, µs).
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = s.layer.map_or("op", Layer::metric);
            let name = name.strip_suffix("_ns").unwrap_or(name);
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {}}}}}{}\n",
                name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_attributed_to_the_called_layer() {
        let mut p = Probe::new();
        p.set_tracing(true);
        p.begin_op(7);
        p.call(Layer::KvClientSend, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        p.call(Layer::KvClientRecv, 7, || ());
        p.end_op(1);
        assert_eq!(p.traced_ops, 1);
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.spans[1].parent, 0);
        let send = p.self_ns[Layer::KvClientSend.index()];
        assert!(send >= 2_000_000, "{send}");
        assert!(p.prog_ns >= send);
        let json = p.spans_json();
        assert!(json.contains("\"kv.client_send\""));
    }

    #[test]
    fn untraced_calls_record_no_spans() {
        let mut p = Probe::new();
        p.begin_op(1);
        p.call(Layer::NetUdpRecv, 1, || ());
        p.end_op(1);
        assert!(p.spans.is_empty());
        assert_eq!(p.traced_ops, 0);
    }
}

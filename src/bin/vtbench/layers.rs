//! Outside-in layer timing for the traced run: each replay calls one public
//! function of a layer over the workload's own completed ops, and spans
//! record where the traced run's wall time went.
//!
//! The event queue is not replayed: its real cost depends on the queue's
//! occupancy over the run, which a synthetic replay cannot reproduce.

use crate::workload::Inputs;
use std::hint::black_box;
use std::time::Instant;
use vt_armci::buffers::{CreditKey, CreditManager};
use vt_armci::{Op, Rank, Sender};
use vt_core::VirtualTopology;
use vt_simnet::{Network, SimTime};

/// One timed replay of a layer's public function.
pub struct Replay {
    /// Calls made.
    pub calls: u64,
    /// When the timed loop started.
    pub from: Instant,
    /// When it ended.
    pub to: Instant,
}

impl Replay {
    /// Mean wall time per call in nanoseconds (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.to - self.from).as_nanos() as f64 / self.calls as f64
        }
    }
}

fn timed(mut body: impl FnMut() -> u64) -> Replay {
    let from = Instant::now();
    let calls = body();
    Replay {
        calls,
        from,
        to: Instant::now(),
    }
}

/// The node pair of every completed CHT-path op between distinct nodes:
/// the ops that route over the virtual topology and draw credits.
fn routed_pairs(inputs: &Inputs, ops: &[(Rank, Op)]) -> Vec<(Rank, u32, u32)> {
    let layout = inputs.layout();
    ops.iter()
        .filter(|(_, op)| !op.kind.is_direct())
        .map(|&(origin, op)| (origin, layout.node_of(origin), layout.node_of(op.target)))
        .filter(|&(_, src, dst)| src != dst)
        .collect()
}

/// `VirtualTopology::next_hop` walks from each routed op's origin node to
/// its target node, counting the final call that reports arrival.
pub fn next_hop(inputs: &Inputs, ops: &[(Rank, Op)]) -> Replay {
    let topo = inputs.cfg.topology.build(inputs.layout().num_nodes());
    let pairs = routed_pairs(inputs, ops);
    timed(|| {
        let mut calls = 0;
        for &(_, src, dst) in &pairs {
            let mut cur = src;
            calls += 1;
            while let Some(next) = black_box(&topo).next_hop(cur, dst) {
                cur = next;
                calls += 1;
            }
        }
        calls
    })
}

/// `Network::send` over every completed op's messages: the request on each
/// LDF hop (or straight to the target for RDMA ops) and the response back.
/// Each op starts 100 ns after the previous one; its hops chain on the
/// previous hop's delivery time.
pub fn send(inputs: &Inputs, ops: &[(Rank, Op)]) -> Replay {
    let layout = inputs.layout();
    let topo = inputs.cfg.topology.build(layout.num_nodes());
    // (src, dst, bytes, first message of its op)
    let mut msgs: Vec<(u32, u32, u64, bool)> = Vec::new();
    for (origin, op) in ops {
        let (src, dst) = (layout.node_of(*origin), layout.node_of(op.target));
        if src == dst {
            continue;
        }
        let path = if op.kind.is_direct() {
            vec![dst]
        } else {
            topo.route(src, dst)
        };
        let mut cur = src;
        for hop in path {
            msgs.push((cur, hop, op.request_bytes(), cur == src));
            cur = hop;
        }
        msgs.push((dst, src, op.response_bytes(), false));
    }
    let mut net = Network::new(inputs.cfg.net, layout.num_nodes());
    timed(|| {
        let (mut op_start, mut now) = (SimTime::ZERO, SimTime::ZERO);
        for &(src, dst, bytes, first) in &msgs {
            if first {
                op_start += SimTime::from_nanos(100);
                now = op_start;
            }
            now = black_box(net.send(now, src, dst, bytes)).at;
        }
        msgs.len() as u64
    })
}

/// `CreditManager::try_acquire` and `release` on every forward edge of
/// every routed op: the origin process's account on the first hop, the
/// forwarding CHT's account on the others.
pub fn credit_pairs(inputs: &Inputs, ops: &[(Rank, Op)]) -> Replay {
    let topo = inputs.cfg.topology.build(inputs.layout().num_nodes());
    let mut keys = Vec::new();
    for (origin, src, dst) in routed_pairs(inputs, ops) {
        let mut cur = src;
        for hop in topo.route(src, dst) {
            let sender = if cur == src {
                Sender::Proc(origin)
            } else {
                Sender::Cht(cur)
            };
            keys.push(CreditKey {
                sender,
                edge: (cur, hop),
                class: 0,
            });
            cur = hop;
        }
    }
    let mut credits = CreditManager::new(inputs.cfg.buffers_per_proc);
    timed(|| {
        for &key in &keys {
            if credits.try_acquire(key) {
                black_box(credits.release(key));
            }
        }
        keys.len() as u64
    })
}

/// A named interval of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// The enclosing span's name (empty for a root).
    pub parent: String,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// A span between two instants, measured from `epoch`.
    pub fn between(name: &str, parent: &str, epoch: Instant, from: Instant, to: Instant) -> Self {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        Span {
            name: name.to_string(),
            parent: parent.to_string(),
            start_ns: ns(from),
            end_ns: ns(to),
        }
    }
}

/// Renders spans as Chrome trace-event JSON (complete `X` events), the
/// format Perfetto and `chrome://tracing` open. Each workload is one track;
/// `round` is the traced round's id, shared by all its spans.
pub fn chrome_trace(tracks: &[(&str, Vec<Span>)], round: usize) -> String {
    let mut events = Vec::new();
    for (tid, (workload, spans)) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{workload}\"}}}}"
        ));
        for s in spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"vtbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\",\"round\":{round}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent,
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

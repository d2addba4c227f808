//! Microbenchmarks for the hot paths of the stack: LDF routing decisions,
//! full-route materialisation, event-queue churn, stream-table touches,
//! credit accounting, physical torus routing and request-tree construction.
//!
//! Self-contained timing (no external harness): each benchmark is warmed
//! up, then run in batches until a time budget is spent, and the median
//! batch rate is reported as ns/iter.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::hint::black_box;
use std::time::{Duration, Instant};
use vt_armci::buffers::{CreditKey, CreditManager};
use vt_armci::{Rank, Sender};
use vt_core::{ldf, RequestTree, Shape, TopologyKind, VirtualTopology};
use vt_simnet::nic::StreamTable;
use vt_simnet::{EventQueue, SimTime, Torus3};

/// Times `f` and prints its median ns/iter over several batches.
fn bench(name: &str, mut f: impl FnMut()) {
    const BATCH: u32 = 1_000;
    let budget = Duration::from_millis(200);
    // Warm-up.
    for _ in 0..BATCH {
        f();
    }
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        rates.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    let median = rates[rates.len() / 2];
    println!(
        "{name:<40} {median:>12.1} ns/iter  ({} batches)",
        rates.len()
    );
}

fn bench_ldf() {
    let mesh = Shape::mesh_for(1024);
    let mut src = 0u32;
    bench("ldf/next_hop/mfcg-1024", || {
        src = (src + 37) % 1024;
        black_box(ldf::next_hop(&mesh, 1024, black_box(src), 0));
    });
    let cube = Shape::cube_for(4096);
    let mut src = 1u32;
    bench("ldf/route/cfcg-4096", || {
        src = (src + 101) % 4096;
        black_box(ldf::route(&cube, 4096, black_box(src), 7));
    });
    let hc = Shape::hypercube_for(4096).unwrap_or_else(|| unreachable!("4096 is a power of two"));
    let mut src = 1u32;
    bench("ldf/route/hypercube-4096", || {
        src = (src + 101) % 4096;
        black_box(ldf::route(&hc, 4096, black_box(src), 0));
    });
}

fn bench_event_queue() {
    bench("event_queue/push-pop-1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum = sum.wrapping_add(e);
        }
        black_box(sum);
    });
    // The classic hold model over 1 000 pending events with the uniform
    // workload's delay mix: half the successors land 0.5–2 ms ahead (NIC
    // receive queues), one in eight is a 5 ms response timer and the rest
    // fall within 100 µs. Past 0.5 ms the coarse tier and its pours do the
    // work.
    let mut q = EventQueue::new();
    let mut x = 1u64;
    let mut delay = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let r = x >> 33;
        SimTime::from_nanos(match r % 8 {
            0..=3 => 500_000 + r % 1_500_000,
            4 => 5_000_000,
            _ => r % 100_000,
        })
    };
    for i in 0..1000u64 {
        q.schedule(delay(), i);
    }
    bench("event_queue/hold-uniform-mix-1k", || {
        let (at, e) = q
            .pop()
            .unwrap_or_else(|| unreachable!("hold keeps 1 000 pending"));
        q.schedule(at + delay(), black_box(e));
    });
}

fn bench_stream_table() {
    let mut t = StreamTable::new(96);
    let mut src = 0u32;
    bench("stream_table/touch-thrash-96", || {
        src = (src + 1) % 200; // more sources than contexts
        black_box(t.touch(black_box(src)));
    });
    let mut t = StreamTable::new(96);
    for s in 0..64 {
        t.touch(s);
    }
    let mut src = 0u32;
    bench("stream_table/touch-hit-96", || {
        src = (src + 1) % 64;
        black_box(t.touch(black_box(src)));
    });
    // 4 096 sources spread over a 262 144-node id space, so nearly every
    // touch misses and evicts the least recent context.
    let mut t = StreamTable::new(96);
    let mut i = 0u32;
    bench("stream_table/touch-wide-96", || {
        i = (i + 1) % 4_096;
        black_box(t.touch(black_box(i * 64 + i % 61)));
    });
    // The in-situ pattern: 4 096 NICs' tables touched round-robin from
    // pseudo-random sources, so each touch finds its table cold in cache.
    let mut tables: Vec<StreamTable> = (0..4_096).map(|_| StreamTable::new(96)).collect();
    let (mut nic, mut x) = (0usize, 1u64);
    bench("stream_table/touch-cold-4096x96", || {
        nic = (nic + 1) % tables.len();
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        black_box(tables[nic].touch(black_box((x >> 52) as u32)));
    });
}

fn bench_credits() {
    let mut cm = CreditManager::new(4);
    let key = CreditKey {
        sender: Sender::Proc(Rank(7)),
        edge: (3, 11),
        class: 0,
    };
    bench("credits/acquire-release", || {
        assert!(cm.try_acquire(black_box(key)));
        cm.release(key);
    });
    // The in-situ pattern: each pair touches a different one of ~300 000
    // (sender, edge) accounts, as the uniform 16K-proc mix does.
    let mut cm = CreditManager::new(4);
    let mut i = 0u32;
    bench("credits/acquire-release-spread", || {
        i = (i + 7_919) % 300_000;
        let key = CreditKey {
            sender: Sender::Proc(Rank(i % 16_384)),
            edge: (i / 16_384, i % 4_096),
            class: 0,
        };
        assert!(cm.try_acquire(black_box(key)));
        cm.release(key);
    });
}

fn bench_torus() {
    let t = Torus3::jaguar();
    let mut a = 0u32;
    bench("torus/route-links-jaguar", || {
        a = (a + 977) % t.len();
        black_box(t.route_links(black_box(a), 9_600));
    });
    let mut a = 0u32;
    bench("torus/hop-count-jaguar", || {
        a = (a + 977) % t.len();
        black_box(t.hop_count(black_box(a), 9_600));
    });
}

fn bench_request_tree() {
    let mfcg = TopologyKind::Mfcg.build(1024);
    bench("request_tree/build-mfcg-1024", || {
        black_box(RequestTree::build(&mfcg, 0));
    });
    let fcg = TopologyKind::Fcg.build(1024);
    bench("out_neighbors/fcg-1024", || {
        black_box(fcg.out_neighbors(512));
    });
}

fn main() {
    bench_ldf();
    bench_event_queue();
    bench_stream_table();
    bench_credits();
    bench_torus();
    bench_request_tree();
}

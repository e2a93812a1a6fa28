//! Virtual time must not depend on where the heap happened to put the
//! cluster's own buffers. The cache model charges by address, so a charge
//! against a heap buffer whose offset within a 64-byte line shifts with
//! earlier allocations (a refcount table, a decoded value copied into a
//! `Vec`) makes the same op stream cost a different number of virtual ns
//! depending on, say, the length of a command-line argument.
//!
//! The op stream's keys and values are allocated once, up front: copies
//! from the caller's own buffers are charged at the caller's addresses by
//! design (where an application keeps its bytes is part of its cost), so
//! only the cluster's allocations move between runs here.

use cf_cluster::{Cluster, ClusterConfig, ReadMode};
use cf_kv::client::RetryConfig;
use cf_sim::cost::Category;
use cf_sim::{MachineProfile, Sim};

const KEYS: usize = 64;
const OPS: usize = 600;

/// Builds a fresh 3-node R=3 cluster, runs the fixed op stream (every
/// third op a put), and returns the bit patterns of the cluster clock's
/// per-category attribution.
fn attribution_after_ops(keys: &[Vec<u8>], vals: &[Vec<u8>]) -> Vec<u64> {
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
    client.enable_retries_seeded(1, RetryConfig::default());
    for (i, key) in keys.iter().enumerate() {
        cluster.preload(key, &[64 + 37 * i]);
    }
    for op in 0..OPS {
        let k = (op * 7) % KEYS;
        let id = if op % 3 == 0 {
            client.send_put(&keys[k], &vals[op % vals.len()])
        } else {
            client.send_get(&keys[k])
        };
        let resp = (0..8).find_map(|_| {
            cluster.poll();
            let resp = client.recv_response();
            client.poll_timers();
            resp
        });
        assert_eq!(resp.and_then(|r| r.id), Some(id), "op {op} answered");
    }
    let attr = cluster.sim().attribution();
    Category::all()
        .iter()
        .map(|&c| attr.get(c).to_bits())
        .collect()
}

#[test]
fn virtual_costs_do_not_depend_on_earlier_heap_allocations() {
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|i| format!("layout-key-{i:05}").into_bytes())
        .collect();
    // Values span the copy and zero-copy paths of the hybrid serializer.
    let vals: Vec<Vec<u8>> = [24usize, 100, 700, 3000]
        .iter()
        .map(|&n| vec![0xA5; n])
        .collect();

    let reference = attribution_after_ops(&keys, &vals);
    assert!(
        reference.iter().any(|&b| b != 0),
        "the op stream costs time"
    );
    // Each junk size shifts every later small allocation by a different
    // amount modulo the 64-byte line.
    for junk_len in [1usize, 8, 17, 24, 40, 57, 100, 4000] {
        let junk: Vec<Vec<u8>> = (1..=junk_len % 7 + 1)
            .map(|n| vec![0u8; junk_len * n])
            .collect();
        let got = attribution_after_ops(&keys, &vals);
        assert_eq!(
            got, reference,
            "attribution moved after {junk_len}-byte junk allocations"
        );
        drop(junk);
    }
}

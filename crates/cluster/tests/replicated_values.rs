//! Every replica stores exactly the bytes the client put, for every
//! serialization kind — including the empty value, which the Protobuf
//! decoder hands back as a heap copy that the replication path moves into
//! a (never empty) pool buffer.

use cf_cluster::{Cluster, ClusterClient, ClusterConfig, ReadMode};
use cf_kv::client::{Response, RetryConfig};
use cf_kv::server::SerKind;
use cf_sim::{MachineProfile, Sim};

const NODES: u8 = 3;

/// Drives one request until it is answered.
fn answer(cluster: &mut Cluster, client: &mut ClusterClient, id: u32) -> Response {
    for _ in 0..200 {
        cluster.poll();
        if let Some(resp) = client.recv_response() {
            assert_eq!(resp.id, Some(id));
            return resp;
        }
        cluster.sim().clock().advance(60_000);
        client.poll_timers();
    }
    panic!("request {id} not answered");
}

#[test]
fn every_replica_returns_the_value_that_was_put() {
    for kind in SerKind::all() {
        for val in [&b""[..], b"v", &[0x5A; 700]] {
            let sim = Sim::new(MachineProfile::tiny_for_tests());
            let mut cluster = Cluster::new(
                sim,
                ClusterConfig {
                    nodes: NODES as usize,
                    replication: NODES as usize,
                    kind,
                    ..ClusterConfig::default()
                },
            );
            let mut client = cluster.client();
            client.set_read_mode(ReadMode::Any);
            client.enable_retries_seeded(
                1,
                RetryConfig {
                    timeout_ns: 120_000,
                    max_retries: 8,
                    max_backoff_ns: 500_000,
                    jitter_seed: None,
                },
            );
            let id = client.send_put(b"key", val);
            let resp = answer(&mut cluster, &mut client, id);
            assert_eq!(
                resp.flags,
                0,
                "{kind:?}: put of {} bytes applied",
                val.len()
            );

            // Read the key from each replica alone.
            for node in 0..NODES {
                for other in (0..NODES).filter(|&n| n != node) {
                    cluster.kill(other);
                }
                let id = client.send_get(b"key");
                let resp = answer(&mut cluster, &mut client, id);
                assert_eq!(
                    resp.vals,
                    [val.to_vec()],
                    "{kind:?}: node {node} holds the {}-byte put",
                    val.len()
                );
                for other in (0..NODES).filter(|&n| n != node) {
                    cluster.revive(other);
                }
            }
        }
    }
}

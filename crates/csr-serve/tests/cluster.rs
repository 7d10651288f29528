//! Cluster-mode end-to-end tests: several real nodes on loopback
//! sockets sharing one membership list, exercised through raw clients
//! (peer forwarding, `MOVED`) and the cluster-routing client (hot-key
//! fan-out, dead-node re-routing), plus the acceptance check that
//! peer-filled entries — charged their *measured* one-hop cost — evict
//! before origin-filled ones under pressure.

use csr_cache::Policy;
use csr_obs::Registry;
use csr_serve::cluster::{ClusterClientConfig, ClusterMetrics, PeerConfig};
use csr_serve::server::{serve, ServerConfig, ServerHandle};
use csr_serve::{Client, ClusterClient, ClusterNode, MemoryBacking, Moved, Ring, SimBacking};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Reserves `n` distinct free loopback ports by binding ephemeral
/// listeners, then releasing them for the servers to claim. Every node
/// must know the *full* membership (real ports included) before any of
/// them starts, so letting `serve` pick port 0 is not an option here.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn membership(addrs: &[String]) -> Vec<ClusterNode> {
    addrs
        .iter()
        .map(|a| ClusterNode::addr_only(a.clone()))
        .collect()
}

/// The ring every participant in these tests agrees on (`PeerConfig` and
/// `ClusterClientConfig` defaults: 64 vnodes, seed 0).
fn default_ring(addrs: &[String]) -> Ring {
    Ring::new(addrs.to_vec(), 64, 0)
}

fn node_config(addr: &str, nodes: Vec<ClusterNode>) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        capacity: 1024,
        shards: Some(4),
        workers: 4,
        idle_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        cluster: Some(PeerConfig {
            node_id: addr.to_owned(),
            nodes,
            ..PeerConfig::default()
        }),
        ..ServerConfig::default()
    }
}

fn stat_of(table: &[(String, String)], name: &str) -> u64 {
    table
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn any_node_answers_any_key_with_one_forwarding_hop() {
    let addrs = reserve_addrs(4);
    let nodes = membership(&addrs);
    let origin = Arc::new(MemoryBacking::new());
    for k in 0..60 {
        origin.put(format!("key-{k}"), format!("value-{k}").into_bytes());
    }
    let handles: Vec<ServerHandle> = addrs
        .iter()
        .map(|a| serve(node_config(a, nodes.clone()), origin.clone()).expect("node starts"))
        .collect();

    let ring = default_ring(&addrs);
    let mut c = Client::connect(addrs[0].as_str()).expect("connect");
    let mut foreign = 0u64;
    for k in 0..60 {
        let key = format!("key-{k}");
        let v = c.get_value(&key).expect("get").expect("present");
        assert_eq!(v.data, format!("value-{k}").into_bytes());
        if ring.owner_index(&key) == 0 {
            assert!(!v.forwarded, "{key} is owned here: no hop to flag");
        } else {
            foreign += 1;
            assert!(
                v.forwarded,
                "{key} lives elsewhere: first read must forward"
            );
        }
    }
    assert!(foreign > 0, "4-node ring left node 0 owning every test key");

    // Forward-and-cache *is* the replication: re-reads are local hits,
    // and the FORWARDED flag (per-request provenance) is gone.
    for k in 0..60 {
        let key = format!("key-{k}");
        let v = c.get_value(&key).expect("get").expect("present");
        assert!(!v.forwarded, "{key} should be a local hit on the re-read");
    }

    let stats = c.stats().expect("stats");
    assert_eq!(stat_of(&stats, "cluster_forwards"), foreign);
    assert_eq!(stat_of(&stats, "cluster_forward_fallbacks"), 0);
    assert_eq!(stat_of(&stats, "cluster_nodes"), 4);
    // Each hop arrived at its owner as exactly one FGET.
    let fgets: u64 = addrs[1..]
        .iter()
        .map(|a| {
            let mut pc = Client::connect(a.as_str()).expect("connect peer");
            stat_of(&pc.stats().expect("peer stats"), "requests_fget")
        })
        .sum();
    assert_eq!(fgets, foreign);
    for h in handles {
        h.shutdown().expect("clean shutdown");
    }
}

#[test]
fn disabled_forwarding_redirects_with_moved() {
    let addrs = reserve_addrs(2);
    let nodes = membership(&addrs);
    let ring = default_ring(&addrs);
    let origin = Arc::new(MemoryBacking::new());
    let foreign_key = (0..)
        .map(|k| format!("key-{k}"))
        .find(|k| ring.owner_index(k) == 1)
        .expect("some key owned by node 1");
    origin.put(foreign_key.clone(), b"elsewhere".to_vec());

    let mut cfg0 = node_config(&addrs[0], nodes.clone());
    cfg0.cluster.as_mut().expect("cluster on").forward = false;
    let h0 = serve(cfg0, origin.clone()).expect("node 0 starts");
    let h1 = serve(node_config(&addrs[1], nodes), origin).expect("node 1 starts");

    let mut c = Client::connect(addrs[0].as_str()).expect("connect");
    let err = c.get(&foreign_key).expect_err("non-owner must redirect");
    let moved = Moved::from_io(&err).expect("typed MOVED error");
    assert_eq!(moved.addr, addrs[1], "redirect must name the owner");
    assert_eq!(stat_of(&c.stats().expect("stats"), "cluster_moved"), 1);

    // The named owner answers the same key locally.
    let mut o = Client::connect(addrs[1].as_str()).expect("connect owner");
    assert_eq!(
        o.get(&foreign_key).expect("owner get").as_deref(),
        Some(&b"elsewhere"[..])
    );
    h0.shutdown().expect("clean shutdown");
    h1.shutdown().expect("clean shutdown");
}

/// The acceptance check for measured hop costs: on a GreedyDual node,
/// entries filled over one cheap loopback hop (~10²µs) must be evicted
/// before entries filled from a slow origin (~2·10⁴µs) when pressure
/// arrives, because the replacement policy ranks by *measured* miss
/// cost — the paper's non-uniform cost regime arising from topology.
#[test]
fn peer_filled_entries_evict_before_origin_filled_ones() {
    let addrs = reserve_addrs(2);
    let nodes = membership(&addrs);
    let ring = default_ring(&addrs);
    // Every origin fetch costs ~20ms, dwarfing a loopback hop: node A's
    // measured miss costs split cleanly into expensive (own origin) and
    // cheap (peer hop into B's warm cache).
    let origin = || {
        Arc::new(SimBacking {
            fast: Duration::from_millis(20),
            slow: Duration::from_millis(20),
            slow_every: 1,
            value_len: 16,
        })
    };
    let mut cfg_a = node_config(&addrs[0], nodes.clone());
    cfg_a.capacity = 16;
    cfg_a.shards = Some(1);
    cfg_a.policy = Policy::Gd;
    let a = serve(cfg_a, origin()).expect("node A starts");
    let b = serve(node_config(&addrs[1], nodes), origin()).expect("node B starts");

    // Split a key stream by ring owner.
    let mut a_keys = Vec::new();
    let mut b_keys = Vec::new();
    for k in 0.. {
        if a_keys.len() >= 14 && b_keys.len() >= 8 {
            break;
        }
        let key = format!("key-{k}");
        if ring.owner_index(&key) == 0 {
            a_keys.push(key);
        } else {
            b_keys.push(key);
        }
    }
    a_keys.truncate(14);
    b_keys.truncate(8);

    // Warm the owner so A's forwarded fetches are hits on B.
    let mut cb = Client::connect(addrs[1].as_str()).expect("connect B");
    for key in &b_keys {
        assert!(cb.get(key).expect("warm B").is_some());
    }

    // Fill A to capacity: 8 cheap peer-filled + 8 expensive origin-filled
    // entries, interleaved.
    let mut ca = Client::connect(addrs[0].as_str()).expect("connect A");
    for i in 0..8 {
        assert!(ca.get(&b_keys[i]).expect("peer fill").is_some());
        assert!(ca.get(&a_keys[i]).expect("origin fill").is_some());
    }
    // Pressure: six more expensive entries force six evictions.
    for key in &a_keys[8..14] {
        assert!(ca.get(key).expect("pressure").is_some());
    }

    // Probe residency: DEL answers DELETED only for cached keys.
    let mut resident =
        |keys: &[String]| -> usize { keys.iter().filter(|k| ca.del(k).expect("probe")).count() };
    let peer_resident = resident(&b_keys);
    let origin_resident = resident(&a_keys[..8]);
    assert_eq!(
        origin_resident, 8,
        "an origin-filled (expensive) entry was evicted while cheap peer-filled ones remained"
    );
    assert_eq!(
        peer_resident, 2,
        "all six evictions should have landed on the cheap peer-filled entries"
    );
    a.shutdown().expect("clean shutdown");
    b.shutdown().expect("clean shutdown");
}

#[test]
fn a_dead_nodes_keys_reroute_and_survivors_fall_back_to_their_origin() {
    let addrs = reserve_addrs(3);
    let nodes = membership(&addrs);
    let origin = Arc::new(MemoryBacking::new());
    for k in 0..40 {
        origin.put(format!("key-{k}"), format!("value-{k}").into_bytes());
    }
    let mut handles: Vec<Option<ServerHandle>> = addrs
        .iter()
        .map(|a| Some(serve(node_config(a, nodes.clone()), origin.clone()).expect("node starts")))
        .collect();

    let registry = Registry::new();
    let metrics = ClusterMetrics::new(&registry);
    let mut client = ClusterClient::new(nodes.clone(), ClusterClientConfig::default())
        .with_metrics(metrics.clone());

    let victim = 2;
    let doomed: Vec<String> = (0..40)
        .map(|k| format!("key-{k}"))
        .filter(|k| client.owner_index(k) == victim)
        .collect();
    assert!(
        !doomed.is_empty(),
        "node {victim} owns none of the test keys"
    );
    handles[victim]
        .take()
        .expect("victim handle")
        .shutdown()
        .expect("victim stops");

    // Every read of a dead node's key still answers, correctly: the
    // client re-routes to a surviving replica, which tries the owner,
    // fails, and falls back to its own origin.
    for key in &doomed {
        let got = client.get(key).expect("rerouted read").expect("present");
        assert_eq!(got, format!("value-{}", &key[4..]).into_bytes());
    }
    assert!(metrics.reroutes.get() > 0, "no reroutes were counted");
    assert!(
        metrics.ring_flips.get() > 0,
        "the dead node never went unhealthy"
    );
    let fallbacks: u64 = client
        .stats_all()
        .iter()
        .map(|(_, t)| stat_of(t, "cluster_forward_fallbacks"))
        .sum();
    assert!(fallbacks > 0, "no survivor fell back to its local origin");
    for h in handles.into_iter().flatten() {
        h.shutdown().expect("clean shutdown");
    }
}

#[test]
fn hot_keys_promote_and_fan_reads_across_replicas() {
    let addrs = reserve_addrs(2);
    let nodes = membership(&addrs);
    let origin = Arc::new(MemoryBacking::new());
    origin.put("hot", b"coal".to_vec());
    let handles: Vec<ServerHandle> = addrs
        .iter()
        .map(|a| serve(node_config(a, nodes.clone()), origin.clone()).expect("node starts"))
        .collect();

    let registry = Registry::new();
    let metrics = ClusterMetrics::new(&registry);
    let config = ClusterClientConfig {
        hot_sample_every: 1,
        hot_threshold: 4,
        hot_decay_every: 0,
        ..ClusterClientConfig::default()
    };
    let mut client = ClusterClient::new(nodes, config).with_metrics(metrics.clone());
    for _ in 0..40 {
        assert_eq!(
            client.get("hot").expect("get").as_deref(),
            Some(&b"coal"[..])
        );
    }
    assert!(
        metrics.hot_key_promotions.get() >= 1,
        "the sketch never promoted a key read 40 times"
    );
    let owner = client.owner_index("hot");
    let replica = 1 - owner;
    let tables = client.stats_all();
    let of = |i: usize, name: &str| {
        tables
            .iter()
            .find(|(j, _)| *j == i)
            .map(|(_, t)| stat_of(t, name))
            .unwrap_or(0)
    };
    assert!(
        of(replica, "requests_get") > 0,
        "hot reads never fanned out to the replica"
    );
    assert!(
        of(owner, "requests_fget") >= 1,
        "the replica should have filled its copy over one FGET hop"
    );
    for h in handles {
        h.shutdown().expect("clean shutdown");
    }
}

#[test]
fn set_invalidates_forwarded_copies_cluster_wide() {
    let addrs = reserve_addrs(2);
    let nodes = membership(&addrs);
    let ring = default_ring(&addrs);
    let origin = Arc::new(MemoryBacking::new());
    let key = (0..)
        .map(|k| format!("key-{k}"))
        .find(|k| ring.owner_index(k) == 1)
        .expect("some key owned by node 1");
    origin.put(key.clone(), b"old".to_vec());
    let handles: Vec<ServerHandle> = addrs
        .iter()
        .map(|a| serve(node_config(a, nodes.clone()), origin.clone()).expect("node starts"))
        .collect();

    // Seed a forwarded copy of the old value on the non-owner.
    let mut c0 = Client::connect(addrs[0].as_str()).expect("connect");
    assert_eq!(c0.get(&key).expect("get").as_deref(), Some(&b"old"[..]));

    // A cluster-routed SET stores on the owner and broadcasts DEL, so
    // the non-owner's copy cannot outlive the write.
    let mut client = ClusterClient::new(nodes, ClusterClientConfig::default());
    client.set(&key, b"new").expect("cluster set");
    assert_eq!(
        c0.get(&key).expect("get after set").as_deref(),
        Some(&b"new"[..]),
        "the stale forwarded copy survived the SET's invalidation"
    );
    for h in handles {
        h.shutdown().expect("clean shutdown");
    }
}

//! Chaos tests of the fault plane: seeded fault schedules injected at the
//! transport must never change what a program *computes*, only what it
//! costs — plus exact-counter accounting of the retry path and of quorum
//! re-election after a node kill.
//!
//! The digest property runs every app under every protocol with random (but
//! seeded, hence replayable) [`FaultSpec`] schedules that drop, delay and
//! duplicate frames, inject handler panics, and kill at most one node at a
//! virtual instant, with quorum replication armed so a killed home can be
//! re-elected.  Each faulted digest is compared against the fault-free run
//! of the same configuration.  The failing seed is part of every assertion
//! message; re-running a failure needs nothing but that seed.  Each faulted
//! app run executes under a host wall-clock cap, so a run that hangs fails
//! with its seed and schedule instead of stalling the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperion_workspace::apps::common::Benchmark;
use hyperion_workspace::apps::{asp, barnes, jacobi, kvstore, pi, tsp};
use hyperion_workspace::dsm::policy::ReplicationSpec;
use hyperion_workspace::dsm::{DsmStore, DsmSystem, PolicySpec};
use hyperion_workspace::model::{myrinet_200, ThreadClock, VTime};
use hyperion_workspace::pm2::{
    Cluster, FaultKill, FaultSpec, GlobalAddr, IsoAllocator, NodeId, RetryPolicy, TransportBackend,
};
use hyperion_workspace::prelude::*;
use hyperion_workspace::{HyperionConfig, ProtocolKind, TransportConfig};

/// Node count of the chaos app runs: enough that every protocol has real
/// remote traffic and a kill leaves a quorum of survivors.
const NODES: usize = 4;

/// Run `body` once per seed, labelling failures with the seed.
fn property(cases: u64, body: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        body(seed, &mut rng);
    }
}

fn all_benchmarks() -> Vec<Arc<dyn Benchmark>> {
    vec![
        Arc::new(pi::PiParams::quick()),
        Arc::new(jacobi::JacobiParams::quick()),
        Arc::new(barnes::BarnesParams::quick()),
        Arc::new(tsp::TspParams::quick()),
        Arc::new(asp::AspParams::quick()),
    ]
}

fn execute(
    bench: &dyn Benchmark,
    policies: PolicySpec,
    transport: TransportConfig,
) -> (f64, RunReport) {
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(NODES)
        .policies(policies)
        .transport(transport)
        .build()
        .expect("valid chaos configuration");
    bench.execute(config)
}

/// `protocol`'s default policies plus the `2r/2w` quorum replication that
/// lets a killed home be re-elected.
fn quorum(protocol: ProtocolKind) -> PolicySpec {
    PolicySpec {
        replication: ReplicationSpec::Quorum {
            read_replicas: 2,
            write_quorum: 2,
        },
        ..PolicySpec::for_protocol(protocol)
    }
}

/// Host wall-clock cap on one faulted quick-scale app run.  Such a run
/// takes well under a second even in a debug build; the cap only has to
/// tell a hang from a slow host.
const FAULTED_RUN_CAP: Duration = Duration::from_secs(60);

/// Run `bench` under `spec` (with quorum replication) on a helper thread
/// and wait at most [`FAULTED_RUN_CAP`] for it.  A run that hangs or
/// panics fails the test with its seed and fault schedule, so the failure
/// is named and replayable; a hung helper thread is abandoned and dies
/// with the test process.
fn execute_faulted(
    bench: &Arc<dyn Benchmark>,
    protocol: ProtocolKind,
    seed: u64,
    spec: FaultSpec,
) -> (f64, RunReport) {
    let (tx, rx) = mpsc::channel();
    let run = Arc::clone(bench);
    std::thread::spawn(move || {
        let transport = TransportConfig {
            fault: Some(spec),
            ..TransportConfig::default()
        };
        // A send error only means the waiter already gave up.
        let _ = tx.send(execute(run.as_ref(), quorum(protocol), transport));
    });
    let what = format!(
        "{} under {} with seed {seed} / spec `{spec}`",
        bench.name(),
        protocol.name()
    );
    match rx.recv_timeout(FAULTED_RUN_CAP) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: run still going after {FAULTED_RUN_CAP:?}, presumed hung")
        }
        Err(RecvTimeoutError::Disconnected) => {
            panic!("{what}: run panicked (its message is printed above)")
        }
    }
}

/// A random — but valid — fault schedule: moderate drop/dup/panic rates, a
/// small frame delay, and a coin-flip node kill inside the window the quick
/// workloads actually execute in.
fn random_spec(rng: &mut StdRng) -> FaultSpec {
    let spec = FaultSpec {
        seed: rng.gen_range(0u64..u64::MAX),
        drop_ppm: rng.gen_range(0..30_000),
        drop_first: rng.gen_range(0..3),
        delay_ppm: rng.gen_range(0..20_000),
        delay_by: VTime::from_us(rng.gen_range(1..50)),
        dup_ppm: rng.gen_range(0..10_000),
        panic_ppm: rng.gen_range(0..5_000),
        kill: if rng.gen_range(0u32..2) == 1 {
            Some(FaultKill {
                node: rng.gen_range(0..NODES as u32),
                at: VTime::from_us(rng.gen_range(100..2_000)),
            })
        } else {
            None
        },
    };
    spec.validate(NODES).expect("generated spec is valid");
    spec
}

/// The tentpole chaos property: random seeded fault schedules across all
/// five apps and all three protocols preserve every digest.  Faults change
/// timing and traffic, never values — even when a home node is killed and
/// its pages are re-homed onto quorum survivors mid-run.
#[test]
fn seeded_fault_schedules_preserve_all_digests() {
    let protocols = [
        ProtocolKind::JavaIc,
        ProtocolKind::JavaPf,
        ProtocolKind::JavaAd,
    ];
    for bench in all_benchmarks() {
        for protocol in protocols {
            let (reference, _) = execute(
                bench.as_ref(),
                PolicySpec::for_protocol(protocol),
                TransportConfig::default(),
            );
            // Pi's global sum accumulates thread contributions in monitor
            // acquisition order, so its digest is only reproducible to
            // floating-point re-association; every other app is
            // order-independent.
            let tolerance = reference.abs().max(1.0) * 1e-9;
            property(3, |seed, rng| {
                let spec = random_spec(rng);
                let (digest, report) = execute_faulted(&bench, protocol, seed, spec);
                assert!(
                    (digest - reference).abs() <= tolerance,
                    "{} under {} diverged with seed {seed} / spec `{spec}`: \
                     fault-free {reference} vs faulted {digest}",
                    bench.name(),
                    protocol.name(),
                );
                let total = report.total_stats();
                if spec.kill.is_some() {
                    // At most one node died, and resynced pages imply a
                    // recorded failure (never the other way round).
                    assert!(total.nodes_failed <= 1, "seed {seed}: two nodes failed");
                    if total.pages_resynced > 0 {
                        assert_eq!(total.nodes_failed, 1, "seed {seed}");
                    }
                } else {
                    assert_eq!(total.nodes_failed, 0, "seed {seed}");
                    assert_eq!(total.pages_resynced, 0, "seed {seed}");
                }
            });
        }
    }
}

/// The serving tentpole's chaos property: a Zipf-skewed KV serving run with
/// a node kill in the middle of its request stream still completes every
/// operation and computes the same digest.  Unlike the digest sweep above,
/// the kill here is unconditional and aimed inside the serving window, and
/// the op count is checked exactly: recovery may re-route and retry, but it
/// may neither drop nor double-count a serving operation.
#[test]
fn kv_store_kill_schedules_preserve_digest_and_op_count() {
    let bench: Arc<dyn Benchmark> = Arc::new(kvstore::KvStoreParams::quick());
    let (reference, clean) = execute(
        bench.as_ref(),
        PolicySpec::for_protocol(ProtocolKind::JavaAd),
        TransportConfig::default(),
    );
    let expected_ops = clean.total_stats().serving_ops;
    assert!(expected_ops > 0, "quick KV run recorded no serving ops");
    property(3, |seed, rng| {
        let mut spec = random_spec(rng);
        spec.kill = Some(FaultKill {
            node: rng.gen_range(0..NODES as u32),
            at: VTime::from_us(rng.gen_range(100..2_000)),
        });
        let (digest, report) = execute_faulted(&bench, ProtocolKind::JavaAd, seed, spec);
        assert!(
            (digest - reference).abs() <= reference.abs().max(1.0) * 1e-9,
            "KVStore diverged with seed {seed} / spec `{spec}`: \
             fault-free {reference} vs faulted {digest}",
        );
        let total = report.total_stats();
        assert_eq!(
            total.serving_ops, expected_ops,
            "seed {seed}: serving ops dropped or double-counted under faults"
        );
        assert!(total.nodes_failed <= 1, "seed {seed}: two nodes failed");
    });
}

/// Replaying the same spec must reproduce the fault counters exactly — the
/// whole point of seeded schedules (a chaos failure is re-runnable).
#[test]
fn identical_specs_replay_identical_fault_counters() {
    let spec = FaultSpec {
        seed: 99,
        drop_ppm: 25_000,
        dup_ppm: 10_000,
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        fault: Some(spec),
        ..TransportConfig::default()
    };
    let bench = jacobi::JacobiParams::quick();
    let pf = || PolicySpec::for_protocol(ProtocolKind::JavaPf);
    let (da, ra) = execute(&bench, pf(), transport.clone());
    let (db, rb) = execute(&bench, pf(), transport);
    assert_eq!(da.to_bits(), db.to_bits());
    let (a, b) = (ra.total_stats(), rb.total_stats());
    assert_eq!(a.frames_dropped_injected, b.frames_dropped_injected);
    assert_eq!(a.rpc_retries, b.rpc_retries);
    assert_eq!(a.rpc_timeouts, b.rpc_timeouts);
}

// ----- exact-counter unit suite --------------------------------------------

/// A `java_ic` DSM system over a fault-injecting transport, with one page
/// homed on each node.
fn build_faulty_dsm(
    nodes: usize,
    spec: FaultSpec,
    policies: &PolicySpec,
    transport: &TransportConfig,
) -> (Arc<DsmSystem>, Vec<GlobalAddr>) {
    let cluster = Cluster::for_backend_with_faults(
        myrinet_200().machine,
        nodes,
        TransportBackend::Sim,
        Some(spec),
    );
    let alloc = Arc::new(IsoAllocator::new(nodes));
    let store = DsmStore::new(Arc::clone(&alloc), nodes);
    let dsm = DsmSystem::new(cluster, store, policies, transport);
    let addrs = (0..nodes)
        .map(|home| alloc.alloc_page_aligned(4, NodeId(home as u32)))
        .collect();
    (dsm, addrs)
}

/// `drop_first=2` drops exactly the first two remote frames: the demand
/// fetch retries twice under the backoff schedule and every retry is
/// accounted once — no more, no less.
#[test]
fn dropped_frames_are_retried_and_counted_exactly() {
    let spec = FaultSpec {
        seed: 5,
        drop_first: 2,
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(
        2,
        spec,
        &PolicySpec::for_protocol(ProtocolKind::JavaIc),
        &TransportConfig::default(),
    );
    let mut clock0 = ThreadClock::new();
    dsm.put(NodeId(0), &mut clock0, addrs[0], 9);

    let mut clock1 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.frames_dropped_injected, 2);
    assert_eq!(stats.rpc_timeouts, 2);
    assert_eq!(stats.rpc_retries, 2);
    // Each lost frame charged the full RPC timeout plus its backoff slot
    // (100us, then 200us) to the caller's virtual clock.
    let policy = RetryPolicy::default();
    let charged = policy.rpc_timeout + policy.rpc_timeout + policy.backoff(0) + policy.backoff(1);
    assert!(
        clock1.now() >= charged,
        "caller clock {:?} below the mandatory retry charge {charged:?}",
        clock1.now()
    );

    // The fault plane stays out of the way once the schedule is spent: a
    // second miss (after invalidation) completes first try.
    dsm.invalidate_cache(NodeId(1), &mut clock1);
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 9);
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 2);
}

/// When every attempt is dropped, the retry budget runs out and the typed
/// failure surfaces through the single top-level die with service-name
/// context.
#[test]
fn exhausted_retry_budget_dies_with_service_context() {
    let spec = FaultSpec {
        seed: 6,
        drop_ppm: 1_000_000,
        ..FaultSpec::default()
    };
    let transport = TransportConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..TransportConfig::default()
    };
    let (dsm, addrs) = build_faulty_dsm(
        2,
        spec,
        &PolicySpec::for_protocol(ProtocolKind::JavaIc),
        &transport,
    );
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut clock = ThreadClock::new();
        dsm.get(NodeId(1), &mut clock, addrs[0])
    }))
    .expect_err("an all-drop schedule must exhaust the retry budget");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(
        msg.contains("dsm.page_fetch") && msg.contains("2 attempts"),
        "panic lost its service context: {msg}"
    );
    let stats = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(stats.rpc_retries, 1);
    assert_eq!(stats.rpc_timeouts, 2);
}

/// Kill a home node and let a survivor trip over it: the store re-elects
/// the newest quorum replica as the page's home, re-routes, re-syncs, and
/// the read observes the last released write.  Counters are exact: one
/// failed node, at least the written page resynced, and the re-elected home
/// is the replica holder — not an arbitrary survivor.
#[test]
fn killed_home_is_reelected_from_the_newest_quorum_replica() {
    let spec = FaultSpec {
        seed: 7,
        kill: Some(FaultKill {
            node: 0,
            at: VTime::from_us(500),
        }),
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(
        3,
        spec,
        &quorum(ProtocolKind::JavaIc),
        &TransportConfig::default(),
    );
    let page = addrs[0].page();

    // Node 0 (the home) seeds the page; node 1 reads it — becoming a
    // replica holder — then writes and releases, which quorum-stamps its
    // replica at version 1.  All of this happens before the kill instant.
    let mut clock0 = ThreadClock::new();
    dsm.put(NodeId(0), &mut clock0, addrs[0], 7);
    let mut clock1 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(1), &mut clock1, addrs[0]), 7);
    dsm.put(NodeId(1), &mut clock1, addrs[0], 42);
    dsm.update_main_memory(NodeId(1), &mut clock1);
    assert!(
        clock1.now() < VTime::from_us(500),
        "workload outran the kill"
    );

    // Node 2 arrives after the kill instant: its fetch hits the dead home,
    // triggers recovery, and completes against the re-elected home.
    let mut clock2 = ThreadClock::new();
    clock2.advance(VTime::from_us(1_000));
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[0]), 42);

    let stats = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(stats.nodes_failed, 1);
    assert!(
        stats.pages_resynced >= 1,
        "recovery resynced no pages: {stats:?}"
    );
    assert_eq!(
        dsm.store().home_of(page),
        NodeId(1),
        "the quorum holder must win the election"
    );

    // The re-homed page keeps working: node 2 writes through the new home
    // and node 1 (now the home) observes the value in main memory.
    dsm.put(NodeId(2), &mut clock2, addrs[0], 1234);
    dsm.update_main_memory(NodeId(2), &mut clock2);
    let mut clock1b = ThreadClock::new();
    clock1b.advance(VTime::from_us(2_000));
    dsm.invalidate_cache(NodeId(1), &mut clock1b);
    assert_eq!(dsm.get(NodeId(1), &mut clock1b, addrs[0]), 1234);

    // Recovery ran once; the second observer re-routed without repeating it.
    let mut clock1c = ThreadClock::new();
    clock1c.advance(VTime::from_us(2_000));
    assert_eq!(dsm.get(NodeId(1), &mut clock1c, addrs[0]), 1234);
    let total = dsm.cluster().node_stats(NodeId(1));
    assert_eq!(total.nodes_failed, 0, "only the first observer accounts");
}

/// A page never replicated still recovers: the election falls back to the
/// lowest-id live node, which re-syncs from the authoritative frame.
#[test]
fn unreplicated_pages_fall_back_to_the_lowest_live_node() {
    let spec = FaultSpec {
        seed: 8,
        kill: Some(FaultKill {
            node: 1,
            at: VTime::ZERO,
        }),
        ..FaultSpec::default()
    };
    let (dsm, addrs) = build_faulty_dsm(
        3,
        spec,
        &quorum(ProtocolKind::JavaIc),
        &TransportConfig::default(),
    );
    let page = addrs[1].page();

    // Node 1 seeds its own page locally (home writes need no RPC), then is
    // dead to everyone from virtual time zero.
    let mut clock1 = ThreadClock::new();
    dsm.put(NodeId(1), &mut clock1, addrs[1], 77);

    let mut clock2 = ThreadClock::new();
    assert_eq!(dsm.get(NodeId(2), &mut clock2, addrs[1]), 77);
    assert_eq!(
        dsm.store().home_of(page),
        NodeId(0),
        "with no replicas the lowest live node inherits the page"
    );
    let stats = dsm.cluster().node_stats(NodeId(2));
    assert_eq!(stats.nodes_failed, 1);
    assert!(stats.pages_resynced >= 1);
}

//! Exact access counters under per-thread tallies.
//!
//! Threads count their field reads, field writes and in-line locality checks
//! in a private tally that is folded into the node's shared counters at
//! synchronisation points.  These tests pin the two promises that design
//! makes: run-end counters are exact, and a thread that acquires a monitor
//! after another thread released it sees that thread's pre-release counts.

use std::sync::{Arc, Barrier};

use hyperion::prelude::*;
use hyperion::{HyperionConfig, HyperionRuntime, ProtocolKind, StatsSnapshot};

/// Accesses each worker makes outside any monitor.
const OUTSIDE_WRITES: u64 = 3;
const OUTSIDE_READS: u64 = 5;
/// Monitor sections per worker; each does two reads and one write.
const ROUNDS: u64 = 4;

fn runtime(protocol: ProtocolKind) -> HyperionRuntime {
    // No pacing: the visibility test parks a thread on a host barrier, and
    // these tests check counts, not schedules.
    let config = HyperionConfig::new(myrinet_200(), 2, protocol).with_pacing_window(None);
    HyperionRuntime::new(config).expect("valid config")
}

/// `(field_reads, field_writes, locality_checks)` of one node.
fn counts(s: &StatsSnapshot) -> (u64, u64, u64) {
    (s.field_reads, s.field_writes, s.locality_checks)
}

#[test]
fn run_end_access_counters_are_exact_under_every_protocol() {
    for protocol in ProtocolKind::all_extended() {
        let rt = runtime(protocol);
        // Every page is homed on node 1: node 0's accesses are remote.
        let out = rt.run(|ctx| {
            let data = ctx.alloc_array::<u64>(64, NodeId(1));
            let cell = ctx.alloc_array::<u64>(1, NodeId(1));
            let monitor = HMonitor::new(NodeId(0));
            // Two threads per node.
            let workers: Vec<_> = (0..4u32)
                .map(|t| {
                    let monitor = monitor.clone();
                    ctx.spawn_on(NodeId(t % 2), move |w| {
                        let slot = t as usize * 8;
                        for k in 0..OUTSIDE_WRITES {
                            data.put(w, slot + k as usize, k);
                        }
                        for _ in 0..ROUNDS {
                            monitor.synchronized(w, |w| {
                                let v = cell.get(w, 0);
                                assert_eq!(cell.get(w, 0), v);
                                cell.put(w, 0, v + 1);
                            });
                        }
                        // Reads after the last release: only the fold at
                        // thread end publishes these.
                        for k in 0..OUTSIDE_READS {
                            std::hint::black_box(data.get(w, slot + k as usize));
                        }
                    })
                })
                .collect();
            for h in workers {
                ctx.join(h);
            }
            // One read by main on node 0.
            cell.get(ctx, 0)
        });
        assert_eq!(out.result, 4 * ROUNDS, "{protocol:?}");

        let worker_reads = OUTSIDE_READS + 2 * ROUNDS;
        let worker_writes = OUTSIDE_WRITES + ROUNDS;
        let node0_reads = 2 * worker_reads + 1;
        let node1_reads = 2 * worker_reads;
        let writes = 2 * worker_writes;
        let accesses = [node0_reads + writes, node1_reads + writes];
        let checks = match protocol {
            ProtocolKind::JavaIc => accesses,
            ProtocolKind::JavaPf => [0, 0],
            // Remote pages start in check mode and home pages are never
            // checked; with this few accesses per epoch no page switches.
            ProtocolKind::JavaAd => [accesses[0], 0],
        };
        let stats = &out.report.node_stats;
        assert_eq!(
            out.report.total_stats().protocol_switches,
            0,
            "{protocol:?}"
        );
        assert_eq!(
            counts(&stats[0]),
            (node0_reads, writes, checks[0]),
            "node 0 under {protocol:?}"
        );
        assert_eq!(
            counts(&stats[1]),
            (node1_reads, writes, checks[1]),
            "node 1 under {protocol:?}"
        );
    }
}

#[test]
fn next_acquirer_sees_the_releasers_counts() {
    const PRE_READS: u64 = 6;
    for protocol in ProtocolKind::all_extended() {
        let rt = runtime(protocol);
        let cluster = Arc::clone(rt.cluster());
        let gate = Arc::new(Barrier::new(2));
        let seen = rt.run(|ctx| {
            let data = ctx.alloc_array::<u64>(16, NodeId(1));
            let flag = ctx.alloc_array::<u64>(1, NodeId(1));
            let monitor = HMonitor::new(NodeId(1));
            // The releaser is the only thread that touches node 0's
            // counters before the observer looks at them.
            let releaser = {
                let (monitor, gate) = (monitor.clone(), Arc::clone(&gate));
                ctx.spawn_on(NodeId(0), move |w| {
                    for i in 0..PRE_READS {
                        std::hint::black_box(data.get(w, i as usize));
                    }
                    data.put(w, 0, 7);
                    monitor.synchronized(w, |w| flag.put(w, 0, 1));
                    // Stay alive, past no further synchronisation point,
                    // until the observer has read the counters: only the
                    // release above can have published them.
                    gate.wait();
                })
            };
            let observer = ctx.spawn_on(NodeId(1), move |w| {
                let seen = loop {
                    let seen = monitor.synchronized(w, |w| {
                        (flag.get(w, 0) == 1).then(|| cluster.node_stats(NodeId(0)))
                    });
                    if let Some(s) = seen {
                        break s;
                    }
                };
                gate.wait();
                assert_eq!(seen.field_reads, PRE_READS, "{protocol:?}");
                assert_eq!(seen.field_writes, 2, "{protocol:?}");
                let checks = match protocol {
                    ProtocolKind::JavaPf => 0,
                    ProtocolKind::JavaIc | ProtocolKind::JavaAd => PRE_READS + 2,
                };
                assert_eq!(seen.locality_checks, checks, "{protocol:?}");
            });
            ctx.join(releaser);
            ctx.join(observer);
        });
        assert_eq!(seen.report.node_stats[0].field_reads, PRE_READS);
    }
}

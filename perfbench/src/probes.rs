//! Steady-state per-primitive probes, timed from outside through the public
//! API of `hyperion`, `dsm` (via `ThreadCtx`) and `pm2` (via
//! `HyperionRuntime::cluster`).
//!
//! Every probe runs on a 4-node runtime built before any timing starts, under
//! the workload's own protocol and transport, with its pages and connections
//! warmed by untimed calls.  A round is one span; its per-call host time is
//! the round's wall time over its calls, because a cached `get` costs about
//! as much as one clock read and cannot be timed call by call.

use std::sync::Arc;
use std::time::Instant;

use hyperion::JBarrier;
use hyperion::{HyperionConfig, HyperionRuntime, NodeId, ThreadCtx, VTime};
use hyperion_model::ThreadClock;
use hyperion_pm2::{Node, RpcReply, SLOTS_PER_PAGE};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Scale, NODES};

/// Median cost of one call of a primitive.
#[derive(Clone, Debug)]
pub struct Probe {
    pub name: &'static str,
    pub host_ns: f64,
    pub modeled_us: f64,
    pub calls: usize,
}

/// One timed round.
struct Timed {
    start: Instant,
    end: Instant,
    modeled: VTime,
}

/// Sizes of the probe loops.
struct Plan {
    /// Rounds per probe.
    rounds: usize,
    /// Calls per round of the cached-access probes.
    batch: usize,
    /// Untimed rounds before each probe.
    warmup: usize,
}

impl Plan {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Plan {
                rounds: 2000,
                batch: 200,
                warmup: 100,
            },
            Scale::Tiny => Plan {
                rounds: 10,
                batch: 10,
                warmup: 2,
            },
        }
    }
}

fn time_calls(ctx: &mut ThreadCtx, calls: usize, mut call: impl FnMut(&mut ThreadCtx)) -> Timed {
    let v0 = ctx.now();
    let start = Instant::now();
    for _ in 0..calls {
        call(ctx);
    }
    let end = Instant::now();
    Timed {
        start,
        end,
        modeled: ctx.now() - v0,
    }
}

fn probe(
    tracer: &mut Tracer,
    name: &'static str,
    plan: &Plan,
    calls_per_round: usize,
    ctx: &mut ThreadCtx,
    mut round: impl FnMut(&mut ThreadCtx) -> Timed,
) -> Probe {
    for _ in 0..plan.warmup {
        round(ctx);
    }
    let mut host = Vec::with_capacity(plan.rounds);
    let mut modeled = Vec::with_capacity(plan.rounds);
    let per_call = calls_per_round as f64;
    for _ in 0..plan.rounds {
        let t = round(ctx);
        tracer.record(name, t.start, t.end);
        host.push((t.end - t.start).as_nanos() as f64 / per_call);
        modeled.push(t.modeled.as_ps() as f64 / 1e6 / per_call);
    }
    Probe {
        name,
        host_ns: median(&host),
        modeled_us: median(&modeled),
        calls: plan.rounds * calls_per_round,
    }
}

/// Run every probe on a fresh runtime with the protocol and transport of
/// `config`, on [`NODES`] nodes so that remote pages and monitors exist.
pub fn run_probes(config: &HyperionConfig, scale: Scale, tracer: &mut Tracer) -> Vec<Probe> {
    let plan = Plan::for_scale(scale);
    let config = HyperionConfig {
        nodes: NODES,
        ..config.clone()
    };
    let runtime = HyperionRuntime::new(config).expect("valid probe configuration");
    let cluster = Arc::clone(runtime.cluster());
    let null_service = cluster.register_service(Arc::new(|_: &Node, _: NodeId, _: &[u8]| {
        RpcReply::ack(VTime::ZERO)
    }));
    let remote = NodeId(1);
    let outcome = runtime.run(|ctx| {
        let mut probes = Vec::new();
        // One page homed on node 1, cached on node 0 by a first access.
        let slots = SLOTS_PER_PAGE;
        let page = ctx.alloc_array_page_aligned::<u64>(slots, remote);
        page.get(ctx, 0);

        let mut sink = 0u64;
        let mut i = 0usize;
        probes.push(probe(
            tracer,
            "hyperion.get_cached",
            &plan,
            plan.batch,
            ctx,
            |ctx| {
                time_calls(ctx, plan.batch, |ctx| {
                    i = (i + 1) % slots;
                    sink = sink.wrapping_add(page.get(ctx, i));
                })
            },
        ));
        std::hint::black_box(sink);
        probes.push(probe(
            tracer,
            "hyperion.put_cached",
            &plan,
            plan.batch,
            ctx,
            |ctx| {
                time_calls(ctx, plan.batch, |ctx| {
                    i = (i + 1) % slots;
                    page.put(ctx, i, i as u64);
                })
            },
        ));

        // The first (warm-up) acquire flushes the page the put probe dirtied.
        let remote_monitor = ctx.new_monitor(remote);
        probes.push(probe(
            tracer,
            "hyperion.monitor_remote",
            &plan,
            1,
            ctx,
            |ctx| time_calls(ctx, 1, |ctx| remote_monitor.synchronized(ctx, |_| ())),
        ));

        // Entering a local monitor is an acquire: it invalidates node 0's
        // cached copy, so the timed `load_into_cache` is a refetch of a page
        // whose home frame already exists.
        let local_monitor = ctx.new_monitor(NodeId(0));
        let addr = page.addr_of(0);
        let loads_before = cluster.node_stats(NodeId(0)).page_loads;
        probes.push(probe(tracer, "dsm.refetch", &plan, 1, ctx, |ctx| {
            local_monitor.enter(ctx);
            let t = time_calls(ctx, 1, |ctx| ctx.load_into_cache(addr));
            local_monitor.exit(ctx);
            t
        }));
        let refetches = cluster.node_stats(NodeId(0)).page_loads - loads_before;
        assert_eq!(
            refetches as usize,
            plan.warmup + plan.rounds,
            "every dsm.refetch call must load the page"
        );

        let mut clock = ThreadClock::new();
        probes.push(probe(tracer, "pm2.null_rpc", &plan, 1, ctx, |_| {
            let v0 = clock.now();
            let start = Instant::now();
            cluster
                .rpc(&mut clock, NodeId(0), remote, null_service, &[])
                .expect("null RPC succeeds");
            let end = Instant::now();
            Timed {
                start,
                end,
                modeled: clock.now() - v0,
            }
        }));

        // Barrier episodes: the main thread and one helper per other node.
        let arrivals = plan.warmup + plan.rounds;
        let barrier = JBarrier::new(ctx, NODES, NodeId(0));
        let helpers: Vec<_> = (1..NODES)
            .map(|n| {
                let barrier = barrier.clone();
                ctx.spawn_on(NodeId(n as u32), move |w| {
                    for _ in 0..arrivals {
                        barrier.arrive(w);
                    }
                })
            })
            .collect();
        probes.push(probe(tracer, "hyperion.barrier", &plan, 1, ctx, |ctx| {
            time_calls(ctx, 1, |ctx| barrier.arrive(ctx))
        }));
        for h in helpers {
            ctx.join(h);
        }
        probes
    });
    outcome.result
}

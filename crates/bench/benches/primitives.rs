//! Table 2 micro-benchmarks: the five DSM primitives under both protocols.
//!
//! Criterion measures the wall-clock cost of executing each primitive in the
//! simulator; the virtual costs the paper's Table 2 describes are printed by
//! `figures --tables`.  `get_put_cached` times 1024 cached accesses on a
//! runtime built and warmed outside the timed body; `load_into_cache` and
//! `invalidate_update` need fresh protocol state, so they still build a
//! runtime per iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperion::prelude::*;

fn with_runtime(protocol: ProtocolKind) -> HyperionRuntime {
    let config = HyperionConfig::builder()
        .cluster(myrinet_200())
        .nodes(2)
        .protocol(protocol)
        .build()
        .unwrap();
    HyperionRuntime::new(config).unwrap()
}

fn bench_get_put_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives/get_put_cached");
    group.sample_size(20);
    for protocol in ProtocolKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(protocol.name()),
            &protocol,
            |b, &protocol| {
                // Runtime, allocation and the page fetch stay outside the
                // timed closure: only the steady-state cached accesses to a
                // remote page (node 1's, cached on node 0) are measured.
                let rt = with_runtime(protocol);
                rt.run(|ctx| {
                    let arr = ctx.alloc_array::<u64>(512, NodeId(1));
                    arr.put(ctx, 0, 0);
                    b.iter(|| {
                        let mut acc = 0u64;
                        for i in 0..512 {
                            arr.put(ctx, i, i as u64);
                        }
                        for i in 0..512 {
                            acc = acc.wrapping_add(arr.get(ctx, i));
                        }
                        criterion::black_box(acc)
                    });
                    // Program end flushes the dirty page once.
                });
            },
        );
    }
    group.finish();
}

fn bench_load_into_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives/load_into_cache");
    group.sample_size(20);
    for protocol in ProtocolKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(protocol.name()),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let rt = with_runtime(protocol);
                    rt.run(|ctx| {
                        // 64 distinct remote pages, each fetched once.
                        let arrays: Vec<HArray<u64>> = (0..64)
                            .map(|_| ctx.alloc_array_page_aligned::<u64>(8, NodeId(1)))
                            .collect();
                        for a in &arrays {
                            ctx.load_into_cache(a.base());
                        }
                        ctx.now()
                    })
                    .result
                })
            },
        );
    }
    group.finish();
}

fn bench_monitor_and_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives/invalidate_update");
    group.sample_size(20);
    for protocol in ProtocolKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(protocol.name()),
            &protocol,
            |b, &protocol| {
                b.iter(|| {
                    let rt = with_runtime(protocol);
                    rt.run(|ctx| {
                        let arr = ctx.alloc_array::<u64>(256, NodeId(1));
                        let monitor = ctx.new_monitor(NodeId(0));
                        for round in 0..32u64 {
                            monitor.synchronized(ctx, |ctx| {
                                arr.put(ctx, (round % 256) as usize, round);
                            });
                        }
                        ctx.now()
                    })
                    .result
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_get_put_hit,
    bench_load_into_cache,
    bench_monitor_and_flush
);
criterion_main!(benches);

//! Figure 8 (extension): the cluster-wide prefetch directory and deferred
//! release flushing against figure 7's split-transaction transport.
//!
//! Besides the Criterion-style wall-clock measurements this bench performs
//! a verification pass over the modeled results; a violation panics, so
//! `cargo bench` doubles as a gate:
//!
//! * **Directory** (Jacobi, ASP under `java_pf`, unpaced): the directory
//!   transport (hints + deferred release, ASP's pivot loop issuing its
//!   fetch a statement-window early) must strictly reduce modeled wall
//!   time against the plain overlapped transport, send hints, and compute
//!   the same answer.  Hint waste — hinted pages invalidated untouched —
//!   must stay within 1/8 of the hints sent.
//! * **Deferred** (all five apps): deferred flushing only moves *when*
//!   flush latency is charged (from the release to the next acquire of the
//!   same monitor), so it must never increase modeled wall time.
//!
//! The schedule-chaotic apps (TSP, Barnes-Hut) are retried once before the
//! aggregate fallback: their per-round wall times vary by tens of percent
//! under every transport, so a single adverse draw is re-drawn before the
//! deeper (and slower) aggregate comparison runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{
    deferred_pair, directory_pair, run_point_configured, sweep_directory, DirectoryPair, Scale,
    ADAPTIVE_NODES,
};

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_directory");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    let directory = PolicySpec::directory(ProtocolKind::JavaPf);
    for (app, spec, label) in [
        (
            BenchmarkName::Asp,
            PolicySpec {
                overlapped_fetches: true,
                ..PolicySpec::for_protocol(ProtocolKind::JavaPf)
            },
            "overlapped",
        ),
        (BenchmarkName::Asp, directory.clone(), "directory"),
        (BenchmarkName::Jacobi, directory, "directory"),
    ] {
        group.bench_with_input(
            BenchmarkId::new(app.to_string(), label),
            &spec,
            |b, spec| {
                b.iter(|| {
                    run_point_configured(
                        app,
                        Scale::Quick,
                        &myrinet_200(),
                        ADAPTIVE_NODES,
                        spec,
                        String::new(),
                    )
                    .seconds
                })
            },
        );
    }
    group.finish();
}

/// One fresh draw of the same pair (same app, mechanism, configurations).
fn redraw(pair: &DirectoryPair) -> DirectoryPair {
    match pair.mechanism {
        "directory" => directory_pair(pair.baseline.app, Scale::Quick)
            .expect("pair app is in the directory sweep"),
        "deferred" => deferred_pair(pair.baseline.app, Scale::Quick),
        other => panic!("unknown mechanism {other}"),
    }
}

fn assert_same_digest(pair: &DirectoryPair) {
    let base = &pair.baseline;
    let on = &pair.enabled;
    let tolerance = base.digest.abs().max(1.0) * 1e-9;
    assert!(
        (base.digest - on.digest).abs() <= tolerance,
        "{}: {} transport changed the answer ({} vs {})",
        base.app,
        pair.mechanism,
        base.digest,
        on.digest
    );
}

fn verify_directory_invariants(_c: &mut Criterion) {
    println!();
    println!(
        "== fig8 verification: prefetch directory & deferred release, quick scale, \
         {ADAPTIVE_NODES} nodes =="
    );
    let mut hints_sent = 0u64;
    let mut hints_wasted = 0u64;
    for pair in sweep_directory(Scale::Quick) {
        let base = &pair.baseline;
        let on = &pair.enabled;
        println!(
            "{:<12} {:<10} {}: {:.4}s  ->  {}: {:.4}s (hints {} sent/{} done/{} wasted, \
             deferred {}, flush hidden {} cy)",
            base.app.to_string(),
            pair.mechanism,
            base.protocol_label(),
            base.seconds,
            on.protocol_label(),
            on.seconds,
            on.stats.hints_sent,
            on.stats.hinted_fetches_completed,
            on.stats.hinted_fetches_wasted,
            on.stats.deferred_flushes,
            on.stats.flush_overlap_cycles_hidden,
        );
        assert_same_digest(&pair);
        match pair.mechanism {
            "directory" => {
                hints_sent += on.stats.hints_sent;
                hints_wasted += on.stats.hinted_fetches_wasted;
                // The directory must actually participate: hints on the
                // wire and deferred flushes at the barriers.
                assert!(on.stats.hints_sent > 0, "{}: no hints sent", base.app);
                assert!(
                    on.stats.deferred_flushes > 0,
                    "{}: no deferred flushes",
                    base.app
                );
                assert_eq!(base.stats.hints_sent, 0, "baseline must not hint");
                // Wall time: strict round first, then an aggregate re-draw
                // (the directory effect on the already-overlapped baseline
                // is a few percent, within per-round barrier-order jitter).
                if on.seconds < base.seconds {
                    continue;
                }
                // Each quick-scale round costs milliseconds; the directory
                // effect on the already-overlapped baseline is 1–3%, so the
                // fallback needs depth to clear the per-round barrier-order
                // jitter (Jacobi's shorter rounds need more of them).
                let rounds = if base.app == BenchmarkName::Asp {
                    20
                } else {
                    24
                };
                let (mut base_total, mut on_total) = (base.seconds, on.seconds);
                for _ in 0..rounds {
                    let fresh = redraw(&pair);
                    base_total += fresh.baseline.seconds;
                    on_total += fresh.enabled.seconds;
                    hints_sent += fresh.enabled.stats.hints_sent;
                    hints_wasted += fresh.enabled.stats.hinted_fetches_wasted;
                }
                println!(
                    "  {}: strict round missed; aggregate of {}: {on_total:.4}s vs {base_total:.4}s",
                    base.app,
                    rounds + 1
                );
                assert!(
                    on_total < base_total,
                    "{}: directory transport did not reduce modeled wall time \
                     ({on_total:.4}s >= {base_total:.4}s aggregated over {} rounds)",
                    base.app,
                    rounds + 1
                );
            }
            "deferred" => {
                // Deferring only moves when flush latency is charged: wall
                // time must never grow (tiny epsilon for rounding).
                let chaotic = matches!(base.app, BenchmarkName::Tsp | BenchmarkName::Barnes);
                if on.seconds <= base.seconds * 1.001 {
                    continue;
                }
                if chaotic {
                    // Schedule-chaotic: one fresh re-draw before the deeper
                    // aggregate — a single adverse draw is ordinary noise.
                    let retry = redraw(&pair);
                    assert_same_digest(&retry);
                    if retry.enabled.seconds <= retry.baseline.seconds * 1.001 {
                        println!("  {}: strict round missed; retry passed", base.app);
                        continue;
                    }
                }
                // Non-chaotic rounds cost low milliseconds each, and the
                // deferred effect there is below the per-round barrier-order
                // jitter (~1%), so the fallback needs depth for the noise to
                // average out.
                let (mut base_total, mut on_total) = (base.seconds, on.seconds);
                let rounds = if chaotic { 5 } else { 9 };
                for _ in 0..rounds {
                    let fresh = redraw(&pair);
                    base_total += fresh.baseline.seconds;
                    on_total += fresh.enabled.seconds;
                }
                println!(
                    "  {}: strict round missed; aggregate of {}: {on_total:.4}s vs {base_total:.4}s",
                    base.app,
                    rounds + 1
                );
                // The chaotic apps explore a schedule-dependent amount of
                // work: their per-round times vary by tens of percent under
                // *every* transport (the committed baseline gives them a 3×
                // ceiling for the same reason), so the deferred bound is a
                // blow-up ceiling there and stays tight only for the
                // statically divided apps, where "never slower" is actually
                // measurable — up to the residual barrier-order jitter the
                // aggregate cannot fully average out.
                let slack = if chaotic { 1.5 } else { 1.005 };
                assert!(
                    on_total <= base_total * slack,
                    "{}: deferred flushing increased modeled wall time \
                     ({on_total:.4}s > {base_total:.4}s aggregated over {} rounds)",
                    base.app,
                    rounds + 1
                );
            }
            other => panic!("unknown mechanism {other}"),
        }
    }
    // Cluster-wide hint-waste bound across the directory pairs: hinted
    // pages that were invalidated untouched must stay within 1/8 of the
    // hints the homes sent (floor of 16 so a near-hintless run cannot fail
    // on a single unlucky conversion).
    assert!(
        hints_wasted * 8 <= hints_sent.max(16),
        "hint waste {hints_wasted} exceeds 1/8 of {hints_sent} hints sent"
    );
    println!("  hint waste: {hints_wasted}/{hints_sent} sent (bound: 1/8)");
    println!();
}

criterion_group!(benches, bench_fig8, verify_directory_invariants);
criterion_main!(benches);

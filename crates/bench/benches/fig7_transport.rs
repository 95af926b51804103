//! Figure 7 (extension): the split-transaction transport against the
//! blocking transport of the paper.
//!
//! Besides the Criterion-style wall-clock measurements this bench performs
//! a verification pass over the modeled results; a violation panics, so
//! `cargo bench` doubles as a gate:
//!
//! * **Overlap** (Jacobi, ASP under `java_pf`): overlapped fetches must
//!   strictly reduce the modeled wall time against the blocking transport,
//!   hide a non-zero amount of round-trip latency, keep page traffic
//!   identical and compute the same answer.
//! * **Migration** (TSP, Barnes-Hut under `java_ad`): home migration must
//!   strictly reduce the diff RPCs of the write-shared central structures
//!   (work queue head, best bound, chunk counters) and compute the same
//!   answer.
//! * The `java_ad` page-load bound of the fig6 gate must keep holding with
//!   the overlapped transport enabled.
//!
//! The dynamically scheduled apps (and, at quick scale, the barrier apps'
//! server-contention ordering) are schedule-noisy, so each pair is gated
//! with one strict round first and re-assessed in aggregate over five fresh
//! rounds when the strict round misses — a transport that systematically
//! lost time or traffic still fails.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperion::policy::MigrationSpec;
use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;
use hyperion_bench::{
    run_point_configured, sweep_transport, transport_pair, Scale, TransportPair, ADAPTIVE_NODES,
};

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_transport");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for (app, spec, label) in [
        (
            BenchmarkName::Jacobi,
            PolicySpec::blocking(ProtocolKind::JavaPf),
            "blocking",
        ),
        (
            BenchmarkName::Jacobi,
            PolicySpec {
                overlapped_fetches: true,
                ..PolicySpec::for_protocol(ProtocolKind::JavaPf)
            },
            "overlapped",
        ),
        (
            BenchmarkName::Tsp,
            PolicySpec {
                migration: MigrationSpec::MajorityVote { streak: 3 },
                ..PolicySpec::for_protocol(ProtocolKind::JavaAd)
            },
            "migration",
        ),
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

/// One fresh draw of the pair behind `pair` (same app/protocol/transport).
fn redraw(pair: &TransportPair) -> TransportPair {
    transport_pair(pair.baseline.app, Scale::Quick).expect("pair app is in the transport sweep")
}

fn verify_transport_invariants(_c: &mut Criterion) {
    println!();
    println!(
        "== fig7 verification: split-transaction vs blocking transport, quick scale, \
         {ADAPTIVE_NODES} nodes =="
    );
    for pair in sweep_transport(Scale::Quick) {
        let base = &pair.baseline;
        let on = &pair.enabled;
        println!(
            "{:<12} {:<10} {}: {:.4}s/{} diffs  ->  {}: {:.4}s/{} diffs (hidden {} cy, migrated {})",
            base.app.to_string(),
            pair.mechanism,
            base.protocol_label(),
            base.seconds,
            base.stats.diff_messages,
            on.protocol_label(),
            on.seconds,
            on.stats.diff_messages,
            on.stats.fetch_overlap_cycles_hidden,
            on.stats.pages_migrated,
        );
        let tolerance = base.digest.abs().max(1.0) * 1e-9;
        assert!(
            (base.digest - on.digest).abs() <= tolerance,
            "{}: transport changed the answer ({} vs {})",
            base.app,
            base.digest,
            on.digest
        );
        match pair.mechanism {
            "overlap" => {
                // Deterministic invariants of the split transport.
                assert!(
                    on.stats.fetch_overlap_cycles_hidden > 0,
                    "{}: overlapped transport hid no latency",
                    base.app
                );
                // Overlap defers when latency is charged, not what is
                // fetched; page traffic stays equal up to the per-barrier
                // wake-order noise every transport shows (the thread that
                // arrives last skips one barrier-state re-fetch).
                let slack = base.stats.page_loads / 20 + ADAPTIVE_NODES as u64;
                assert!(
                    on.stats.page_loads.abs_diff(base.stats.page_loads) <= slack,
                    "{}: overlap changed page traffic: {} vs {}",
                    base.app,
                    on.stats.page_loads,
                    base.stats.page_loads
                );
                // Wall time: strict round, then a deep aggregate (each
                // quick-scale round costs milliseconds).  Jacobi's overlap
                // effect is ~15–20% per round; ASP's honest window (the
                // leading pivot-free work of each Floyd iteration plus the
                // pipelined digest) is ~1% but highly consistent, so it
                // needs the deeper aggregate to clear the per-round
                // barrier-contention jitter.
                if on.seconds < base.seconds {
                    continue;
                }
                let rounds = if base.app == BenchmarkName::Asp {
                    20
                } else {
                    12
                };
                let (mut base_total, mut on_total) = (base.seconds, on.seconds);
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
                assert!(
                    on_total < base_total,
                    "{}: overlapped transport did not reduce modeled wall time \
                     ({on_total:.4}s >= {base_total:.4}s aggregated over {} rounds)",
                    base.app,
                    rounds + 1
                );
            }
            "migration" => {
                if on.stats.pages_migrated > 0 && on.stats.diff_messages < base.stats.diff_messages
                {
                    continue;
                }
                // TSP and Barnes-Hut are schedule-chaotic: one fresh strict
                // retry before the aggregate fallback.
                let retry = redraw(&pair);
                if retry.enabled.stats.pages_migrated > 0
                    && retry.enabled.stats.diff_messages < retry.baseline.stats.diff_messages
                {
                    println!("  {}: strict round missed; retry passed", base.app);
                    continue;
                }
                let (mut base_total, mut on_total, mut migrated) = (
                    base.stats.diff_messages,
                    on.stats.diff_messages,
                    on.stats.pages_migrated,
                );
                for _ in 0..5 {
                    let fresh = redraw(&pair);
                    base_total += fresh.baseline.stats.diff_messages;
                    on_total += fresh.enabled.stats.diff_messages;
                    migrated += fresh.enabled.stats.pages_migrated;
                }
                println!(
                    "  {}: strict round missed; aggregate of 6: {on_total} vs {base_total} diffs",
                    base.app
                );
                assert!(migrated > 0, "{}: home migration never fired", base.app);
                assert!(
                    on_total < base_total,
                    "{}: home migration did not reduce diff RPCs \
                     ({on_total} >= {base_total} aggregated over 6 rounds)",
                    base.app
                );
            }
            other => panic!("unknown mechanism {other}"),
        }
    }

    // The fig6 acceptance bound must survive the new transport: java_ad's
    // page loads stay within the worse of the paper's two protocols when
    // every latency-hiding mechanism is on.  Absolute load counts carry the
    // same ±few-page barrier-wake noise as everywhere else, so the bound
    // uses the fig6 pattern: strict round first, aggregate of three on a
    // miss.
    for app in [BenchmarkName::Jacobi, BenchmarkName::Asp] {
        let run = |protocol| {
            run_point_configured(
                app,
                Scale::Quick,
                &myrinet_200(),
                ADAPTIVE_NODES,
                &PolicySpec::latency_hiding(protocol),
                String::new(),
            )
        };
        let round = || {
            let ic = run(ProtocolKind::JavaIc);
            let pf = run(ProtocolKind::JavaPf);
            let ad = run(ProtocolKind::JavaAd);
            (
                ic.stats.page_loads.max(pf.stats.page_loads),
                ad.stats.page_loads,
            )
        };
        let (worst, ad_loads) = round();
        if ad_loads <= worst {
            continue;
        }
        let mut worst_total = 0u64;
        let mut ad_total = 0u64;
        for _ in 0..3 {
            let (w, a) = round();
            worst_total += w;
            ad_total += a;
        }
        println!(
            "  {app}: strict loads round missed ({ad_loads} > {worst}); \
             aggregate of 3: {ad_total} vs {worst_total}"
        );
        // The strict keeper of this bound is the fig6 gate (default
        // transport); here a few pages of slack absorb the ±1-page
        // barrier-wake noise that `worse(two draws)` vs a third draw shows.
        assert!(
            ad_total <= worst_total + 8,
            "{app}: java_ad page loads {ad_total} exceed worse(ic, pf) {worst_total} \
             under the latency-hiding transport (aggregated over 3 rounds)"
        );
    }
    println!();
}

criterion_group!(benches, bench_fig7, verify_transport_invariants);
criterion_main!(benches);

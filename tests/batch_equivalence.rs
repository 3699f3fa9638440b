//! Batched execution equivalence: `--batch` amortises per-packet dispatch,
//! it never changes what a campaign *is*.
//!
//! Three guarantees are pinned here, property-style over batch sizes ×
//! targets × strategies × seeds:
//!
//! 1. **Sequential equivalence for Peach** — the feedback-free baseline's
//!    batched report is bit-identical to the classic per-execution
//!    [`Campaign`] for *any* batch size: windows are reset-aligned, packets
//!    generate in global execution order off the same RNG stream, and
//!    results reduce in the same order through the same seams.
//! 2. **Determinism for Peach\*** — the feedback-driven strategy digests
//!    valuable seeds at batch ends (it has no sequential-equivalence claim,
//!    exactly like its sharded sibling), but a fixed (seed, batch) is fully
//!    reproducible, and with `batch >= window length` the batched stream
//!    coincides with a 1-worker sharded campaign syncing one window per
//!    round — the two barrier-fed modes are the *same* campaign.
//! 3. **Sessions compose** — with session-shaped windows every window is one
//!    whole session; batched session Peach still equals sequential session
//!    Peach.

use peachstar::campaign::{Campaign, CampaignConfig, SessionConfig, ShardConfig, ShardedCampaign};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a report, in one comparable bundle.
#[derive(Debug, PartialEq, Eq)]
struct Deterministic {
    final_paths: usize,
    final_edges: usize,
    responses: u64,
    protocol_errors: u64,
    fault_hits: u64,
    bug_sites: Vec<&'static str>,
    bug_executions: Vec<u64>,
    valuable_seeds: usize,
    corpus_size: usize,
    series_paths: Vec<usize>,
}

fn deterministic(report: &CampaignReport) -> Deterministic {
    Deterministic {
        final_paths: report.final_paths(),
        final_edges: report.series.points().last().map_or(0, |p| p.edges),
        responses: report.responses,
        protocol_errors: report.protocol_errors,
        fault_hits: report.fault_hits,
        bug_sites: report.bugs.iter().map(|b| b.fault.site).collect(),
        bug_executions: report.bugs.iter().map(|b| b.first_execution).collect(),
        valuable_seeds: report.valuable_seeds,
        corpus_size: report.corpus_size,
        series_paths: report.series.points().iter().map(|p| p.paths).collect(),
    }
}

fn config(strategy: StrategyKind, seed: u64) -> CampaignConfig {
    CampaignConfig::new(strategy)
        .executions(1_500)
        .rng_seed(seed)
        .sample_interval(150)
        .reset_interval(250)
}

#[test]
fn batched_peach_equals_sequential_for_any_batch_size() {
    for (target, seed) in [
        (TargetId::Modbus, 3),
        (TargetId::Iec104, 7),
        (TargetId::Lib60870, 77),
        (TargetId::Dnp3, 9),
    ] {
        let cfg = config(StrategyKind::Peach, seed);
        let sequential = deterministic(&Campaign::new(target.create(), cfg).run());
        // Batch sizes straddling every interesting boundary: single-packet
        // batches, sizes that split a 250-execution window unevenly, exact
        // window multiples, and batches larger than the whole budget.
        for batch in [1, 7, 64, 250, 4_000] {
            let batched =
                deterministic(&Campaign::new(target.create(), cfg.batch(batch)).run());
            assert_eq!(
                sequential, batched,
                "Peach on {target} seed {seed}: batch {batch} diverged from sequential"
            );
        }
    }
}

#[test]
fn batch_of_one_collapses_to_the_sequential_loop_even_for_peachstar() {
    // With batch = 1 the batched driver's generate → execute → reduce
    // cadence is exactly the sequential step order (feedback lands before
    // the next packet is generated), so even the feedback-driven strategy
    // must match the classic loop bit for bit.
    for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Iec104, 5)] {
        let cfg = config(StrategyKind::PeachStar, seed);
        let sequential = deterministic(&Campaign::new(target.create(), cfg).run());
        let batched = deterministic(&Campaign::new(target.create(), cfg.batch(1)).run());
        assert_eq!(
            sequential, batched,
            "Peach* on {target} seed {seed}: batch 1 diverged from sequential"
        );
    }
}

#[test]
fn batched_peachstar_is_deterministic_per_batch_size() {
    for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Iec104, 5)] {
        for batch in [1, 64, 250] {
            let cfg = config(StrategyKind::PeachStar, seed).batch(batch);
            let first = deterministic(&Campaign::new(target.create(), cfg).run());
            let second = deterministic(&Campaign::new(target.create(), cfg).run());
            assert_eq!(
                first, second,
                "Peach* on {target} seed {seed} batch {batch}: not reproducible"
            );
            assert_eq!(
                first.responses + first.protocol_errors + first.fault_hits,
                1_500,
                "every execution reduced exactly once"
            );
            assert!(first.corpus_size > 0, "feedback reaches the strategy");
        }
    }
}

#[test]
fn batched_peachstar_with_whole_windows_equals_single_worker_sharding() {
    // With `batch >= window length` every batch is exactly one reset window,
    // so the batched loop performs the same generate-window → execute →
    // reduce rounds as a 1-worker sharded campaign syncing one window per
    // round. The two barrier-fed modes must therefore produce the *same*
    // campaign — for both strategies, not just the feedback-free one.
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [(TargetId::Modbus, 11), (TargetId::Iec104, 5)] {
            let cfg = config(strategy, seed);
            let batched =
                deterministic(&Campaign::new(target.create(), cfg.batch(250)).run());
            let sharded = deterministic(
                &ShardedCampaign::new(
                    target.create(),
                    cfg,
                    ShardConfig::with_workers(1).sync_windows(1),
                )
                .run(),
            );
            assert_eq!(
                batched, sharded,
                "{strategy} on {target} seed {seed}: batched != 1w sharded"
            );
        }
    }
}

#[test]
fn batched_session_peach_equals_sequential_session_campaign() {
    // Session-shaped windows: 1 handshake + 6 payload + 1 teardown packets,
    // PerSession resets — every window is one whole session, so sessions
    // batch naturally (a batch never tears a session apart unless asked to
    // with a smaller batch size, which still reduces in execution order).
    for (target, seed) in [
        (TargetId::Iec104, 1),
        (TargetId::Lib60870, 5),
        (TargetId::Iccp, 42),
    ] {
        let cfg = CampaignConfig::new(StrategyKind::Peach)
            .executions(1_200)
            .rng_seed(seed)
            .sample_interval(150)
            .sessions(SessionConfig::new(6));
        let sequential = deterministic(&Campaign::new(target.create(), cfg).run());
        for batch in [3, 8, 256] {
            let batched =
                deterministic(&Campaign::new(target.create(), cfg.batch(batch)).run());
            assert_eq!(
                sequential, batched,
                "session Peach on {target} seed {seed}: batch {batch} diverged"
            );
        }
    }
}

#[test]
fn summary_decode_never_changes_a_batched_report() {
    // Batched windows decode with the summary sink: decoders skip response
    // assembly and error-string formatting, which the campaign loop never
    // reads, while control flow, state and traces stay identical. An armed
    // watchdog runs the same windows per packet with full decodes, so every
    // deterministic report field must match it bit for bit — for every
    // target, both strategies, and across batch sizes.
    for (target, seed) in [
        (TargetId::Modbus, 3),
        (TargetId::Iec104, 7),
        (TargetId::Lib60870, 77),
        (TargetId::Dnp3, 9),
        (TargetId::Iccp, 42),
        (TargetId::Iec61850, 13),
    ] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            for batch in [7, 250] {
                let cfg = config(strategy, seed).batch(batch);
                let summary = deterministic(&Campaign::new(target.create(), cfg).run());
                let full = deterministic(
                    &Campaign::new(target.create(), cfg.exec_timeout_ms(60_000)).run(),
                );
                assert_eq!(
                    full, summary,
                    "{strategy} on {target} seed {seed} batch {batch}: summary decode diverged"
                );
            }
        }
    }
}

#[test]
fn summary_decode_never_changes_a_sharded_report() {
    // Workers decode their fast-path windows with the same sink; the
    // supervised worker path decodes in full, so worker-count invariance
    // and summary/full equality compose.
    for (target, seed) in [(TargetId::Modbus, 11), (TargetId::Iec104, 5)] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            for workers in [1, 3] {
                let cfg = config(strategy, seed).batch(64);
                let shard = ShardConfig::with_workers(workers).sync_windows(2);
                let summary = deterministic(
                    &ShardedCampaign::new(target.create(), cfg, shard).run(),
                );
                let full_decode = cfg.exec_timeout_ms(60_000);
                let full = deterministic(
                    &ShardedCampaign::new(target.create(), full_decode, shard).run(),
                );
                assert_eq!(
                    full, summary,
                    "{strategy} on {target} seed {seed}, {workers} workers: \
                     sharded summary decode diverged"
                );
            }
        }
    }
}

#[test]
fn batch_size_is_part_of_peachstar_semantics() {
    // Documentation of the design rather than a requirement: the batch size
    // decides when Peach* digests valuable seeds, so different batch sizes
    // are different (each individually deterministic) campaigns — while the
    // feedback-free baseline provably cannot see the batch size at all
    // (asserted exhaustively above).
    let cfg = config(StrategyKind::PeachStar, 3);
    let narrow = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg.batch(1)).run());
    let wide = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg.batch(250)).run());
    // Narrow batches deliver feedback almost per-execution; the packet
    // streams diverge as soon as the first valuable seed queues a semantic
    // batch earlier. (Equality would mean feedback never influenced
    // generation — a broken Peach*.)
    assert_ne!(
        narrow, wide,
        "Peach* must see the barrier cadence; identical reports mean feedback is dead"
    );
}

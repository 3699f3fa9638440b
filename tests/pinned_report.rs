//! Pinned campaign reports: regression values captured *before* the sparse
//! trace-recording / zero-allocation refactor (PR 2).
//!
//! The refactor (dirty-slot trace maps, reused trace context, cached linear
//! layouts, `Arc` donor sharing, seed-pool moves) is required to be
//! behaviour-preserving: for a fixed (target, strategy, seed, budget) the
//! campaign must produce bit-identical coverage counts, outcome tallies and
//! bug lists. These constants were captured from the dense, allocating
//! implementation; any drift here means an optimisation changed observable
//! fuzzing behaviour, not just its speed.

use peachstar::campaign::{Campaign, CampaignConfig, ShardConfig, ShardedCampaign};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a `CampaignReport`, in one comparable bundle.
#[derive(Debug, PartialEq, Eq)]
struct PinnedReport {
    final_paths: usize,
    final_edges: usize,
    responses: u64,
    protocol_errors: u64,
    fault_hits: u64,
    unique_bugs: usize,
    valuable_seeds: usize,
    corpus_size: usize,
}

fn run_config(target: TargetId, config: CampaignConfig) -> PinnedReport {
    pinned(&Campaign::new(target.create(), config).run())
}

fn pinned(report: &CampaignReport) -> PinnedReport {
    let last = report
        .series
        .points()
        .last()
        .expect("series has at least the final sample");
    PinnedReport {
        final_paths: report.final_paths(),
        final_edges: last.edges,
        responses: report.responses,
        protocol_errors: report.protocol_errors,
        fault_hits: report.fault_hits,
        unique_bugs: report.unique_bugs(),
        valuable_seeds: report.valuable_seeds,
        corpus_size: report.corpus_size,
    }
}

fn run(target: TargetId, strategy: StrategyKind, seed: u64, executions: u64) -> PinnedReport {
    let config = CampaignConfig::new(strategy)
        .executions(executions)
        .rng_seed(seed)
        .sample_interval(200);
    run_config(target, config)
}

#[test]
fn modbus_peachstar_report_is_pinned() {
    assert_eq!(
        run(TargetId::Modbus, StrategyKind::PeachStar, 3, 3_000),
        PinnedReport {
            final_paths: 76,
            final_edges: 103,
            responses: 1_427,
            protocol_errors: 1_568,
            fault_hits: 5,
            unique_bugs: 2,
            valuable_seeds: 73,
            corpus_size: 196,
        }
    );
}

#[test]
fn modbus_peach_baseline_report_is_pinned() {
    assert_eq!(
        run(TargetId::Modbus, StrategyKind::Peach, 3, 3_000),
        PinnedReport {
            final_paths: 89,
            final_edges: 125,
            responses: 953,
            protocol_errors: 2_040,
            fault_hits: 7,
            unique_bugs: 2,
            valuable_seeds: 89,
            corpus_size: 0,
        }
    );
}

#[test]
fn batched_modbus_peach_baseline_matches_the_pinned_report() {
    // The batched driver against the constants captured from the dense
    // implementation, deliberately un-recaptured: batching amortises
    // dispatch into one call per window, but may not move a single
    // count of the feedback-free baseline, whatever the batch size.
    for batch in [64, 250, 4_000] {
        let config = CampaignConfig::new(StrategyKind::Peach)
            .executions(3_000)
            .rng_seed(3)
            .sample_interval(200)
            .batch(batch);
        assert_eq!(
            run_config(TargetId::Modbus, config),
            PinnedReport {
                final_paths: 89,
                final_edges: 125,
                responses: 953,
                protocol_errors: 2_040,
                fault_hits: 7,
                unique_bugs: 2,
                valuable_seeds: 89,
                corpus_size: 0,
            },
            "batch {batch}"
        );
    }
}

#[test]
fn lib60870_peachstar_report_is_pinned() {
    assert_eq!(
        run(TargetId::Lib60870, StrategyKind::PeachStar, 77, 2_000),
        PinnedReport {
            final_paths: 31,
            final_edges: 50,
            responses: 731,
            protocol_errors: 1_250,
            fault_hits: 19,
            unique_bugs: 2,
            valuable_seeds: 30,
            corpus_size: 223,
        }
    );
}

#[test]
fn iec104_peachstar_report_is_pinned() {
    assert_eq!(
        run(TargetId::Iec104, StrategyKind::PeachStar, 5, 2_500),
        PinnedReport {
            final_paths: 35,
            final_edges: 51,
            responses: 849,
            protocol_errors: 1_651,
            fault_hits: 0,
            unique_bugs: 0,
            valuable_seeds: 32,
            corpus_size: 192,
        }
    );
}

#[test]
fn sharded_modbus_peachstar_report_is_pinned() {
    // The worker topology's Peach* stream: two workers, a merge barrier
    // every 8 windows of 2,000 executions (one full round and a partial
    // one). Peach* digests its feedback at the barrier, so this stream is
    // its own, pinned nowhere else.
    let config = CampaignConfig::new(StrategyKind::PeachStar)
        .executions(20_000)
        .rng_seed(11)
        .sample_interval(200);
    let report = ShardedCampaign::new(
        TargetId::Modbus.create(),
        config,
        ShardConfig::with_workers(2),
    )
    .run();
    assert_eq!(
        pinned(&report),
        PinnedReport {
            final_paths: 192,
            final_edges: 219,
            responses: 6_344,
            protocol_errors: 13_574,
            fault_hits: 82,
            unique_bugs: 2,
            valuable_seeds: 172,
            corpus_size: 639,
        }
    );
}

//! Transport equivalence: the wire between the executor and the target is
//! an operational detail, never part of campaign semantics.
//!
//! Three guarantees are pinned here, property-style over targets × seeds:
//!
//! 1. **Bit-identity** — a campaign over the framed-TCP transport produces
//!    the same report as the in-process campaign, for all six protocol
//!    targets and both strategies. The transport relays `(outcome, trace)`
//!    pairs verbatim and the server executes packets with exactly the
//!    executor's containment/reset sequence, so nothing can diverge.
//! 2. **Connection-count invariance** — 1, 2 and 4 connections (`--shards
//!    {1,2,4} --transport tcp`) produce bit-identical reports at the merge
//!    barrier, mirroring `tests/shard_determinism.rs`: connections *are*
//!    the workers of the worker topology behind the wire, so worker
//!    invariance carries over unchanged.
//! 3. **Cross-transport resume** — a checkpoint recorded under TCP resumes
//!    in-process bit-exactly (and vice versa): the snapshot fingerprint
//!    deliberately excludes the transport and the connection count.

use peachstar::campaign::{
    Campaign, CampaignConfig, RunPlan, SessionConfig, ShardConfig, ShardedCampaign, TransportMode,
};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a report, in one comparable bundle
/// (everything except wall time).
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
        .executions(1_200)
        .rng_seed(seed)
        .sample_interval(150)
        .reset_interval(250)
}

#[test]
fn framed_tcp_campaign_equals_in_process_for_every_target() {
    // Guarantee 1 over all six targets × both strategies: the sequential
    // campaign's report is a function of (target, strategy, seed, budget),
    // never of the transport under it.
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (index, target) in TargetId::ALL.into_iter().enumerate() {
            let seed = 11 + index as u64;
            let in_process =
                deterministic(&Campaign::new(target.create(), config(strategy, seed)).run());
            let over_tcp = deterministic(
                &Campaign::new(
                    target.create(),
                    config(strategy, seed).transport(TransportMode::FramedTcp),
                )
                .run(),
            );
            assert_eq!(
                in_process, over_tcp,
                "{strategy} on {target:?} seed {seed}: TCP transport diverged"
            );
        }
    }
}

#[test]
fn framed_tcp_batched_campaign_equals_in_process() {
    // Batched windows ride the wire as one round-trip per window, run
    // server-side in one call; outcomes and traces must reduce to the same
    // records the per-packet loop makes.
    for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Iec61850, 21)] {
        let cfg = config(StrategyKind::PeachStar, seed).batch(128);
        let in_process = deterministic(&Campaign::new(target.create(), cfg).run());
        let over_tcp = deterministic(
            &Campaign::new(target.create(), cfg.transport(TransportMode::FramedTcp)).run(),
        );
        assert_eq!(
            in_process, over_tcp,
            "batched Peach* on {target:?} seed {seed}: TCP transport diverged"
        );
    }
}

#[test]
fn framed_tcp_session_campaign_equals_in_process() {
    // Session-shaped campaigns (handshake + payload + teardown windows)
    // cross the wire packet by packet with the same per-session resets.
    for (target, seed) in [(TargetId::Iec104, 5), (TargetId::Iccp, 42)] {
        let cfg = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(1_200)
            .rng_seed(seed)
            .sample_interval(150)
            .sessions(SessionConfig::new(6));
        let in_process = deterministic(&Campaign::new(target.create(), cfg).run());
        let over_tcp = deterministic(
            &Campaign::new(target.create(), cfg.transport(TransportMode::FramedTcp)).run(),
        );
        assert_eq!(
            in_process, over_tcp,
            "sessions on {target:?} seed {seed}: TCP transport diverged"
        );
    }
}

/// A worker-topology campaign over `count` live framed-TCP connections.
fn connections(target: TargetId, cfg: CampaignConfig, count: usize) -> Campaign {
    ShardedCampaign::new(
        target.create(),
        cfg.transport(TransportMode::FramedTcp),
        ShardConfig::with_workers(count).sync_windows(4),
    )
}

fn stop_at(campaign: Campaign, stop: u64) -> peachstar::CampaignSnapshot {
    let plan = RunPlan { stop_after: Some(stop), ..RunPlan::default() };
    let (_, snapshot) = campaign.run_plan(plan).expect("runs to the boundary");
    snapshot.expect("a stop returns its snapshot")
}

fn resume(campaign: Campaign, snapshot: &peachstar::CampaignSnapshot) -> CampaignReport {
    let plan = RunPlan { resume: Some(snapshot), ..RunPlan::default() };
    campaign.run_plan(plan).expect("resumes").0
}

#[test]
fn connection_count_never_changes_the_report() {
    // Guarantee 2: one campaign multiplexing N live connections reduces
    // per-connection outcomes at the merge barrier in global execution
    // order, so N is invisible in the report — and the whole thing equals
    // the in-process sharded engine with the same barrier cadence.
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Lib60870, 77)] {
            let sharded_in_process = deterministic(
                &ShardedCampaign::new(
                    target.create(),
                    config(strategy, seed),
                    ShardConfig::with_workers(2).sync_windows(4),
                )
                .run(),
            );
            for count in [1, 2, 4] {
                let live = deterministic(&connections(target, config(strategy, seed), count).run());
                assert_eq!(
                    sharded_in_process, live,
                    "{strategy} on {target:?} seed {seed}: {count} connections diverged"
                );
            }
        }
    }
}

#[test]
fn tcp_recorded_checkpoint_resumes_in_process_bit_exactly() {
    // Guarantee 3, sequential engine: interrupt a framed-TCP campaign at a
    // window boundary, resume the snapshot with the in-process transport,
    // and land on the uninterrupted in-process report.
    let cfg = config(StrategyKind::PeachStar, 9);
    let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());

    let over_tcp = Campaign::new(
        TargetId::Modbus.create(),
        cfg.transport(TransportMode::FramedTcp),
    );
    let boundary = over_tcp
        .window_boundaries()
        .into_iter()
        .find(|&end| end >= 500)
        .expect("a boundary past 500");
    let snapshot = stop_at(over_tcp, boundary);

    let resumed = resume(Campaign::new(TargetId::Modbus.create(), cfg), &snapshot);
    assert_eq!(
        complete,
        deterministic(&resumed),
        "cross-transport resume diverged from the uninterrupted run"
    );
}

#[test]
fn connection_checkpoint_resumes_on_any_worker_or_connection_count() {
    // Guarantee 3, parallel engine: a checkpoint recorded by a 4-connection
    // live-socket campaign resumes on the in-process sharded engine (any
    // worker count) and on a different connection count, all bit-exactly.
    let cfg = config(StrategyKind::PeachStar, 13);
    let shard = |workers: usize| {
        ShardedCampaign::new(
            TargetId::Iec104.create(),
            cfg,
            ShardConfig::with_workers(workers).sync_windows(4),
        )
    };
    let complete = deterministic(&shard(2).run());

    let recorder = connections(TargetId::Iec104, cfg, 4);
    let boundary = recorder
        .round_boundaries()
        .into_iter()
        .find(|&end| end >= 500)
        .expect("a merge barrier past 500");
    let snapshot = stop_at(recorder, boundary);

    for workers in [1, 3] {
        let resumed = resume(shard(workers), &snapshot);
        assert_eq!(
            complete,
            deterministic(&resumed),
            "{workers} in-process workers diverged resuming a TCP checkpoint"
        );
    }
    let resumed = resume(connections(TargetId::Iec104, cfg, 2), &snapshot);
    assert_eq!(
        complete,
        deterministic(&resumed),
        "a different connection count diverged resuming the checkpoint"
    );
}

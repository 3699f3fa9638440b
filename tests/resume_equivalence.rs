//! Resume equivalence: interrupting a campaign at *any* window boundary and
//! resuming from the snapshot must reproduce the uninterrupted run bit for
//! bit.
//!
//! Every test follows the same shape: run the campaign to completion, then
//! for **every** reset-aligned boundary run the same campaign only up to
//! that boundary, round-trip the snapshot through the wire format, resume a
//! *fresh* campaign from the decoded snapshot, and require the final report
//! to be identical — across strategies × targets × batch sizes × sessions ×
//! sharded merge barriers, plus chained (interrupt-the-resumed-run-again)
//! interruptions.

use peachstar::campaign::{
    Campaign, CampaignConfig, RunPlan, SessionConfig, ShardConfig, ShardedCampaign, Topology,
};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotError};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a report, in one comparable bundle
/// (everything except wall-clock timing).
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
        .executions(1_000)
        .rng_seed(seed)
        .sample_interval(100)
        .reset_interval(250)
}

/// Encode → decode → re-encode must be the identity on bytes; returns the
/// decoded snapshot so every resume below also exercises the wire format.
fn wire_round_trip(snapshot: &CampaignSnapshot) -> CampaignSnapshot {
    let bytes = snapshot.encode();
    let decoded = CampaignSnapshot::decode(&bytes).expect("snapshot decodes");
    assert_eq!(decoded.encode(), bytes, "canonical encoding round-trips");
    decoded
}

/// Runs `campaign` (resumed from `from`, if given) up to the round boundary
/// `stop` and returns the snapshot taken there.
fn stop_at(
    campaign: Campaign,
    from: Option<&CampaignSnapshot>,
    stop: u64,
) -> Result<CampaignSnapshot, SnapshotError> {
    let plan = RunPlan { resume: from, stop_after: Some(stop), ..RunPlan::default() };
    let (_, snapshot) = campaign.run_plan(plan)?;
    Ok(snapshot.expect("a stop returns its snapshot"))
}

/// Resumes `campaign` from `snapshot` to completion.
fn resume(
    campaign: Campaign,
    snapshot: &CampaignSnapshot,
) -> Result<CampaignReport, SnapshotError> {
    let plan = RunPlan { resume: Some(snapshot), ..RunPlan::default() };
    campaign.run_plan(plan).map(|(report, _)| report)
}

#[test]
fn sequential_resume_at_every_boundary_matches_uninterrupted() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Iec104, 7)] {
            let cfg = config(strategy, seed);
            let complete = deterministic(&Campaign::new(target.create(), cfg).run());
            let boundaries = Campaign::new(target.create(), cfg).window_boundaries();
            assert_eq!(*boundaries.last().expect("boundaries"), 1_000);
            for &boundary in &boundaries {
                let snapshot = stop_at(Campaign::new(target.create(), cfg), None, boundary)
                    .expect("runs to the boundary");
                assert_eq!(snapshot.completed, boundary);
                let snapshot = wire_round_trip(&snapshot);
                let resumed = resume(Campaign::new(target.create(), cfg), &snapshot)
                    .expect("resumes");
                assert_eq!(
                    complete,
                    deterministic(&resumed),
                    "{strategy} on {target} seed {seed}: resume at {boundary} diverged"
                );
            }
        }
    }
}

#[test]
fn batched_resume_at_every_boundary_matches_uninterrupted() {
    for batch in [64, 250] {
        let cfg = config(StrategyKind::PeachStar, 5).batch(batch);
        let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
        let boundaries = Campaign::new(TargetId::Modbus.create(), cfg).window_boundaries();
        for &boundary in &boundaries {
            let snapshot = stop_at(Campaign::new(TargetId::Modbus.create(), cfg), None, boundary)
                .expect("runs to the boundary");
            let snapshot = wire_round_trip(&snapshot);
            let resumed = resume(Campaign::new(TargetId::Modbus.create(), cfg), &snapshot)
                .expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "batch {batch}: resume at {boundary} diverged"
            );
        }
    }
}

#[test]
fn session_resume_at_every_session_boundary_matches_uninterrupted() {
    // Session-shaped windows: every boundary is a whole-session end, so the
    // restored schedule cursor is always 0 and the handshake replays from
    // the top of the next session.
    for (target, seed) in [(TargetId::Iec104, 1), (TargetId::Lib60870, 5)] {
        let cfg = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(400)
            .rng_seed(seed)
            .sample_interval(50)
            .sessions(SessionConfig::new(6));
        let complete = deterministic(&Campaign::new(target.create(), cfg).run());
        let boundaries = Campaign::new(target.create(), cfg).window_boundaries();
        assert!(boundaries.len() > 10, "plenty of session boundaries to test");
        for &boundary in &boundaries {
            let snapshot = stop_at(Campaign::new(target.create(), cfg), None, boundary)
                .expect("runs to the boundary");
            let snapshot = wire_round_trip(&snapshot);
            let resumed = resume(Campaign::new(target.create(), cfg), &snapshot)
                .expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "sessions on {target} seed {seed}: resume at {boundary} diverged"
            );
        }
    }
}

#[test]
fn sharded_resume_at_every_barrier_matches_uninterrupted() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let cfg = config(strategy, 3);
        let shard = ShardConfig::with_workers(2).sync_windows(1);
        let complete = deterministic(
            &ShardedCampaign::new(TargetId::Modbus.create(), cfg, shard).run(),
        );
        let barriers =
            ShardedCampaign::new(TargetId::Modbus.create(), cfg, shard).round_boundaries();
        for &barrier in &barriers {
            let sharded = ShardedCampaign::new(TargetId::Modbus.create(), cfg, shard);
            let snapshot = stop_at(sharded, None, barrier)
                .expect("runs to the barrier");
            assert_eq!(snapshot.completed, barrier);
            let snapshot = wire_round_trip(&snapshot);
            let sharded = ShardedCampaign::new(TargetId::Modbus.create(), cfg, shard);
            let resumed = resume(sharded, &snapshot)
                .expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "sharded {strategy}: resume at barrier {barrier} diverged"
            );
        }
    }
}

#[test]
fn sharded_snapshot_resumes_under_any_worker_count() {
    // The worker count is deliberately not part of the snapshot fingerprint:
    // barriers synchronise the full campaign state, so a snapshot taken with
    // N workers must resume bit-exactly under any other worker count.
    let cfg = config(StrategyKind::PeachStar, 11);
    let shard_two = ShardConfig::with_workers(2).sync_windows(2);
    let complete = deterministic(
        &ShardedCampaign::new(TargetId::Iec104.create(), cfg, shard_two).run(),
    );
    let barrier = ShardedCampaign::new(TargetId::Iec104.create(), cfg, shard_two)
        .round_boundaries()[0];
    let sharded = ShardedCampaign::new(TargetId::Iec104.create(), cfg, shard_two);
    let snapshot = stop_at(sharded, None, barrier)
        .expect("runs to the barrier");
    for workers in [1, 3] {
        let shard = ShardConfig::with_workers(workers).sync_windows(2);
        let resumed = resume(ShardedCampaign::new(TargetId::Iec104.create(), cfg, shard), &snapshot)
            .expect("resumes");
        assert_eq!(
            complete,
            deterministic(&resumed),
            "worker count {workers} changed the resumed campaign"
        );
    }
    // Workers ignore the batch, and so does a sharded fingerprint: a
    // snapshot taken under `batch(250)` resumes with the batch unset, also
    // when it holds that batch, as an earlier build wrote it.
    let batched = ShardedCampaign::new(TargetId::Iec104.create(), cfg.batch(250), shard_two);
    let mut snapshot = stop_at(batched, None, barrier).expect("runs to the barrier");
    assert_eq!(snapshot.meta.batch, None, "a sharded fingerprint holds no batch");
    for written_batch in [None, Some(250)] {
        snapshot.meta.batch = written_batch;
        let resumed = resume(
            ShardedCampaign::new(TargetId::Iec104.create(), cfg, shard_two),
            &snapshot,
        )
        .expect("a batch(250) snapshot resumes with the batch unset");
        assert_eq!(complete, deterministic(&resumed), "{written_batch:?}");
    }
}

#[test]
fn chained_interruptions_compose() {
    // Interrupt, resume, interrupt the resumed run again, resume again: the
    // double-interrupted campaign still matches the uninterrupted one.
    let cfg = config(StrategyKind::PeachStar, 3);
    let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
    let boundaries = Campaign::new(TargetId::Modbus.create(), cfg).window_boundaries();
    let (first, second) = (boundaries[0], boundaries[2]);
    let snapshot = stop_at(Campaign::new(TargetId::Modbus.create(), cfg), None, first)
        .expect("first interruption");
    let from = wire_round_trip(&snapshot);
    let snapshot = stop_at(Campaign::new(TargetId::Modbus.create(), cfg), Some(&from), second)
        .expect("second interruption");
    assert_eq!(snapshot.completed, second);
    let resumed = resume(Campaign::new(TargetId::Modbus.create(), cfg), &wire_round_trip(&snapshot))
        .expect("final resume");
    assert_eq!(complete, deterministic(&resumed));
}

#[test]
fn checkpointed_run_writes_resumable_snapshots_and_matches_plain_run() {
    let path = std::env::temp_dir().join(format!(
        "peachstar-resume-equivalence-{}.snap",
        std::process::id()
    ));
    let cfg = config(StrategyKind::PeachStar, 3);
    let plain = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
    let checkpointed = Campaign::new(TargetId::Modbus.create(), cfg)
        .run_checkpointed(&CheckpointConfig::new(path.clone(), 1))
        .expect("checkpointed run");
    assert_eq!(plain, deterministic(&checkpointed), "checkpointing is observationally free");

    // The last checkpoint on disk is the final state and resumes to the
    // identical (already finished) report.
    let snapshot = CampaignSnapshot::read_from(&path).expect("snapshot readable");
    std::fs::remove_file(&path).ok();
    assert_eq!(snapshot.completed, 1_000);
    let resumed = resume(Campaign::new(TargetId::Modbus.create(), cfg), &snapshot)
        .expect("resume of a finished campaign");
    assert_eq!(plain, deterministic(&resumed));
}

#[test]
fn misaligned_or_mismatched_resume_is_rejected() {
    // Both topologies share one validation: the same plans are rejected the
    // same way inline and on workers.
    let cfg = config(StrategyKind::PeachStar, 3);
    let inline = Campaign::new(TargetId::Modbus.create(), cfg);
    assert_eq!(inline.round_boundaries(), inline.window_boundaries(), "inline round = window");
    let workers = Topology::Workers(ShardConfig::with_workers(2).sync_windows(2));
    for topology in [Topology::Inline, workers] {
        let make = |target: TargetId, cfg| Campaign::new(target.create(), cfg).topology(topology);
        let windows = make(TargetId::Modbus, cfg).window_boundaries();
        let rounds = make(TargetId::Modbus, cfg).round_boundaries();
        let boundary = rounds[0];
        let snapshot = stop_at(make(TargetId::Modbus, cfg), None, boundary).expect("stops");

        // Not a round boundary: mid-window, or a window end inside a round.
        let inside = windows.iter().copied().filter(|end| !rounds.contains(end));
        for stop in inside.chain([boundary + 1]) {
            let stopped = stop_at(make(TargetId::Modbus, cfg), None, stop);
            assert!(stopped.is_err(), "{topology:?} stop {stop}");
        }
        // Wrong target, strategy or seed.
        for (target, cfg) in [
            (TargetId::Iec104, cfg),
            (TargetId::Modbus, config(StrategyKind::Peach, 3)),
            (TargetId::Modbus, cfg.rng_seed(4)),
        ] {
            assert!(resume(make(target, cfg), &snapshot).is_err(), "{topology:?} {target:?}");
        }
        // Resuming further than the stop boundary is fine; resuming *to* the
        // same (or an earlier) one is not.
        assert!(stop_at(make(TargetId::Modbus, cfg), Some(&snapshot), boundary).is_err());
    }
}

#[test]
fn capture_final_returns_the_final_snapshot_on_both_topologies() {
    let capture = RunPlan { capture_final: true, ..RunPlan::default() };
    let workers = Topology::Workers(ShardConfig::with_workers(2));
    for executions in [0, 1_000] {
        let cfg = config(StrategyKind::PeachStar, 3).executions(executions);
        for topology in [Topology::Inline, workers] {
            let campaign = Campaign::new(TargetId::Modbus.create(), cfg).topology(topology);
            let (report, snapshot) = campaign.run_plan(capture).expect("capture-only run");
            let snapshot = snapshot.expect("capture_final returns a snapshot");
            assert_eq!((report.executions, snapshot.completed), (executions, executions));
        }
    }
}

#[test]
fn checkpoint_cadence_writes_the_same_slots_on_every_topology() {
    // Five windows end at 249, 499, 749, 999 and 1 000. A round writes a
    // checkpoint when it completes another `every_windows` windows (a zero
    // cadence means every round) and at the end of the campaign.
    let cfg = config(StrategyKind::PeachStar, 3);
    let cases = [
        (cfg, Topology::Inline),
        (cfg.batch(64), Topology::Inline),
        (cfg, Topology::Workers(ShardConfig::with_workers(1).sync_windows(1))),
        (cfg, Topology::Workers(ShardConfig::with_workers(2).sync_windows(3))),
    ];
    for (index, (cfg, topology)) in cases.into_iter().enumerate() {
        let campaign = || Campaign::new(TargetId::Modbus.create(), cfg).topology(topology);
        let rounds = campaign().round_boundaries();
        for (every, expected) in [(0, rounds.clone()), (1, rounds.clone()), (3, vec![749, 1_000])] {
            let dir = std::env::temp_dir()
                .join(format!("peachstar-cadence-{}-{index}-{every}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let mut checkpoint = CheckpointConfig::new(dir.clone(), 1).rotation(16);
            checkpoint.every_windows = every;
            campaign().run_checkpointed(&checkpoint).expect("checkpointed run");
            let mut written: Vec<u64> = std::fs::read_dir(&dir)
                .expect("rotation dir")
                .flatten()
                .filter_map(|entry| {
                    let name = entry.file_name().into_string().ok()?;
                    name.strip_prefix("ckpt-")?.strip_suffix(".peachsnp")?.parse().ok()
                })
                .collect();
            written.sort_unstable();
            std::fs::remove_dir_all(&dir).ok();
            assert!(expected.iter().all(|end| rounds.contains(end)));
            assert_eq!(written, expected, "{topology:?} batch {:?} every {every}", cfg.batch);
        }
    }
}

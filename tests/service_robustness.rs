//! Service robustness matrix: the supervised service layer must never trade
//! determinism for resilience.
//!
//! * A graceful stop (direct or via the control socket) finishes the
//!   current window, writes a final checkpoint into the rotation, and the
//!   resumed campaign is bit-identical to the uninterrupted run.
//! * A SIGKILL at any moment leaves some suffix of the rotation intact;
//!   resuming from **every** rotation slot converges to the same final
//!   report, and a corrupted newest-prefix of the rotation is skipped until
//!   a valid slot restores (property-tested below).
//! * A flapping server — connections deterministically dropped mid-campaign
//!   by the server-side [`WireChaos`] injector — yields the same final
//!   report as a healthy wire at equal budget (journal replay).
//! * A connection that exhausts its reconnect budget degrades onto the
//!   surviving connections; the report still matches the healthy run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use peachstar::campaign::{
    Campaign, CampaignConfig, ReconnectPolicy, RunPlan, ShardConfig, ShardedCampaign, TransportMode,
};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig};
use peachstar::strategy::StrategyKind;
use peachstar::{CampaignReport, ControlServer, ServiceHooks};
use peachstar_protocols::{TargetId, WireChaos};

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

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::new(StrategyKind::PeachStar)
        .executions(1_000)
        .rng_seed(seed)
        .sample_interval(100)
        .reset_interval(250)
}

/// Runs `campaign` under `plan` and returns its report.
fn run(campaign: Campaign, plan: RunPlan<'_>) -> CampaignReport {
    campaign.run_plan(plan).expect("campaign run").0
}

/// A unique scratch rotation directory, wiped clean before use.
fn scratch_dir(tag: &str) -> PathBuf {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "peachstar-service-robustness-{tag}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The rotation slot files in `dir`, newest first.
fn rotation_slots(dir: &Path) -> Vec<PathBuf> {
    let mut slots: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("rotation dir readable")
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "peachsnp"))
        .collect();
    slots.sort_unstable();
    slots.reverse();
    slots
}

#[test]
fn graceful_stop_then_resume_latest_is_bit_identical_to_uninterrupted() {
    let cfg = config(3);
    let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());

    let dir = scratch_dir("graceful");
    let checkpoint = CheckpointConfig::new(dir.clone(), 1).rotation(3);

    // Request the stop up front: the service drains at the first window
    // boundary — deterministically — and writes a final checkpoint there.
    let hooks = ServiceHooks::new(cfg.executions);
    hooks.request_stop();
    let supervised =
        RunPlan { checkpoint: Some(&checkpoint), service: Some(&hooks), ..RunPlan::default() };
    let partial = run(Campaign::new(TargetId::Modbus.create(), cfg), supervised);
    assert!(
        partial.executions < cfg.executions,
        "the drain must stop before the budget: stopped at {}",
        partial.executions
    );
    assert_eq!(
        hooks.status().last_checkpoint,
        Some(partial.executions),
        "the final checkpoint covers the stop boundary"
    );

    // A fresh process recovers the newest rotation slot and resumes to the
    // identical report.
    let snapshot = CampaignSnapshot::resume_latest(&dir)
        .expect("rotation scan")
        .expect("the stop wrote a restorable checkpoint");
    assert_eq!(snapshot.completed, partial.executions);
    let resumed_hooks = ServiceHooks::new(cfg.executions);
    let plan = RunPlan { resume: Some(&snapshot), service: Some(&resumed_hooks), ..supervised };
    let resumed = run(Campaign::new(TargetId::Modbus.create(), cfg), plan);
    assert_eq!(resumed.executions, cfg.executions);
    assert_eq!(complete, deterministic(&resumed), "graceful stop + resume diverged");
    assert_eq!(resumed_hooks.status().executions, cfg.executions);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unstopped_supervised_run_is_observationally_free() {
    // Supervision (status publication + rolling checkpoints) must not
    // change the campaign; a stop request landing on the final window is a
    // normal completion.
    let cfg = config(5);
    let plain = deterministic(&Campaign::new(TargetId::Iec104.create(), cfg).run());
    let dir = scratch_dir("free");
    let hooks = ServiceHooks::new(cfg.executions);
    let checkpoint = CheckpointConfig::new(dir.clone(), 2).rotation(2);
    let plan =
        RunPlan { checkpoint: Some(&checkpoint), service: Some(&hooks), ..RunPlan::default() };
    let supervised = run(Campaign::new(TargetId::Iec104.create(), cfg), plan);
    assert_eq!(supervised.executions, cfg.executions);
    assert_eq!(plain, deterministic(&supervised));
    let status = hooks.status();
    assert_eq!(status.executions, cfg.executions);
    assert_eq!(status.last_checkpoint, Some(cfg.executions));
    assert_eq!(status.paths, supervised.final_paths());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_control_socket_stop_drains_and_the_service_resumes_to_the_same_report() {
    let cfg = config(7).executions(5_000).reset_interval(100);
    let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());

    let dir = scratch_dir("control");
    let checkpoint = CheckpointConfig::new(dir.clone(), 1).rotation(4);
    let hooks = ServiceHooks::new(cfg.executions);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind control");
    let mut control = ControlServer::start(listener, Arc::clone(&hooks)).expect("control server");
    let addr = control.addr();

    // An operator on the wire: poll `status` until the campaign has made
    // progress, then issue `stop`.
    let operator = std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(addr).expect("connect control");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut reply = String::new();
        loop {
            writer.write_all(b"status\n").expect("send status");
            reply.clear();
            reader.read_line(&mut reply).expect("status reply");
            let executions: u64 = reply
                .split("\"executions\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|digits| digits.parse().ok())
                .expect("status carries an execution count");
            if executions > 0 {
                writer.write_all(b"stop\n").expect("send stop");
                reply.clear();
                reader.read_line(&mut reply).expect("stop reply");
                assert!(reply.contains("\"stopping\":true"), "{reply}");
                return;
            }
            std::thread::yield_now();
        }
    });

    let plan =
        RunPlan { checkpoint: Some(&checkpoint), service: Some(&hooks), ..RunPlan::default() };
    let stopped = run(Campaign::new(TargetId::Modbus.create(), cfg), plan);
    operator.join().expect("operator thread");
    control.shutdown();

    // The stop races the campaign: it may drain mid-run or land after the
    // final window. Either way the recovered service converges on the
    // uninterrupted report.
    assert!(stopped.executions <= cfg.executions);
    let snapshot = CampaignSnapshot::resume_latest(&dir)
        .expect("rotation scan")
        .expect("a checkpoint exists");
    assert_eq!(snapshot.completed, stopped.executions);
    let final_report = if snapshot.completed == cfg.executions {
        stopped
    } else {
        let plan = RunPlan { resume: Some(&snapshot), ..RunPlan::default() };
        run(Campaign::new(TargetId::Modbus.create(), cfg), plan)
    };
    assert_eq!(complete, deterministic(&final_report), "control-socket stop diverged");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_resume_from_every_rotation_slot_converges() {
    // A checkpointed run leaves every boundary in the rotation (depth ≥
    // boundary count). Deleting the newest slot again and again simulates a
    // SIGKILL landing earlier and earlier; every surviving slot must resume
    // to the identical final report.
    let cfg = config(11);
    let dir = scratch_dir("kill");
    let checkpoint = CheckpointConfig::new(dir.clone(), 1).rotation(8);
    let complete = deterministic(
        &Campaign::new(TargetId::Iec104.create(), cfg)
            .run_checkpointed(&checkpoint)
            .expect("checkpointed run"),
    );

    let boundaries = Campaign::new(TargetId::Iec104.create(), cfg).window_boundaries();
    assert_eq!(rotation_slots(&dir).len(), boundaries.len(), "every boundary kept");
    for &boundary in boundaries.iter().rev() {
        let snapshot = CampaignSnapshot::resume_latest(&dir)
            .expect("rotation scan")
            .expect("slot restores");
        assert_eq!(snapshot.completed, boundary, "newest surviving slot");
        let plan = RunPlan { resume: Some(&snapshot), ..RunPlan::default() };
        let resumed = run(Campaign::new(TargetId::Iec104.create(), cfg), plan);
        assert_eq!(
            complete,
            deterministic(&resumed),
            "resume from rotation slot {boundary} diverged"
        );
        let newest = rotation_slots(&dir).remove(0);
        std::fs::remove_file(newest).expect("drop the newest slot");
    }
    // With the rotation emptied the service starts fresh.
    assert!(CampaignSnapshot::resume_latest(&dir)
        .expect("rotation scan")
        .is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flapping_server_yields_the_healthy_report_at_equal_budget() {
    // The server deterministically drops the connection three times
    // mid-campaign; journal replay restores the session each time, so the
    // final report is bit-identical to the healthy in-process run.
    let cfg = config(3);
    let healthy = deterministic(&Campaign::new(TargetId::Iec104.create(), cfg).run());
    let flapping = cfg
        .transport(TransportMode::FramedTcp)
        .reconnect(ReconnectPolicy::immediate(5))
        .wire_chaos(WireChaos::drop_every(151).limit(3));
    let report = Campaign::new(TargetId::Iec104.create(), flapping).run();
    assert_eq!(report.executions, cfg.executions);
    assert_eq!(healthy, deterministic(&report), "flapping wire changed the campaign");
}

#[test]
fn a_flapping_server_yields_the_healthy_report_when_drops_land_mid_window() {
    // Batched, each window of 250 crosses as a reset plus four 64-packet
    // chunks, so a replayed journal holds several multi-packet exchanges:
    // every 8th frame drops the third chunk of window 2 (two exchanges,
    // 128 packets, journalled), the fourth chunk of window 3 (three, 192)
    // and the reset before the last window (four, 250).
    let cfg = config(3).batch(64);
    let healthy = deterministic(&Campaign::new(TargetId::Iec104.create(), cfg).run());
    let flapping = cfg
        .transport(TransportMode::FramedTcp)
        .reconnect(ReconnectPolicy::immediate(5))
        .wire_chaos(WireChaos::drop_every(8).limit(3));
    let report = Campaign::new(TargetId::Iec104.create(), flapping).run();
    assert_eq!(report.executions, cfg.executions);
    assert_eq!(healthy, deterministic(&report), "flapping wire changed the campaign");
}

#[test]
fn an_exhausted_connection_on_the_inline_engine_keeps_one_record_per_packet() {
    // The inline engine contains an exhausted reconnect budget like any
    // target panic: the chunk's first packet records the connection-loss
    // fault and the rest run packet by packet on a rebuilt connection. The
    // dropped frame carries the third 50-packet chunk (executions
    // 101–150), so a window buffer still holding the second chunk's
    // records would give the engine 51 records for 50 packets.
    let cfg = config(13).batch(50);
    let chaotic = cfg
        .reconnect(ReconnectPolicy::immediate(2))
        .wire_chaos(WireChaos::drop_every(3).limit(1).reject_after_drop(2))
        .transport(TransportMode::FramedTcp);
    let report = Campaign::new(TargetId::Modbus.create(), chaotic).run();
    assert_eq!(report.executions, cfg.executions);
    assert_eq!(
        report.responses + report.protocol_errors + report.fault_hits,
        cfg.executions,
        "one outcome per execution"
    );
    let lost = report
        .bugs
        .iter()
        .find(|bug| bug.fault.site.starts_with("framed-tcp transport: connection lost"))
        .expect("the budget is exhausted once");
    assert_eq!(lost.first_execution, 101);
}

#[test]
fn an_exhausted_connection_degrades_onto_the_survivors() {
    // One of two connections hits a server-side drop whose follow-up
    // accept-and-close rejections outlast its reconnect budget: the
    // connection is marked dead, its window is redistributed, and the
    // surviving connection finishes the campaign with the healthy report.
    // A worker sends each window as a reset and one batch, so a lone
    // connection carries 10 frames (5 windows); the drops land on a
    // window-start reset, on a mid-campaign batch and on the last frame.
    // Each case drops at a frame its campaign reaches, which the same chaos
    // on a lone connection proves: there it exhausts every connection the
    // campaign has.
    let cfg = config(13);
    let healthy = deterministic(
        &ShardedCampaign::new(
            TargetId::Modbus.create(),
            cfg,
            ShardConfig::with_workers(2).sync_windows(2),
        )
        .run(),
    );
    for drop_every in [3, 6, 10] {
        let chaotic = cfg
            .reconnect(ReconnectPolicy::immediate(2))
            .wire_chaos(
                WireChaos::drop_every(drop_every)
                    .limit(1)
                    .reject_after_drop(3),
            )
            .transport(TransportMode::FramedTcp);
        let on_workers = |workers: usize| {
            ShardedCampaign::new(
                TargetId::Modbus.create(),
                chaotic,
                ShardConfig::with_workers(workers).sync_windows(2),
            )
            .run()
        };
        let report = on_workers(2);
        assert_eq!(report.executions, cfg.executions);
        assert_eq!(
            healthy,
            deterministic(&report),
            "degraded campaign diverged (drop at frame {drop_every})"
        );
        let lone = std::panic::catch_unwind(|| on_workers(1))
            .expect_err("the drop must fire and exhaust the lone connection");
        let message = lone
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| lone.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("every connection exhausted its reconnect budget"),
            "unexpected panic (drop at frame {drop_every}): {message}"
        );
    }
}

// ---------------------------------------------------------------------------
// Property: resume-latest skips any corrupted newest-prefix of the rotation.

/// Cursor over a proptest-drawn entropy pool (the vendored proptest only
/// draws flat integer vectors); splitmix64-decorrelated on wrap-around.
struct Draw {
    words: Vec<u64>,
    at: usize,
}

impl Draw {
    fn new(words: Vec<u64>) -> Self {
        assert!(!words.is_empty());
        Self { words, at: 0 }
    }

    fn next(&mut self) -> u64 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        let mut z = word.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.at as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The rotation fixture: every window boundary of one small campaign,
/// encoded. Built once — the snapshots are deterministic, the corruption
/// varies per case.
fn rotation_fixture() -> &'static Vec<(u64, Vec<u8>)> {
    static FIXTURE: OnceLock<Vec<(u64, Vec<u8>)>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = config(17);
        Campaign::new(TargetId::Modbus.create(), cfg)
            .window_boundaries()
            .into_iter()
            .map(|boundary| {
                let plan = RunPlan { stop_after: Some(boundary), ..RunPlan::default() };
                let (_, snapshot) = Campaign::new(TargetId::Modbus.create(), cfg)
                    .run_plan(plan)
                    .expect("boundary snapshot");
                (boundary, snapshot.expect("a stop returns its snapshot").encode())
            })
            .collect()
    })
}

/// Damages `bytes` in one of the ways a dying service can: truncation
/// (including to empty), a bit flip, or a clobbered magic.
fn corrupt(bytes: &mut Vec<u8>, draw: &mut Draw) {
    match draw.below(4) {
        0 => bytes.truncate(draw.below(bytes.len() as u64) as usize),
        1 => {
            let position = draw.below(bytes.len() as u64) as usize;
            bytes[position] ^= (draw.below(255) + 1) as u8;
        }
        2 => bytes[..8].copy_from_slice(b"NOTASNAP"),
        _ => bytes.clear(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_latest_skips_any_corrupted_newest_prefix(
        words in proptest::collection::vec(any::<u64>(), 4..32)
    ) {
        let mut draw = Draw::new(words);
        let slots = rotation_fixture();
        let dir = scratch_dir("proptest");
        std::fs::create_dir_all(&dir).expect("rotation dir");

        // Lay down the full rotation, then corrupt the newest `damaged`
        // slots — the prefix a crash mid-write (or disk fault) chews up.
        let damaged = draw.below(slots.len() as u64 + 1) as usize;
        for (index, (boundary, bytes)) in slots.iter().enumerate() {
            let mut bytes = bytes.clone();
            if index >= slots.len() - damaged {
                corrupt(&mut bytes, &mut draw);
            }
            std::fs::write(dir.join(format!("ckpt-{boundary:012}.peachsnp")), bytes)
                .expect("write slot");
        }

        let restored = CampaignSnapshot::resume_latest(&dir).expect("rotation scan");
        std::fs::remove_dir_all(&dir).ok();
        match slots.len().checked_sub(damaged + 1) {
            // The newest undamaged slot restores bit-exactly.
            Some(newest_valid) => {
                let snapshot = restored.expect("an intact slot restores");
                prop_assert_eq!(snapshot.completed, slots[newest_valid].0);
                prop_assert_eq!(snapshot.encode(), slots[newest_valid].1.clone());
            }
            // Every slot damaged: the service starts fresh, it never
            // restores garbage.
            None => prop_assert!(restored.is_none()),
        }
    }
}

//! Fault tolerance: a campaign must survive a misbehaving target — panics
//! and hangs — without losing budget, determinism, or resumability.
//!
//! Every test drives the real campaign machinery against [`ChaosTarget`],
//! the deterministic seeded failure injector: the same packet bytes always
//! trigger the same injected failure, so chaos campaigns are as reproducible
//! as clean ones. The matrix pins four guarantees:
//!
//! 1. **Budget completion** — injected panics never eat executions, across
//!    strategies × batch sizes × sessions × sharded workers.
//! 2. **Dedup** — injected panic sites surface as unique bugs, one record
//!    per site, alongside the target's native bugs.
//! 3. **Worker invariance under chaos** — injection is content-keyed and
//!    every worker recovers a panic in place, so the worker count still
//!    cannot leak into a sharded report.
//! 4. **Composition** — checkpoint/resume reproduces a chaos campaign bit
//!    for bit, and a crash artifact cut from the resumed report still
//!    replays.
//! 5. **Transport independence** — the same failures behind the framed-TCP
//!    transport produce the same deduplicated bugs: server-side panics are
//!    contained into the same fault records, a stalled connection trips the
//!    same watchdog, a dead socket is contained for target rebuild, and an
//!    artifact recorded under TCP replays in-process.

use peachstar::artifact::CrashArtifact;
use peachstar::campaign::{
    Campaign, CampaignConfig, RunPlan, SessionConfig, ShardConfig, ShardedCampaign, TransportMode,
};
use peachstar::engine::transport::FramedTcpTarget;
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_coverage::TraceContext;
use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
use peachstar_protocols::containment::contained;
use peachstar_protocols::{serve, FaultKind, Target, TargetId};
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Panic injection (no hangs — those need the watchdog and get their own
/// test), aggressive enough to fire many times per campaign.
fn chaos() -> ChaosConfig {
    ChaosConfig::new(11).panic_every(23).hang_every(0)
}

fn chaos_target(target: TargetId) -> Box<dyn Target> {
    Box::new(ChaosTarget::new(target.create_send(), chaos()))
}

fn config(strategy: StrategyKind, seed: u64) -> CampaignConfig {
    CampaignConfig::new(strategy)
        .executions(1_000)
        .rng_seed(seed)
        .sample_interval(100)
        .reset_interval(250)
}

/// Asserts the two core chaos guarantees on a finished report: the full
/// budget ran, injected panics surfaced, and the bug list has one record
/// per site.
fn assert_survived(report: &CampaignReport, label: &str) {
    assert_eq!(report.executions, 1_000, "{label}: budget must complete");
    assert!(
        report
            .bugs
            .iter()
            .any(|b| b.fault.kind == FaultKind::Panic),
        "{label}: injected panics must surface as bugs"
    );
    let sites: BTreeSet<&'static str> = report.bugs.iter().map(|b| b.fault.site).collect();
    assert_eq!(
        sites.len(),
        report.bugs.len(),
        "{label}: bugs deduplicate by site"
    );
}

#[test]
fn chaos_campaigns_complete_budget_across_the_configuration_matrix() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let base = config(strategy, 7);
        let variants: [(&str, CampaignConfig); 4] = [
            ("sequential", base),
            ("batched", base.batch(64)),
            ("sessions", base.sessions(SessionConfig::new(6))),
            ("batched sessions", base.sessions(SessionConfig::new(6)).batch(32)),
        ];
        for (label, cfg) in variants {
            let report = Campaign::new(chaos_target(TargetId::Modbus), cfg).run();
            assert_survived(&report, &format!("{strategy} {label}"));
        }
        for workers in [1, 2, 4] {
            let report = ShardedCampaign::new(
                chaos_target(TargetId::Iec104),
                base,
                ShardConfig::with_workers(workers).sync_windows(4),
            )
            .run();
            assert_survived(&report, &format!("{strategy} sharded x{workers}"));
        }
    }
}

#[test]
fn injected_sites_dedup_against_native_bugs() {
    // Three injected panic sites on top of libmodbus's native bug sites:
    // every record is unique, and the injected ones are bounded by the
    // configured site count.
    let report = Campaign::new(chaos_target(TargetId::Modbus), config(StrategyKind::Peach, 3))
        .run();
    assert_survived(&report, "dedup");
    let injected: Vec<&'static str> = report
        .bugs
        .iter()
        .filter(|b| b.fault.kind == FaultKind::Panic)
        .map(|b| b.fault.site)
        .collect();
    assert!(
        injected.len() <= 3,
        "chaos() injects at most 3 distinct panic sites, got {injected:?}"
    );
    assert!(
        injected.iter().all(|site| site.starts_with("chaos:")),
        "injected sites are labelled: {injected:?}"
    );
}

#[test]
fn hang_watchdog_preserves_the_budget_under_blocking_hangs() {
    // Hang-only chaos: every 41st content hash blocks for 200ms. With a
    // 25ms deadline the watchdog abandons the stuck call, reports a hang
    // fault, and the campaign still completes its full budget.
    let chaos = ChaosConfig::new(5).panic_every(0).hang_every(41).hang_ms(200);
    let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
    let cfg = config(StrategyKind::Peach, 9).exec_timeout_ms(25);
    let report = Campaign::new(target, cfg).run();
    assert_eq!(report.executions, 1_000, "hangs must not eat budget");
    assert!(
        report.bugs.iter().any(|b| b.fault.kind == FaultKind::Hang),
        "abandoned executions surface as hang faults"
    );
}

#[test]
fn worker_count_never_changes_a_chaos_report() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Lib60870, 77)] {
            let run = |workers: usize| {
                deterministic(
                    &ShardedCampaign::new(
                        chaos_target(target),
                        config(strategy, seed),
                        ShardConfig::with_workers(workers).sync_windows(4),
                    )
                    .run(),
                )
            };
            let one = run(1);
            for workers in [2, 4] {
                assert_eq!(
                    one,
                    run(workers),
                    "{strategy} chaos on {target} seed {seed}: {workers} workers diverged"
                );
            }
            // Peach takes no feedback, so its worker report is also the
            // inline one, batched or not: a window that panics recovers to
            // exactly what the inline executor records for it.
            if strategy == StrategyKind::Peach {
                for inline in [config(strategy, seed), config(strategy, seed).batch(64)] {
                    assert_eq!(
                        one,
                        deterministic(&Campaign::new(chaos_target(target), inline).run()),
                        "Peach chaos on {target} seed {seed}: workers diverged from inline \
                         (batch {:?})",
                        inline.batch
                    );
                }
            }
        }
    }
}

#[test]
fn framed_tcp_chaos_campaign_matches_in_process() {
    // Server-side injected panics are contained by the socket server with
    // the executor's own sequence and cross the wire as fault records with
    // re-interned sites, so the chaos report is bit-identical to in-process
    // — panics deduplicate to the same bugs at the same executions.
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let cfg = config(strategy, 7);
        let in_process = Campaign::new(chaos_target(TargetId::Modbus), cfg).run();
        assert_survived(&in_process, &format!("{strategy} in-process"));
        let over_tcp = Campaign::new(
            chaos_target(TargetId::Modbus),
            cfg.transport(TransportMode::FramedTcp),
        )
        .run();
        assert_eq!(
            deterministic(&in_process),
            deterministic(&over_tcp),
            "{strategy}: chaos behind framed TCP diverged from in-process"
        );
    }
}

#[test]
fn connection_driver_chaos_matches_the_in_process_sharded_engine() {
    // The same guarantee on the worker topology over framed TCP: N live
    // connections with server-side chaos reduce to the in-process sharded
    // report at the merge barrier.
    let cfg = config(StrategyKind::PeachStar, 77);
    let in_process = deterministic(
        &ShardedCampaign::new(
            chaos_target(TargetId::Lib60870),
            cfg,
            ShardConfig::with_workers(2).sync_windows(4),
        )
        .run(),
    );
    for connections in [1, 3] {
        let live = deterministic(
            &ShardedCampaign::new(
                chaos_target(TargetId::Lib60870),
                cfg.transport(TransportMode::FramedTcp),
                ShardConfig::with_workers(connections).sync_windows(4),
            )
            .run(),
        );
        assert_eq!(
            in_process, live,
            "chaos over {connections} live connections diverged"
        );
    }
}

#[test]
fn framed_tcp_hangs_trip_the_same_watchdog_bugs() {
    // A hang injected server-side stalls the connection: the client blocks
    // in the wire read, the executor's watchdog abandons the stranded
    // worker (and with it the connection), and the replacement worker's
    // fresh target is a fresh connection. The deduplicated bug list —
    // content-keyed panic sites plus the constant hang site — matches
    // in-process exactly; execution indices are timing-free because
    // injection is content-hashed.
    let chaos = ChaosConfig::new(5).panic_every(0).hang_every(41).hang_ms(200);
    let sites = |transport: TransportMode| {
        let target = Box::new(ChaosTarget::new(TargetId::Modbus.create_send(), chaos));
        let cfg = config(StrategyKind::Peach, 9)
            .exec_timeout_ms(25)
            .transport(transport);
        let report = Campaign::new(target, cfg).run();
        assert_eq!(report.executions, 1_000, "{transport:?}: hangs must not eat budget");
        assert!(
            report.bugs.iter().any(|b| b.fault.kind == FaultKind::Hang),
            "{transport:?}: abandoned executions surface as hang faults"
        );
        report
            .bugs
            .iter()
            .map(|b| (b.fault.kind, b.fault.site))
            .collect::<BTreeSet<_>>()
    };
    assert_eq!(
        sites(TransportMode::InProcess),
        sites(TransportMode::FramedTcp),
        "watchdog bugs behind framed TCP diverged from in-process"
    );
}

/// Modbus, counting every fresh copy made of it, its copies' included.
struct CountingCopies {
    inner: Box<dyn Target>,
    copies: Arc<AtomicUsize>,
}

impl Target for CountingCopies {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn data_models(&self) -> peachstar_datamodel::DataModelSet {
        self.inner.data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> peachstar_protocols::Outcome {
        self.inner.process(packet, ctx)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        self.copies.fetch_add(1, Ordering::SeqCst);
        Box::new(Self {
            inner: self.inner.clone_fresh(),
            copies: Arc::clone(&self.copies),
        })
    }
}

#[test]
fn a_supervised_framed_tcp_campaign_runs_on_one_connection() {
    // The server's accept loop makes two fresh copies of its target per
    // connection (the connection's target and its spare), so a served
    // target that counts its copies counts connections. The executor hands
    // the connection the campaign dialled to the watchdog's first worker,
    // so a supervised campaign opens no second connection for the
    // watchdog and leaves none unused.
    let copies = Arc::new(AtomicUsize::new(0));
    let served = CountingCopies {
        inner: TargetId::Modbus.create(),
        copies: Arc::clone(&copies),
    };
    let server = serve(
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        Box::new(served),
    )
    .expect("serve");
    let target = FramedTcpTarget::connect(TargetId::Modbus.create_send(), server.addr());
    let cfg = config(StrategyKind::Peach, 9).exec_timeout_ms(5_000);
    let report = Campaign::new(Box::new(target), cfg).run();
    assert_eq!(report.executions, 1_000);
    assert_eq!(
        copies.load(Ordering::SeqCst),
        2,
        "one connection, two copies"
    );
}

#[test]
fn a_dead_socket_is_contained_for_target_rebuild() {
    // When the server side of a connection dies, the client-side
    // FramedTcpTarget panics with a transport-labelled message instead of
    // wedging. The executor contains exactly such panics and rebuilds the
    // target via clone_fresh — which for a framed-TCP target means a fresh
    // connection.
    let doomed = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = doomed.local_addr().expect("local addr");
    // The connection lands in the unaccepted backlog; dropping the listener
    // resets it, so the next exchange hits a dead socket.
    let mut target = FramedTcpTarget::connect(TargetId::Modbus.create_send(), addr);
    drop(doomed);
    let mut ctx = TraceContext::new();
    let mut attempt = || {
        target.process(&[0u8; 8], &mut ctx);
    };
    // The first exchange may still see buffered success; the dead socket
    // surfaces within a couple of round-trips.
    let message = (0..8)
        .find_map(|_| contained(&mut attempt).err())
        .expect("a dead socket must panic, not wedge");
    assert!(
        message.contains("framed-tcp transport"),
        "the panic names the transport so rebuilds are diagnosable: {message}"
    );
}

#[test]
fn tcp_recorded_artifact_replays_in_process() {
    // A reproducer bundle cut from a framed-TCP chaos campaign normalises
    // the transport away: replay is always in-process, and reproduces the
    // same fault because the wire never changed campaign semantics.
    let cfg = config(StrategyKind::Peach, 3).transport(TransportMode::FramedTcp);
    let report = Campaign::new(chaos_target(TargetId::Modbus), cfg).run();
    assert_survived(&report, "tcp chaos");
    let bug = report.bugs.first().expect("chaos campaign finds bugs");
    let artifact = CrashArtifact::from_bug(TargetId::Modbus, &cfg, None, Some(chaos()), bug);
    assert_eq!(
        artifact.config.transport,
        TransportMode::InProcess,
        "artifacts never pin the recording transport"
    );
    let dir = std::env::temp_dir().join(format!(
        "peachstar-tcp-artifact-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let path = artifact.write_atomic(&dir).expect("bundle writes");
    let decoded = CrashArtifact::read_from(&path).expect("bundle reads back");
    assert_eq!(decoded, artifact, "bundle round-trips");
    decoded.replay().expect("TCP-recorded bug replays in-process");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_composes_with_chaos_and_artifacts() {
    // Interrupt a chaos campaign mid-flight, resume it, and require the
    // resumed report to equal the uninterrupted one — then cut a reproducer
    // bundle from the *resumed* report and replay it.
    let cfg = config(StrategyKind::PeachStar, 21);
    let complete = Campaign::new(chaos_target(TargetId::Modbus), cfg).run();
    assert_survived(&complete, "uninterrupted chaos");

    let boundaries = Campaign::new(chaos_target(TargetId::Modbus), cfg).window_boundaries();
    let boundary = boundaries[boundaries.len() / 2];
    let (_, snapshot) = Campaign::new(chaos_target(TargetId::Modbus), cfg)
        .run_plan(RunPlan { stop_after: Some(boundary), ..RunPlan::default() })
        .expect("runs to the boundary");
    let snapshot = snapshot.expect("a stop returns its snapshot");
    let (resumed, _) = Campaign::new(chaos_target(TargetId::Modbus), cfg)
        .run_plan(RunPlan { resume: Some(&snapshot), ..RunPlan::default() })
        .expect("resumes");
    assert_eq!(
        deterministic(&complete),
        deterministic(&resumed),
        "chaos resume at execution {boundary} diverged"
    );

    let bug = resumed.bugs.first().expect("chaos campaign finds bugs");
    let artifact = CrashArtifact::from_bug(TargetId::Modbus, &cfg, None, Some(chaos()), bug);
    let dir = std::env::temp_dir().join(format!(
        "peachstar-fault-tolerance-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let path = artifact.write_atomic(&dir).expect("bundle writes");
    let decoded = CrashArtifact::read_from(&path).expect("bundle reads back");
    assert_eq!(decoded, artifact, "bundle round-trips");
    decoded.replay().expect("resumed-report bug replays");
    std::fs::remove_dir_all(&dir).ok();
}

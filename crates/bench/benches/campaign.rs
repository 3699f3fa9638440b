//! Macro-benchmark: end-to-end campaign throughput (executions per second),
//! the quantity the sparse trace recording and zero-allocation hot path are
//! meant to raise.
//!
//! One iteration runs a complete 2 000-execution campaign — generate,
//! execute, trace, merge, observe — so the median here divided by 2 000 is
//! the per-execution cost of the whole loop.

use criterion::{criterion_group, criterion_main, Criterion};

use peachstar::campaign::{
    Campaign, CampaignConfig, RunPlan, SessionConfig, ShardConfig, ShardedCampaign, TransportMode,
};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig};
use peachstar::strategy::StrategyKind;
use peachstar_protocols::TargetId;

const EXECUTIONS: u64 = 2_000;

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    for (target, label) in [
        (TargetId::Modbus, "modbus"),
        (TargetId::Iec104, "iec104"),
    ] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let name = format!(
                "{label}_{}_2k_execs",
                match strategy {
                    StrategyKind::Peach => "peach",
                    StrategyKind::PeachStar => "peachstar",
                }
            );
            group.bench_function(name, |b| {
                b.iter(|| {
                    let config = CampaignConfig::new(strategy)
                        .executions(EXECUTIONS)
                        .rng_seed(7)
                        .sample_interval(500);
                    let report = Campaign::new(target.create(), config).run();
                    report.final_paths()
                });
            });
        }
    }
    group.finish();
}

/// Sharded end-to-end throughput: the same 2 000-execution campaign split
/// into reset-aligned windows (reset every 250 executions → 8 windows per
/// barrier round) and executed by 1 vs 4 workers. The 1-worker entry prices
/// the sharding machinery itself (snapshot buffering, barrier merge); the
/// 4-worker entry must beat it to demonstrate real scaling.
fn bench_campaign_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    for (target, label) in [(TargetId::Modbus, "modbus"), (TargetId::Iec104, "iec104")] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            for workers in [1usize, 4] {
                let name = format!(
                    "{label}_{}_sharded_{workers}w_2k_execs",
                    match strategy {
                        StrategyKind::Peach => "peach",
                        StrategyKind::PeachStar => "peachstar",
                    }
                );
                group.bench_function(name, |b| {
                    b.iter(|| {
                        let config = CampaignConfig::new(strategy)
                            .executions(EXECUTIONS)
                            .rng_seed(7)
                            .sample_interval(500)
                            .reset_interval(250);
                        let report = ShardedCampaign::new(
                            target.create(),
                            config,
                            ShardConfig::with_workers(workers),
                        )
                        .run();
                        report.final_paths()
                    });
                });
            }
        }
    }
    group.finish();
}

/// Batched end-to-end throughput: the same campaigns as [`bench_campaign`]
/// — identical config, identical reports for Peach — run with `batch(250)`,
/// in 250-packet slices. The delta against the
/// unsuffixed entries is the pure dispatch amortisation: pooled packet
/// arena instead of a fresh seed per execution, one (devirtualised)
/// target call per window instead of per packet, and no per-execution
/// reset-policy checks.
fn bench_campaign_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    for (target, label) in [(TargetId::Modbus, "modbus"), (TargetId::Iec104, "iec104")] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let name = format!(
                "{label}_{}_batched_2k_execs",
                match strategy {
                    StrategyKind::Peach => "peach",
                    StrategyKind::PeachStar => "peachstar",
                }
            );
            group.bench_function(name, |b| {
                b.iter(|| {
                    let config = CampaignConfig::new(strategy)
                        .executions(EXECUTIONS)
                        .rng_seed(7)
                        .sample_interval(500)
                        .batch(250);
                    let report = Campaign::new(target.create(), config).run();
                    report.final_paths()
                });
            });
        }
    }
    group.finish();
}

/// Session-campaign throughput: the same 2 000-execution budget reshaped
/// into 10-packet sessions (STARTDT + 8 mutated ASDUs + STOPDT) with
/// session-scoped resets. Prices the session machinery — the schedule
/// wrapper, the template replay and the per-session reset cadence — against
/// the single-packet entries above.
fn bench_campaign_sessions(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let name = format!(
            "iec104_{}_sessions_2k_execs",
            match strategy {
                StrategyKind::Peach => "peach",
                StrategyKind::PeachStar => "peachstar",
            }
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(7)
                    .sample_interval(500)
                    .sessions(SessionConfig::default());
                let report = Campaign::new(TargetId::Iec104.create(), config).run();
                report.final_paths()
            });
        });
    }
    group.finish();
}

/// Checkpointed throughput: the same campaigns as [`bench_campaign`] with a
/// snapshot written to disk at every 4th window boundary (plus the final
/// one). The delta against the unsuffixed entries is the full checkpoint
/// cost — state capture, canonical encoding and the atomic temp-file +
/// rename write — and the `ci/bench_compare.py` gate holds it under the
/// regression threshold, demonstrating that checkpointing is cheap enough
/// to leave on for real campaigns.
fn bench_campaign_checkpointed(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    let path = std::env::temp_dir().join(format!("peachstar-bench-{}.snap", std::process::id()));
    for (target, label) in [(TargetId::Modbus, "modbus"), (TargetId::Iec104, "iec104")] {
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let name = format!(
                "{label}_{}_checkpointed_2k_execs",
                match strategy {
                    StrategyKind::Peach => "peach",
                    StrategyKind::PeachStar => "peachstar",
                }
            );
            let checkpoint = CheckpointConfig::new(path.clone(), 4);
            group.bench_function(name, |b| {
                b.iter(|| {
                    let config = CampaignConfig::new(strategy)
                        .executions(EXECUTIONS)
                        .rng_seed(7)
                        .sample_interval(500);
                    let report = Campaign::new(target.create(), config)
                        .run_checkpointed(&checkpoint)
                        .expect("checkpointed campaign");
                    report.final_paths()
                });
            });
        }
    }
    std::fs::remove_file(&path).ok();
    group.finish();
}

/// Framed-TCP end-to-end throughput: the same 2 000-execution campaigns as
/// [`bench_campaign`] driven over a loopback socket (one wire round-trip
/// per execution), plus a batched variant (one round-trip per 250-packet
/// window) and a 4-worker campaign with one live connection per worker.
/// The delta against the in-process
/// entries is the full wire cost — framing, syscalls, scheduling — and the
/// batched entry shows how window-sized round-trips amortise it; reports
/// stay bit-identical throughout (tests/transport_equivalence.rs).
fn bench_campaign_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let label = match strategy {
            StrategyKind::Peach => "peach",
            StrategyKind::PeachStar => "peachstar",
        };
        group.bench_function(format!("modbus_{label}_tcp_2k_execs"), |b| {
            b.iter(|| {
                let config = CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(7)
                    .sample_interval(500)
                    .transport(TransportMode::FramedTcp);
                let report = Campaign::new(TargetId::Modbus.create(), config).run();
                report.final_paths()
            });
        });
        group.bench_function(format!("modbus_{label}_tcp_batched_2k_execs"), |b| {
            b.iter(|| {
                let config = CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(7)
                    .sample_interval(500)
                    .batch(250)
                    .transport(TransportMode::FramedTcp);
                let report = Campaign::new(TargetId::Modbus.create(), config).run();
                report.final_paths()
            });
        });
        group.bench_function(format!("modbus_{label}_tcp_4conn_2k_execs"), |b| {
            b.iter(|| {
                let config = CampaignConfig::new(strategy)
                    .executions(EXECUTIONS)
                    .rng_seed(7)
                    .sample_interval(500)
                    .reset_interval(250)
                    .transport(TransportMode::FramedTcp);
                let workers = ShardConfig::with_workers(4);
                let report = ShardedCampaign::new(TargetId::Modbus.create(), config, workers).run();
                report.final_paths()
            });
        });
    }
    group.finish();
}

/// Snapshot write+read round-trip in isolation: capture the final state of
/// a finished 2 000-execution Peach\* campaign once, then measure encode →
/// atomic write → read → decode against a tmpfs-backed path. This is the
/// unit the per-window checkpoint cadence multiplies.
fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(30);
    let config = CampaignConfig::new(StrategyKind::PeachStar)
        .executions(EXECUTIONS)
        .rng_seed(7)
        .sample_interval(500);
    let capture = RunPlan { capture_final: true, ..RunPlan::default() };
    let (_, snapshot) = Campaign::new(TargetId::Modbus.create(), config)
        .run_plan(capture)
        .expect("capture-only campaign");
    let snapshot = snapshot.expect("capture_final returns a snapshot");
    let path = std::env::temp_dir().join(format!(
        "peachstar-bench-roundtrip-{}.snap",
        std::process::id()
    ));
    group.bench_function("modbus_peachstar_snapshot_roundtrip", |b| {
        b.iter(|| {
            snapshot.write_atomic(&path).expect("snapshot write");
            CampaignSnapshot::read_from(&path)
                .expect("snapshot read")
                .completed
        });
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

criterion_group!(
    benches,
    bench_campaign,
    bench_campaign_batched,
    bench_campaign_sharded,
    bench_campaign_sessions,
    bench_campaign_checkpointed,
    bench_campaign_tcp,
    bench_snapshot_roundtrip
);
criterion_main!(benches);

//! The five workloads, how one pass of each is run (plain or traced), and
//! the deterministic fingerprint its outputs are checked against.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use peachstar::campaign::{Campaign, CampaignConfig, CampaignReport, TransportMode};
use peachstar::engine::transport::deploy_send;
use peachstar::strategy::StrategyKind;
use peachstar::{CheckpointConfig, ShardConfig, ShardedCampaign};
use peachstar_bench::default_budget;
use peachstar_protocols::{FaultKind, Target, TargetId};

use crate::trace::{Layers, Side, TimedStrategy, TimedTarget};

/// The benchmark's workloads. `steady` is the hub; `checkpoint`, `wire`
/// and `sharded` are `steady` plus exactly one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Fresh,
    Checkpoint,
    Wire,
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Steady,
        Workload::Fresh,
        Workload::Checkpoint,
        Workload::Wire,
        Workload::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Fresh => "fresh",
            Workload::Checkpoint => "checkpoint",
            Workload::Wire => "wire",
            Workload::Sharded => "sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

/// How large one pass is. [`Size::FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Executions of the single modbus campaign of `steady` and its kin.
    pub steady_executions: u64,
    /// Campaigns per target in `fresh`.
    pub fresh_seeds: u64,
    /// `fresh` runs `default_budget(target) / fresh_divisor` executions.
    pub fresh_divisor: u64,
}

impl Size {
    pub const FULL: Size = Size {
        steady_executions: 4_000_000,
        fresh_seeds: 20,
        fresh_divisor: 1,
    };
}

/// Workers of the `sharded` workload: one per core of the 2-core host the
/// benchmark was calibrated on.
pub const SHARD_WORKERS: usize = 2;

/// Keeps the calling thread, and every thread it starts afterwards, on the
/// CPU it runs on now.
///
/// `wire` runs this first. Its loop is closed, so its client and socket
/// server never run at the same time. Spread over two vCPUs, a round trip
/// wakes the other, idle vCPU, and how long that takes depends on the
/// host's other tenants: `wire` then varied by ±25% between runs while
/// `steady` did not move. On one CPU a round trip is two context switches.
#[cfg(target_os = "linux")]
pub fn stay_on_this_cpu() -> std::io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let word = usize::try_from(cpu)
        .ok()
        .filter(|&cpu| cpu < 64 * mask.len())
        .ok_or_else(std::io::Error::last_os_error)?;
    mask[word / 64] |= 1 << (word % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`, which is that long
    // and outlives the call; pid 0 is the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

#[cfg(not(target_os = "linux"))]
pub fn stay_on_this_cpu() -> std::io::Result<()> {
    Ok(())
}

/// Which campaign driver runs a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    Campaign,
    Sharded,
}

/// One campaign of a pass.
#[derive(Debug, Clone)]
struct Job {
    target: TargetId,
    config: CampaignConfig,
    driver: Driver,
    /// Checkpoint every this many windows into the pass's rotation
    /// directory (4 slots kept).
    checkpoint_every: Option<u64>,
}

/// The modbus campaign `steady`, `checkpoint`, `wire` and `sharded` share.
fn steady_config(seed: u64, executions: u64) -> CampaignConfig {
    CampaignConfig::new(StrategyKind::PeachStar)
        .executions(executions)
        .rng_seed(seed)
        .batch(250)
}

/// The campaigns of one pass of `workload`, in run order.
fn jobs(workload: Workload, seed: u64, size: Size) -> Vec<Job> {
    let steady = |driver, checkpoint_every, transport| Job {
        target: TargetId::Modbus,
        config: steady_config(seed, size.steady_executions).transport(transport),
        driver,
        checkpoint_every,
    };
    match workload {
        Workload::Steady => vec![steady(Driver::Campaign, None, TransportMode::InProcess)],
        Workload::Checkpoint => vec![steady(Driver::Campaign, Some(1), TransportMode::InProcess)],
        Workload::Wire => vec![steady(Driver::Campaign, None, TransportMode::FramedTcp)],
        Workload::Sharded => vec![steady(Driver::Sharded, None, TransportMode::InProcess)],
        // The paper's protocol: every target, consecutive seeds, fresh
        // target and strategy per campaign, per-execution driver.
        Workload::Fresh => TargetId::ALL
            .into_iter()
            .flat_map(|target| {
                (0..size.fresh_seeds).map(move |offset| Job {
                    target,
                    config: CampaignConfig::new(StrategyKind::PeachStar)
                        .executions(default_budget(target) / size.fresh_divisor.max(1))
                        .rng_seed(seed.wrapping_mul(20).wrapping_add(offset)),
                    driver: Driver::Campaign,
                    checkpoint_every: None,
                })
            })
            .collect(),
    }
}

/// Campaigns in one pass of `workload`.
pub fn campaigns(workload: Workload, size: Size) -> u64 {
    match workload {
        Workload::Fresh => TargetId::ALL.len() as u64 * size.fresh_seeds,
        _ => 1,
    }
}

/// One campaign's outputs that must not depend on timing: identical across
/// passes, between traced and untraced passes, and across the transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub target: String,
    pub executions: u64,
    pub paths: u64,
    pub edges: u64,
    pub bugs: Vec<String>,
    pub valuable_seeds: u64,
    pub corpus_size: u64,
    pub responses: u64,
    pub protocol_errors: u64,
    pub fault_hits: u64,
    /// FNV-1a over every coverage-series sample.
    pub series: u64,
}

impl Fingerprint {
    fn of(report: &CampaignReport) -> Self {
        let mut series = 0xcbf2_9ce4_8422_2325u64;
        for point in report.series.points() {
            for word in [
                point.executions,
                point.paths as u64,
                point.edges as u64,
                point.faults as u64,
            ] {
                for byte in word.to_le_bytes() {
                    series = (series ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        Self {
            target: report.target.clone(),
            executions: report.executions,
            paths: report.final_paths() as u64,
            edges: report.series.points().last().map_or(0, |p| p.edges as u64),
            bugs: report
                .bugs
                .iter()
                .map(|bug| format!("{} @{}", bug.fault, bug.first_execution))
                .collect(),
            valuable_seeds: report.valuable_seeds as u64,
            corpus_size: report.corpus_size as u64,
            responses: report.responses,
            protocol_errors: report.protocol_errors,
            fault_hits: report.fault_hits,
            series,
        }
    }
}

/// The result of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall: Duration,
    pub campaigns: u64,
    pub executions: u64,
    /// Merge barriers (sharded rounds, or windows of the plain driver).
    pub rounds: u64,
    pub fingerprints: Vec<Fingerprint>,
}

impl Pass {
    pub fn paths(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.paths).sum()
    }

    pub fn bugs(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.bugs.len() as u64).sum()
    }

    pub fn edges(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.edges).sum()
    }

    pub fn corpus(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.corpus_size).sum()
    }

    pub fn responses(&self) -> u64 {
        self.fingerprints.iter().map(|f| f.responses).sum()
    }
}

/// Runs one pass of `workload`: every job, timed as a whole (construction
/// included). With `layers` the pass is traced, and a workload that does
/// not checkpoint writes one final checkpoint at its last job, so the
/// snapshot layer is measured everywhere. `dir` is the pass's rotation
/// directory; whatever an earlier pass left there is removed first.
///
/// Returns an error naming the first failed check: an unfinished budget,
/// tallies that do not add up, or a fault the harness itself caused.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    dir: &Path,
    layers: Option<&Arc<Layers>>,
) -> Result<Pass, String> {
    run_jobs(jobs(workload, seed, size), dir, layers)
}

fn run_jobs(jobs: Vec<Job>, dir: &Path, layers: Option<&Arc<Layers>>) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let last = jobs.len() - 1;
    let mut pass = Pass {
        wall: Duration::ZERO,
        campaigns: 0,
        executions: 0,
        rounds: 0,
        fingerprints: Vec::with_capacity(jobs.len()),
    };
    let started = Instant::now();
    for (index, job) in jobs.into_iter().enumerate() {
        let every = match (job.checkpoint_every, layers) {
            (None, Some(_)) if index == last => Some(u64::MAX),
            (every, _) => every,
        };
        let checkpoint = every.map(|every| CheckpointConfig::new(dir, every).rotation(4));
        let requested = job.config.executions;
        pass.campaigns += 1;
        let (report, rounds) = run_job(&job, checkpoint.as_ref(), layers)?;
        check_report(&report, requested)?;
        pass.executions += report.executions;
        pass.rounds += rounds;
        pass.fingerprints.push(Fingerprint::of(&report));
    }
    pass.wall = started.elapsed();
    Ok(pass)
}

/// Runs a zero-execution copy of every job of `workload`: the set-up cost
/// of the pass (models, strategy, TCP deploy and connect, worker clones,
/// checkpoint directory preparation) without any fuzzing.
pub fn run_setup(
    workload: Workload,
    seed: u64,
    size: Size,
    dir: &Path,
) -> Result<Duration, String> {
    let started = Instant::now();
    for mut job in jobs(workload, seed, size) {
        job.config = job.config.executions(0);
        let checkpoint = job
            .checkpoint_every
            .map(|every| CheckpointConfig::new(dir, every).rotation(4));
        run_job(&job, checkpoint.as_ref(), None)?;
    }
    Ok(started.elapsed())
}

/// Runs one campaign, returning its report and its merge-barrier count.
fn run_job(
    job: &Job,
    checkpoint: Option<&CheckpointConfig>,
    layers: Option<&Arc<Layers>>,
) -> Result<(CampaignReport, u64), String> {
    let mut config = job.config;
    let mut strategy = config.strategy.create();
    let mut target: Box<dyn Target> = job.target.create();
    let mut _server = None;
    // Traced: both plug-ins wrapped. Over framed TCP the server blueprint
    // is wrapped before deployment (so every per-connection clone is
    // timed) and the client again after it; the campaign then runs the
    // wrapped client in-process, keeping the server alive until it ends.
    if let Some(layers) = layers {
        strategy = Box::new(TimedStrategy::new(strategy, layers));
        target = if config.transport == TransportMode::FramedTcp {
            let blueprint = Box::new(TimedTarget::new(
                job.target.create_send(),
                layers,
                Side::Server,
            ));
            let (client, server) = deploy_send(
                blueprint,
                config.transport,
                config.reconnect,
                config.wire_chaos,
            );
            _server = server;
            config = config.transport(TransportMode::InProcess);
            Box::new(TimedTarget::new(client, layers, Side::Client))
        } else {
            TimedTarget::in_process(job.target.create_send(), layers)
        };
    }
    let result = match job.driver {
        Driver::Campaign => {
            let campaign = Campaign::with_strategy(target, config, strategy);
            let rounds = campaign.window_boundaries().len() as u64;
            match checkpoint {
                None => Ok(campaign.run()),
                Some(checkpoint) => campaign.run_checkpointed(checkpoint),
            }
            .map(|report| (report, rounds))
        }
        Driver::Sharded => {
            let campaign = ShardedCampaign::with_strategy(
                target,
                config,
                ShardConfig::with_workers(SHARD_WORKERS),
                strategy,
            );
            let rounds = campaign.round_boundaries().len() as u64;
            match checkpoint {
                None => Ok(campaign.run()),
                Some(checkpoint) => campaign.run_checkpointed(checkpoint),
            }
            .map(|report| (report, rounds))
        }
    };
    result.map_err(|error| {
        format!(
            "{} seed {}: checkpoint failed: {error}",
            job.target, config.rng_seed
        )
    })
}

/// The per-campaign output checks.
fn check_report(report: &CampaignReport, requested: u64) -> Result<(), String> {
    let name = &report.target;
    if report.executions != requested {
        return Err(format!(
            "{name}: completed {} of {requested} executions",
            report.executions
        ));
    }
    let tallied = report.responses + report.protocol_errors + report.fault_hits;
    if tallied != report.executions {
        return Err(format!(
            "{name}: responses + protocol errors + fault hits = {tallied}, executions = {}",
            report.executions
        ));
    }
    if let Some(bug) = report.bugs.iter().find(|bug| {
        matches!(bug.fault.kind, FaultKind::Panic | FaultKind::Hang)
            || bug.fault.site.starts_with("framed-tcp transport")
    }) {
        return Err(format!("{name}: harness-side fault {}", bug.fault));
    }
    Ok(())
}

/// Checks the rotation directory a checkpointed pass leaves behind: four
/// slots, and `resume_latest` recovers the finished campaign.
pub fn check_rotation(dir: &Path, budget: u64) -> Result<(), String> {
    let slots = std::fs::read_dir(dir)
        .map_err(|error| format!("reading {}: {error}", dir.display()))?
        .flatten()
        .filter(|entry| {
            entry
                .path()
                .extension()
                .is_some_and(|ext| ext == "peachsnp")
        })
        .count();
    if slots != 4 {
        return Err(format!("{slots} checkpoint slots on disk, expected 4"));
    }
    match peachstar::CampaignSnapshot::resume_latest(dir) {
        Ok(Some(snapshot)) if snapshot.completed == budget => Ok(()),
        Ok(Some(snapshot)) => Err(format!(
            "resume_latest recovered {} of {budget} executions",
            snapshot.completed
        )),
        Ok(None) => Err("resume_latest found no snapshot".to_string()),
        Err(error) => Err(format!("resume_latest failed: {error}")),
    }
}

//! Library backing the `peachstar-cli` binary: command-line parsing and the
//! multi-threaded campaign runner.
//!
//! The binary reproduces the paper's evaluation workflow (Figure 4 and
//! Table I) from the command line: pick one of the six ICS targets (or all
//! of them), an execution budget and a strategy, then run one campaign per
//! repetition seed — spread across worker threads — and print a merged
//! report comparing Peach\* against the Peach baseline:
//!
//! ```text
//! cargo run -p peachstar-cli -- --target modbus --strategy peachstar \
//!     --executions 20000 --repetitions 3 --jobs 4
//! ```
//!
//! Parsing lives in [`parse_args`], execution in [`run`], and the binary's
//! whole `main` is [`run_main`]. Everything is plain `std` — no argument
//! parsing or thread-pool dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use peachstar::artifact::CrashArtifact;
use peachstar::campaign::{
    run_repetitions_shared, Campaign, CampaignConfig, CampaignReport, PhaseMask, ReconnectPolicy,
    RunPlan, SessionConfig, ShardConfig, Topology, TransportMode,
};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig};
use peachstar::stats::CoverageSeries;
use peachstar::strategy::StrategyKind;
use peachstar::{ControlServer, ServiceHooks};
use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
use peachstar_protocols::{Target, TargetId, WireChaos};

/// Which fuzzers a run compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Baseline only.
    Peach,
    /// Peach\* plus the Peach baseline it is compared against (the paper's
    /// workflow; suppress the baseline with `--no-baseline`).
    PeachStar,
    /// Both fuzzers, explicitly.
    Both,
}

impl StrategyChoice {
    /// Parses the `--strategy` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "peach" | "baseline" => Some(Self::Peach),
            "peachstar" | "peach*" | "star" => Some(Self::PeachStar),
            "both" | "compare" => Some(Self::Both),
            _ => None,
        }
    }

    /// The strategies this choice actually runs.
    #[must_use]
    pub fn kinds(self, no_baseline: bool) -> Vec<StrategyKind> {
        match self {
            Self::Peach => vec![StrategyKind::Peach],
            Self::PeachStar if no_baseline => vec![StrategyKind::PeachStar],
            Self::PeachStar | Self::Both => vec![StrategyKind::Peach, StrategyKind::PeachStar],
        }
    }
}

/// Parsed command-line options for a campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Targets to fuzz (one entry per `--target`, or all six for `all`).
    pub targets: Vec<TargetId>,
    /// Which fuzzers to run.
    pub strategy: StrategyChoice,
    /// Per-campaign execution budget.
    pub executions: u64,
    /// Base RNG seed; repetition `i` uses `seed + i`.
    pub seed: u64,
    /// Campaigns per (target, strategy) pair.
    pub repetitions: u64,
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    /// Coverage sampling interval (0 = executions / 100).
    pub sample_interval: u64,
    /// Also print the merged coverage series as CSV.
    pub csv: bool,
    /// Print the report as a machine-readable JSON document instead of the
    /// human-readable table.
    pub json: bool,
    /// Suppress the implicit Peach baseline of `--strategy peachstar`.
    pub no_baseline: bool,
    /// Worker threads *inside* each campaign (1 = the classic sequential
    /// loop; >= 2 = the worker topology with that many workers).
    pub shards: usize,
    /// The inline slice size: at most this many packets per executor
    /// dispatch (`None` = slices of one packet). Composes with `--sessions`
    /// (windows are whole sessions); `--shards N` workers run whole windows,
    /// so the two are refused together.
    pub batch: Option<u64>,
    /// Run stateful session campaigns (handshake → mutated payload →
    /// teardown, with session-scoped resets) instead of the single-packet
    /// stream. Requires session-capable targets.
    pub sessions: bool,
    /// Mutated payload packets per session (with `--sessions`).
    pub session_payload: u64,
    /// Which session phases are mutated (with `--sessions`).
    pub mutate: PhaseMask,
    /// Write a resumable campaign snapshot to this path (atomic temp +
    /// rename) at window boundaries. Requires exactly one target, one
    /// fuzzer and a single repetition.
    pub checkpoint: Option<PathBuf>,
    /// Completed windows between periodic checkpoints (with `--checkpoint`).
    pub checkpoint_every: u64,
    /// Resume a snapshotted campaign from this path instead of starting
    /// fresh; the final report is bit-identical to the uninterrupted run.
    pub resume: Option<PathBuf>,
    /// Stop at the first window boundary at or past this execution, write
    /// the snapshot to the `--checkpoint` path and exit — a controlled
    /// interruption for checkpoint/resume pipelines.
    pub stop_after: Option<u64>,
    /// Chain Peach\* repetitions through a merged puzzle corpus so later
    /// seeds start from earlier discoveries.
    pub shared_corpus: bool,
    /// Per-execution watchdog deadline in milliseconds: executions run on a
    /// supervised worker thread and one that outlives the deadline is
    /// abandoned and recorded as a hang fault.
    pub exec_timeout_ms: Option<u64>,
    /// Write one crash reproducer bundle per unique bug into this directory
    /// (replayable with `peachstar-cli replay <bundle>`).
    pub artifacts: Option<PathBuf>,
    /// Exit with status 2 (instead of 0) when any campaign found a bug —
    /// distinguishes "found faults" from both success and operational
    /// failure in scripts and CI.
    pub fail_on_fault: bool,
    /// Wrap every target in the deterministic chaos layer with this seed:
    /// injected panics exercise the fault-tolerant execution path (hangs
    /// too, with `--chaos-hang-every`).
    pub chaos: Option<u64>,
    /// With `--chaos`: also inject blocking hangs on every ~Nth distinct
    /// packet. Requires `--exec-timeout-ms` so the watchdog bounds them.
    pub chaos_hang_every: Option<u64>,
    /// How packets reach the target: direct in-process calls (the default)
    /// or length-framed request/response over loopback TCP against a
    /// spawned socket server. Reports are bit-identical either way.
    pub transport: TransportMode,
    /// Run one campaign as a long-lived supervised service (`serve` mode):
    /// rolling checkpoints into the `--checkpoint` rotation directory, an
    /// optional `--control` socket, graceful drain on `stop`, and SIGKILL
    /// recovery via `--resume-latest`.
    pub serve: bool,
    /// Bind address for the line-oriented JSON control socket (serve mode):
    /// one command per line, `status` | `stop`.
    pub control: Option<String>,
    /// Rotation depth in serve mode: the newest K snapshots kept in the
    /// rotation directory, older slots pruned.
    pub keep_checkpoints: usize,
    /// Recover a serve-mode rotation: scan this directory newest-first,
    /// skip truncated or corrupt snapshots, and resume the newest intact
    /// one (start fresh when none survives).
    pub resume_latest: Option<PathBuf>,
    /// Reconnect attempts per lost framed-TCP connection before it is
    /// declared dead (`None` = the default bounded-backoff schedule).
    pub reconnect_retries: Option<u32>,
    /// Deterministic server-side chaos: drop the serving connection before
    /// every Nth frame (requires `--transport tcp`).
    pub wire_drop_every: Option<u64>,
    /// With `--wire-drop-every`: accept-and-close this many dials after
    /// each drop, exhausting reconnect budgets deterministically.
    pub wire_reject_accepts: Option<u64>,
    /// With `--wire-drop-every`: cap the number of drop incidents.
    pub wire_drop_limit: Option<u64>,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Both,
            executions: 20_000,
            seed: 1,
            repetitions: 1,
            jobs: 0,
            sample_interval: 0,
            csv: false,
            json: false,
            no_baseline: false,
            shards: 1,
            batch: None,
            sessions: false,
            session_payload: SessionConfig::DEFAULT_PAYLOAD_PACKETS,
            mutate: PhaseMask::default(),
            checkpoint: None,
            checkpoint_every: Self::DEFAULT_CHECKPOINT_EVERY,
            resume: None,
            stop_after: None,
            shared_corpus: false,
            exec_timeout_ms: None,
            artifacts: None,
            fail_on_fault: false,
            chaos: None,
            chaos_hang_every: None,
            transport: TransportMode::InProcess,
            serve: false,
            control: None,
            keep_checkpoints: Self::DEFAULT_KEEP_CHECKPOINTS,
            resume_latest: None,
            reconnect_retries: None,
            wire_drop_every: None,
            wire_reject_accepts: None,
            wire_drop_limit: None,
        }
    }
}

impl CliOptions {
    /// Default checkpoint cadence: every 8 completed windows.
    pub const DEFAULT_CHECKPOINT_EVERY: u64 = 8;
    /// Default serve-mode rotation depth: keep the 4 newest snapshots.
    pub const DEFAULT_KEEP_CHECKPOINTS: usize = 4;
}

/// What the command line asked for.
// One Command is parsed per process; the size spread between variants is
// irrelevant and boxing CliOptions would only obscure every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run campaigns with these options.
    Run(CliOptions),
    /// Print usage.
    Help,
    /// Print the known targets.
    ListTargets,
    /// Re-run a crash reproducer bundle and verify the recorded fault fires.
    Replay(PathBuf),
}

/// Usage text printed by `--help`.
pub const USAGE: &str = "\
peachstar-cli — run Peach vs Peach* ICS fuzzing campaigns (DAC 2020 reproduction)

USAGE:
    peachstar-cli [OPTIONS]

OPTIONS:
    --target <NAME>          Target to fuzz: modbus | iec104 | iec61850 |
                             lib60870 | iccp | dnp3 | all. Repeatable.
                             [default: modbus]
    --strategy <KIND>        peach | peachstar | both. `peachstar` also runs
                             the Peach baseline for comparison (the paper's
                             workflow); add --no-baseline to suppress it.
                             [default: both]
    --executions <N>         Packet executions per campaign [default: 20000]
    --seed <N>               Base RNG seed; repetition i uses seed+i [default: 1]
    --repetitions <N>        Campaigns per fuzzer, averaged into one merged
                             coverage series [default: 1]
    --jobs <N>               Worker threads for parallel campaigns
                             [default: available cores]
    --sample-interval <N>    Executions between coverage samples
                             [default: executions/100]
    --shards <N>             Worker threads inside each campaign: 1 runs the
                             classic sequential loop, >= 2 runs the sharded
                             engine (reset-aligned windows executed in
                             parallel, merged deterministically) [default: 1]
    --batch <N>              The inline slice size: generate up to N packets,
                             execute them in one target call, then reduce —
                             amortising per-packet dispatch on one core.
                             Without it every window runs in slices of one
                             packet. Peach reports are identical for every
                             N; for N > 1 Peach* digests feedback at batch
                             ends (deterministic, barrier-fed like --shards).
                             Not with --shards N >= 2, whose workers run
                             every window in one call.
    --sessions               Stateful session fuzzing: every session replays
                             the target's handshake (e.g. STARTDT act), runs
                             mutated payload packets against the opened
                             session state, then tears down (STOPDT act).
                             The target resets at session boundaries instead
                             of the fixed interval. Requires session-capable
                             targets (iec104, lib60870, iec61850, iccp).
    --session-payload <N>    Mutated payload packets per session [default: 8]
    --mutate-phase <PHASE>   Which session phase is mutated: handshake |
                             payload | teardown. Repeatable; unmutated
                             handshake/teardown phases replay the template
                             verbatim, an unmutated payload phase sends
                             model-default packets. [default: payload]
    --checkpoint <PATH>      Write a resumable campaign snapshot to PATH
                             (atomically: temp file + rename) every
                             --checkpoint-every windows and at the end.
                             Requires exactly one target, one fuzzer
                             (--strategy peach, or peachstar with
                             --no-baseline) and --repetitions 1.
    --checkpoint-every <N>   Completed windows between periodic checkpoints
                             [default: 8]
    --resume <PATH>          Resume a snapshotted campaign: restores the
                             puzzle corpus, coverage map, RNG stream and
                             schedule cursor, then continues to the original
                             budget. The final report is bit-identical to
                             the uninterrupted run. Composes with
                             --checkpoint to keep snapshotting.
    --stop-after <N>         With --checkpoint: run to the first window
                             boundary at or past execution N, write the
                             snapshot, and exit (a controlled interruption)
    --shared-corpus          With --repetitions >= 2: chain the Peach*
                             repetitions through a merged puzzle corpus so
                             each seed starts from the donors every earlier
                             seed discovered
    --exec-timeout-ms <N>    Per-execution deadline: run every packet on a
                             supervised watchdog thread and abandon (recording
                             a hang fault) any execution that outlives N ms.
                             A run in which nothing hangs is bit-identical to
                             an unsupervised one.
    --transport <MODE>       inprocess | tcp. How packets reach the target:
                             direct in-process calls (the default) or
                             length-framed request/response over loopback TCP
                             against a spawned socket server (TPKT/COTP
                             framing for iec61850/iccp, raw length framing
                             otherwise). Reports are bit-identical either
                             way. With --shards N, each of the N workers
                             drives its own live connection (each with its
                             own server-side target instance).
                             [default: inprocess]
    --reconnect-retries <N>  With --transport tcp: reconnect attempts per
                             lost connection (bounded exponential backoff,
                             journal replay restores the session; 0 fails on
                             the first socket error). A connection that
                             exhausts its budget is declared dead; with
                             --shards its windows redistribute onto the
                             surviving connections. [default: 4]
    --wire-drop-every <N>    With --transport tcp: deterministic server-side
                             failure injection — the server drops the serving
                             connection before every Nth frame. The campaign
                             recovers by reconnect + journal replay, so
                             reports stay bit-identical to a healthy wire.
    --wire-reject-accepts <N> With --wire-drop-every: after each drop the
                             server accepts-and-closes this many dials,
                             deterministically exhausting reconnect budgets.
    --wire-drop-limit <N>    With --wire-drop-every: cap the number of drop
                             incidents (default: unlimited).
    --control <ADDR>         serve: answer a line-oriented JSON control
                             socket on ADDR — one command per line, `status`
                             (live progress document) or `stop` (graceful
                             drain: finish the current window, write a final
                             checkpoint, exit 0).
    --keep-checkpoints <K>   serve: rotation depth — keep the K newest
                             snapshots in the rotation directory, pruning
                             older slots [default: 4]
    --resume-latest <DIR>    serve: recover a rotation — scan DIR newest
                             first, skip truncated or corrupt snapshots, and
                             resume the newest intact one (or start fresh).
                             DIR doubles as the rotation directory when
                             --checkpoint is not given.
    --artifacts <DIR>        Write one crash reproducer bundle per unique bug
                             into DIR (atomic, checksummed, deterministic file
                             names). Re-run a bundle with `replay <FILE>`.
    --fail-on-fault          Exit with status 2 when any campaign found a bug
                             (0 = ran clean, 1 = operational error) — lets
                             scripts and CI distinguish the three outcomes.
    --chaos <SEED>           Wrap every target in the deterministic chaos
                             layer: injected panics, selected by packet
                             content under SEED, exercise panic containment
                             end to end. The non-chaos campaign stream is
                             unaffected.
    --chaos-hang-every <N>   With --chaos: also inject blocking hangs on
                             every ~Nth distinct packet. Requires
                             --exec-timeout-ms so the watchdog bounds them.
    --csv                    Also print the merged coverage series as CSV
    --json                   Print the report as machine-readable JSON
                             instead of the table
    --no-baseline            With --strategy peachstar: skip the baseline run
    --list-targets           List the built-in targets and exit
    -h, --help               Print this help and exit

MODES:
    serve                    Run one campaign as a long-lived supervised
                             service: rolling checkpoints into the
                             --checkpoint rotation directory (atomic temp +
                             rename, oldest slots pruned beyond
                             --keep-checkpoints), an optional --control
                             socket, and bit-exact SIGKILL recovery via
                             serve --resume-latest <dir>. Takes the same
                             campaign flags as a plain run; like
                             --checkpoint it requires exactly one target,
                             one fuzzer and --repetitions 1.
    replay <FILE>            Re-run a crash reproducer bundle written by
                             --artifacts: repeats the recorded campaign up to
                             the recorded execution and exits 0 only if the
                             recorded fault fires again (same site, same
                             execution, same packet).

EXAMPLES:
    peachstar-cli --target modbus --strategy peachstar --executions 5000 --jobs 4
    peachstar-cli --target all --repetitions 3 --jobs 8 --csv
    peachstar-cli --target modbus --strategy peachstar --no-baseline \\
        --checkpoint run.snap --stop-after 10000   # interrupt at a boundary
    peachstar-cli --target modbus --strategy peachstar --no-baseline \\
        --resume run.snap                          # finish the campaign
    peachstar-cli --target modbus --strategy peach --chaos 7 \\
        --artifacts crashes/ --fail-on-fault       # chaos run + reproducers
    peachstar-cli --target modbus --transport tcp \\
        --batch 250                                # real-wire campaign
    peachstar-cli serve --target modbus --strategy peach --checkpoint rot/ \\
        --keep-checkpoints 4 --control 127.0.0.1:4455   # supervised service
    peachstar-cli serve --target modbus --strategy peach \\
        --resume-latest rot/                       # recover after a SIGKILL
    peachstar-cli replay crashes/libmodbus-panic-0123456789abcdef.peachart
";

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message naming the offending argument.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut options = CliOptions::default();
    let mut targets: Vec<TargetId> = Vec::new();
    let mut mutate: Option<PhaseMask> = None;
    let mut session_payload: Option<u64> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut keep_checkpoints: Option<usize> = None;
    let mut iter = args.iter();

    fn value<'a>(
        flag: &str,
        iter: &mut std::slice::Iter<'a, String>,
    ) -> Result<&'a String, String> {
        iter.next().ok_or_else(|| format!("{flag} expects a value"))
    }

    fn number(flag: &str, raw: &str) -> Result<u64, String> {
        raw.replace('_', "")
            .parse()
            .map_err(|_| format!("{flag}: `{raw}` is not a number"))
    }

    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--list-targets" => return Ok(Command::ListTargets),
            "replay" => {
                let path = value("replay", &mut iter)?;
                if let Some(extra) = iter.next() {
                    return Err(format!("replay takes exactly one bundle path (got `{extra}`)"));
                }
                return Ok(Command::Replay(PathBuf::from(path)));
            }
            "serve" => options.serve = true,
            "--control" => {
                options.control = Some(value("--control", &mut iter)?.clone());
            }
            "--keep-checkpoints" => {
                let keep = number("--keep-checkpoints", value("--keep-checkpoints", &mut iter)?)?;
                if keep == 0 {
                    return Err("--keep-checkpoints must be at least 1".into());
                }
                keep_checkpoints = Some(usize::try_from(keep).unwrap_or(1));
            }
            "--resume-latest" => {
                options.resume_latest = Some(PathBuf::from(value("--resume-latest", &mut iter)?));
            }
            "--reconnect-retries" => {
                let retries =
                    number("--reconnect-retries", value("--reconnect-retries", &mut iter)?)?;
                let retries = u32::try_from(retries)
                    .map_err(|_| "--reconnect-retries: value too large".to_string())?;
                options.reconnect_retries = Some(retries);
            }
            "--wire-drop-every" => {
                let every = number("--wire-drop-every", value("--wire-drop-every", &mut iter)?)?;
                if every == 0 {
                    return Err("--wire-drop-every must be at least 1".into());
                }
                options.wire_drop_every = Some(every);
            }
            "--wire-reject-accepts" => {
                options.wire_reject_accepts = Some(number(
                    "--wire-reject-accepts",
                    value("--wire-reject-accepts", &mut iter)?,
                )?);
            }
            "--wire-drop-limit" => {
                options.wire_drop_limit = Some(number(
                    "--wire-drop-limit",
                    value("--wire-drop-limit", &mut iter)?,
                )?);
            }
            "--target" => {
                let raw = value("--target", &mut iter)?;
                if raw.eq_ignore_ascii_case("all") {
                    targets.extend(TargetId::ALL);
                } else {
                    let target = TargetId::parse(raw).ok_or_else(|| {
                        format!("--target: unknown target `{raw}` (try --list-targets)")
                    })?;
                    targets.push(target);
                }
            }
            "--strategy" => {
                let raw = value("--strategy", &mut iter)?;
                options.strategy = StrategyChoice::parse(raw).ok_or_else(|| {
                    format!("--strategy: `{raw}` is not one of peach|peachstar|both")
                })?;
            }
            "--executions" => {
                options.executions = number("--executions", value("--executions", &mut iter)?)?;
                if options.executions == 0 {
                    return Err("--executions must be at least 1".into());
                }
            }
            "--seed" => options.seed = number("--seed", value("--seed", &mut iter)?)?,
            "--repetitions" => {
                options.repetitions =
                    number("--repetitions", value("--repetitions", &mut iter)?)?;
                if options.repetitions == 0 {
                    return Err("--repetitions must be at least 1".into());
                }
            }
            "--jobs" => {
                options.jobs =
                    usize::try_from(number("--jobs", value("--jobs", &mut iter)?)?).unwrap_or(0);
            }
            "--sample-interval" => {
                options.sample_interval =
                    number("--sample-interval", value("--sample-interval", &mut iter)?)?;
            }
            "--shards" => {
                let shards = number("--shards", value("--shards", &mut iter)?)?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
                options.shards = usize::try_from(shards).unwrap_or(1);
            }
            "--batch" => {
                let batch = number("--batch", value("--batch", &mut iter)?)?;
                if batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
                options.batch = Some(batch);
            }
            "--sessions" => options.sessions = true,
            "--session-payload" => {
                let payload =
                    number("--session-payload", value("--session-payload", &mut iter)?)?;
                if payload == 0 {
                    return Err("--session-payload must be at least 1".into());
                }
                session_payload = Some(payload);
            }
            "--mutate-phase" => {
                let raw = value("--mutate-phase", &mut iter)?;
                let set = PhaseMask::parse_phase(raw).ok_or_else(|| {
                    format!("--mutate-phase: `{raw}` is not one of handshake|payload|teardown")
                })?;
                let mask = mutate.get_or_insert(PhaseMask {
                    handshake: false,
                    payload: false,
                    teardown: false,
                });
                set(mask);
            }
            "--checkpoint" => {
                options.checkpoint = Some(PathBuf::from(value("--checkpoint", &mut iter)?));
            }
            "--checkpoint-every" => {
                let every =
                    number("--checkpoint-every", value("--checkpoint-every", &mut iter)?)?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                checkpoint_every = Some(every);
            }
            "--resume" => {
                options.resume = Some(PathBuf::from(value("--resume", &mut iter)?));
            }
            "--stop-after" => {
                let stop = number("--stop-after", value("--stop-after", &mut iter)?)?;
                if stop == 0 {
                    return Err("--stop-after must be at least 1".into());
                }
                options.stop_after = Some(stop);
            }
            "--shared-corpus" => options.shared_corpus = true,
            "--exec-timeout-ms" => {
                let millis = number("--exec-timeout-ms", value("--exec-timeout-ms", &mut iter)?)?;
                if millis == 0 {
                    return Err("--exec-timeout-ms must be at least 1".into());
                }
                options.exec_timeout_ms = Some(millis);
            }
            "--transport" => {
                let raw = value("--transport", &mut iter)?;
                options.transport = match raw.to_ascii_lowercase().as_str() {
                    "inprocess" | "in-process" | "direct" => TransportMode::InProcess,
                    "tcp" | "framed-tcp" => TransportMode::FramedTcp,
                    _ => {
                        return Err(format!(
                            "--transport: `{raw}` is not one of inprocess|tcp"
                        ))
                    }
                };
            }
            "--artifacts" => {
                options.artifacts = Some(PathBuf::from(value("--artifacts", &mut iter)?));
            }
            "--fail-on-fault" => options.fail_on_fault = true,
            "--chaos" => {
                options.chaos = Some(number("--chaos", value("--chaos", &mut iter)?)?);
            }
            "--chaos-hang-every" => {
                let every =
                    number("--chaos-hang-every", value("--chaos-hang-every", &mut iter)?)?;
                if every == 0 {
                    return Err("--chaos-hang-every must be at least 1".into());
                }
                options.chaos_hang_every = Some(every);
            }
            "--csv" => options.csv = true,
            "--json" => options.json = true,
            "--no-baseline" => options.no_baseline = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if let Some(mask) = mutate {
        if !options.sessions {
            return Err("--mutate-phase requires --sessions".into());
        }
        options.mutate = mask;
    }
    if let Some(payload) = session_payload {
        if !options.sessions {
            return Err("--session-payload requires --sessions".into());
        }
        options.session_payload = payload;
    }
    if !targets.is_empty() {
        targets.dedup();
        options.targets = targets;
    }
    if options.sessions {
        let session_capable = |id: &TargetId| id.create().session_template().is_some();
        let sessionless: Vec<&str> = options
            .targets
            .iter()
            .filter(|id| !session_capable(id))
            .map(|id| id.project_name())
            .collect();
        if !sessionless.is_empty() {
            let capable: Vec<&str> = TargetId::ALL
                .iter()
                .filter(|id| session_capable(id))
                .map(|id| id.project_name())
                .collect();
            return Err(format!(
                "--sessions: target(s) without a session handshake: {} \
                 (session-capable: {})",
                sessionless.join(", "),
                capable.join(", ")
            ));
        }
    }
    if !options.serve {
        if options.control.is_some() {
            return Err("--control answers a supervised service; enable it with serve".into());
        }
        if keep_checkpoints.is_some() {
            return Err("--keep-checkpoints rotates serve-mode snapshots; enable it with serve".into());
        }
        if options.resume_latest.is_some() {
            return Err("--resume-latest recovers a serve-mode rotation; enable it with serve".into());
        }
    }
    if let Some(keep) = keep_checkpoints {
        options.keep_checkpoints = keep;
    }
    if options.serve {
        if options.stop_after.is_some() {
            return Err("serve drains via the control socket (`stop`); drop --stop-after".into());
        }
        if options.resume.is_some() {
            return Err(
                "serve recovers its own rotation: use --resume-latest <dir> instead of --resume"
                    .into(),
            );
        }
        if options.checkpoint.is_none() {
            match &options.resume_latest {
                Some(dir) => options.checkpoint = Some(dir.clone()),
                None => {
                    return Err(
                        "serve needs a rotation directory: --checkpoint <dir> (or \
                         --resume-latest <dir>)"
                            .into(),
                    )
                }
            }
        }
    }
    if let Some(every) = checkpoint_every {
        if options.checkpoint.is_none() {
            return Err("--checkpoint-every requires --checkpoint".into());
        }
        options.checkpoint_every = every;
    }
    if options.stop_after.is_some() && options.checkpoint.is_none() {
        return Err("--stop-after requires --checkpoint <path> to hold the snapshot".into());
    }
    if let Some(stop) = options.stop_after {
        if stop > options.executions {
            return Err(format!(
                "--stop-after {stop} exceeds the execution budget ({})",
                options.executions
            ));
        }
    }
    if options.checkpoint.is_some() || options.resume.is_some() {
        if options.shared_corpus {
            return Err("--shared-corpus cannot be combined with --checkpoint/--resume".into());
        }
        if options.targets.len() != 1 {
            return Err(
                "--checkpoint/--resume snapshots exactly one campaign: give one --target \
                 (not `all`)"
                    .into(),
            );
        }
        if options.strategy.kinds(options.no_baseline).len() != 1 {
            return Err(
                "--checkpoint/--resume snapshots exactly one campaign: use --strategy peach, \
                 or --strategy peachstar with --no-baseline"
                    .into(),
            );
        }
        if options.repetitions != 1 {
            return Err("--checkpoint/--resume requires --repetitions 1".into());
        }
    }
    if options.chaos_hang_every.is_some() {
        if options.chaos.is_none() {
            return Err("--chaos-hang-every requires --chaos <seed>".into());
        }
        if options.exec_timeout_ms.is_none() {
            return Err(
                "--chaos-hang-every injects blocking hangs; arm the watchdog with \
                 --exec-timeout-ms <ms> so they are bounded"
                    .into(),
            );
        }
    }
    if options.artifacts.is_some() && options.shared_corpus {
        // A later shared-corpus repetition starts from state its bundle
        // cannot record, so its artifacts would not replay.
        return Err("--artifacts cannot be combined with --shared-corpus".into());
    }
    if options.shared_corpus {
        if options.repetitions < 2 {
            return Err(
                "--shared-corpus needs --repetitions >= 2 (a single run has nothing to share)"
                    .into(),
            );
        }
        if !options
            .strategy
            .kinds(options.no_baseline)
            .contains(&StrategyKind::PeachStar)
        {
            return Err(
                "--shared-corpus shares the Peach* puzzle corpus; --strategy peach keeps none"
                    .into(),
            );
        }
        if options.shards >= 2 {
            return Err(
                "--shared-corpus chains repetitions sequentially through one corpus; \
                 drop --shards"
                    .into(),
            );
        }
    }
    if options.batch.is_some() && options.shards >= 2 {
        return Err(
            "--batch is the inline slice size; --shards workers run every window in one \
             call, so drop --batch"
                .into(),
        );
    }
    if options.reconnect_retries.is_some() && options.transport != TransportMode::FramedTcp {
        return Err(
            "--reconnect-retries tunes the framed-TCP reconnect budget; enable the wire \
             with --transport tcp"
                .into(),
        );
    }
    match options.wire_drop_every {
        None => {
            if options.wire_reject_accepts.is_some() {
                return Err("--wire-reject-accepts requires --wire-drop-every".into());
            }
            if options.wire_drop_limit.is_some() {
                return Err("--wire-drop-limit requires --wire-drop-every".into());
            }
        }
        Some(_) if options.transport != TransportMode::FramedTcp => {
            return Err(
                "--wire-drop-every injects server-side connection drops; enable the wire \
                 with --transport tcp"
                    .into(),
            );
        }
        Some(_) => {}
    }
    Ok(Command::Run(options))
}

/// One campaign to execute: the unit of work distributed over threads.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    target: TargetId,
    strategy: StrategyKind,
    seed: u64,
}

/// All repetitions of one (target, strategy) pair, merged.
#[derive(Debug)]
pub struct MergedCampaign {
    /// The fuzzed target.
    pub target: TargetId,
    /// The fuzzer that produced these reports.
    pub strategy: StrategyKind,
    /// Point-wise averaged coverage series over all repetitions.
    pub merged_series: CoverageSeries,
    /// The individual repetition reports, in seed order.
    pub reports: Vec<CampaignReport>,
}

impl MergedCampaign {
    fn mean<F: Fn(&CampaignReport) -> f64>(&self, f: F) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(f).sum::<f64>() / self.reports.len() as f64
    }

    /// Final paths of the merged series.
    #[must_use]
    pub fn final_paths(&self) -> usize {
        self.merged_series.final_paths()
    }

    /// Mean validity ratio over the repetitions.
    #[must_use]
    pub fn validity(&self) -> f64 {
        self.mean(CampaignReport::validity_ratio)
    }

    /// Mean puzzle-corpus size over the repetitions.
    #[must_use]
    pub fn corpus_size(&self) -> f64 {
        self.mean(|r| r.corpus_size as f64)
    }

    /// Mean campaign throughput (executions per wall-clock second) over the
    /// repetitions.
    #[must_use]
    pub fn executions_per_second(&self) -> f64 {
        self.mean(CampaignReport::executions_per_second)
    }

    /// Unique bug sites over all repetitions, with the repetition seed,
    /// earliest execution, reproducer packet and data model that first
    /// triggered each.
    #[must_use]
    pub fn unique_bugs(&self, base_seed: u64) -> Vec<UniqueBug> {
        let mut bugs: BTreeMap<&'static str, UniqueBug> = BTreeMap::new();
        for (repetition, report) in self.reports.iter().enumerate() {
            let seed = base_seed + repetition as u64;
            for bug in &report.bugs {
                let entry = || UniqueBug {
                    description: bug.fault.to_string(),
                    seed,
                    first_execution: bug.first_execution,
                    packet_hex: hex(&bug.packet),
                    model: bug.model.clone(),
                };
                bugs.entry(bug.fault.site)
                    .and_modify(|existing| {
                        if bug.first_execution < existing.first_execution {
                            *existing = entry();
                        }
                    })
                    .or_insert_with(entry);
            }
        }
        bugs.into_values().collect()
    }
}

/// One deduplicated bug of a [`MergedCampaign`], with everything needed to
/// reproduce it by hand: the triggering packet as hex and the data model it
/// was generated from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueBug {
    /// Human-readable fault description (kind at site).
    pub description: String,
    /// Repetition seed whose campaign first triggered the bug.
    pub seed: u64,
    /// Earliest execution index (1-based) at which the bug fired.
    pub first_execution: u64,
    /// The triggering packet, hex-encoded.
    pub packet_hex: String,
    /// Data model the packet was generated from.
    pub model: String,
}

/// Lowercase hex encoding of a packet.
fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// The outcome of [`run`]: one merged campaign per (target, strategy) pair,
/// in target order.
#[derive(Debug)]
pub struct RunOutcome {
    /// The options the run used (after defaulting).
    pub options: CliOptions,
    /// Merged campaigns, grouped by target in [`TargetId::ALL`] order.
    pub campaigns: Vec<MergedCampaign>,
    /// Wall-clock seconds the whole run took.
    pub wall_seconds: f64,
    /// Set when `--stop-after` ended the run at this window boundary instead
    /// of completion; `campaigns` is empty and the snapshot sits at the
    /// `--checkpoint` path, ready for `--resume`.
    pub stopped_at: Option<u64>,
    /// Reproducer bundles written under `--artifacts`, one per unique bug,
    /// in deterministic (target, fault kind, site) order.
    pub artifacts: Vec<PathBuf>,
}

impl RunOutcome {
    /// The merged campaign for a (target, strategy) pair, if it ran.
    #[must_use]
    pub fn find(&self, target: TargetId, strategy: StrategyKind) -> Option<&MergedCampaign> {
        self.campaigns
            .iter()
            .find(|c| c.target == target && c.strategy == strategy)
    }
}

/// The per-campaign configuration a [`WorkItem`]'s options translate to.
fn build_config(
    options: &CliOptions,
    strategy: StrategyKind,
    seed: u64,
    sample_interval: u64,
) -> CampaignConfig {
    let mut config = CampaignConfig::new(strategy)
        .executions(options.executions)
        .rng_seed(seed)
        .sample_interval(sample_interval);
    if options.sessions {
        config =
            config.sessions(SessionConfig::new(options.session_payload).mutate(options.mutate));
    }
    if let Some(batch) = options.batch {
        config = config.batch(batch);
    }
    if let Some(millis) = options.exec_timeout_ms {
        config = config.exec_timeout_ms(millis);
    }
    if let Some(retries) = options.reconnect_retries {
        config = config.reconnect(ReconnectPolicy::DEFAULT.retries(retries));
    }
    if let Some(every) = options.wire_drop_every {
        let mut chaos = WireChaos::drop_every(every);
        if let Some(rejects) = options.wire_reject_accepts {
            chaos = chaos.reject_after_drop(rejects);
        }
        if let Some(limit) = options.wire_drop_limit {
            chaos = chaos.limit(limit);
        }
        config = config.wire_chaos(chaos);
    }
    config.transport(options.transport)
}

/// The chaos-injection configuration the options describe, if `--chaos` was
/// given: the seeded default failure mix, with blocking hangs armed only
/// when `--chaos-hang-every` asked for them (parse-time validation has
/// already ensured the watchdog is on in that case).
fn chaos_config(options: &CliOptions) -> Option<ChaosConfig> {
    options.chaos.map(|seed| {
        let config = ChaosConfig::new(seed);
        match options.chaos_hang_every {
            Some(every) => config.hang_every(every),
            None => config,
        }
    })
}

/// Instantiates a campaign target for `target`, wrapped in the
/// deterministic [`ChaosTarget`] failure injector when `--chaos` is active.
fn make_target(options: &CliOptions, target: TargetId) -> Box<dyn Target> {
    match chaos_config(options) {
        Some(chaos) => Box::new(ChaosTarget::new(target.create_send(), chaos)),
        None => target.create(),
    }
}

/// The topology the options ask for: `--shards N` with N >= 2 runs N
/// workers (under `--transport tcp`, N live connections), anything else
/// runs inline.
fn topology(options: &CliOptions) -> Topology {
    match options.shards {
        workers if workers >= 2 => Topology::Workers(ShardConfig::with_workers(workers)),
        _ => Topology::Inline,
    }
}

/// The campaign one work item runs: its target (chaos-wrapped under
/// `--chaos`) on the topology the options ask for.
fn build_campaign(options: &CliOptions, target: TargetId, config: CampaignConfig) -> Campaign {
    Campaign::new(make_target(options, target), config).topology(topology(options))
}

/// Runs all requested campaigns, distributing repetitions over `jobs`
/// worker threads, and merges each (target, strategy) group's coverage
/// series.
///
/// `--checkpoint`/`--resume`/`--stop-after` runs drive the single campaign
/// through a checkpointing run plan instead of the thread pool; `--shared-corpus`
/// chains the repetitions sequentially through one merged puzzle corpus.
///
/// # Errors
///
/// Returns a human-readable message when a snapshot cannot be read,
/// written, or does not match the requested campaign, or when a reproducer
/// bundle cannot be written under `--artifacts`.
pub fn run(options: &CliOptions) -> Result<RunOutcome, String> {
    let mut outcome = run_inner(options)?;
    if let Some(dir) = &options.artifacts {
        outcome.artifacts = write_artifacts(dir, &outcome)?;
    }
    Ok(outcome)
}

/// Writes one [`CrashArtifact`] reproducer bundle per unique
/// (target, fault kind, site) bug of the outcome into `dir`, recording the
/// exact campaign recipe (repetition seed, sharding, chaos injection) that
/// first triggered it.
fn write_artifacts(dir: &Path, outcome: &RunOutcome) -> Result<Vec<PathBuf>, String> {
    let options = &outcome.options;
    let sample_interval = effective_sample_interval(options);
    let sync_windows = match topology(options) {
        Topology::Inline => None,
        Topology::Workers(shard) => Some(shard.sync_windows),
    };
    let chaos = chaos_config(options);
    let mut seen: BTreeSet<(TargetId, String)> = BTreeSet::new();
    let mut paths = Vec::new();
    for merged in &outcome.campaigns {
        for (repetition, report) in merged.reports.iter().enumerate() {
            let seed = options.seed + repetition as u64;
            let config = build_config(options, merged.strategy, seed, sample_interval);
            for bug in &report.bugs {
                if !seen.insert((merged.target, format!("{:?}@{}", bug.fault.kind, bug.fault.site)))
                {
                    continue;
                }
                let artifact = CrashArtifact::from_bug(
                    merged.target,
                    &config,
                    sync_windows.map(|windows| windows as u64),
                    chaos,
                    bug,
                );
                let path = artifact
                    .write_atomic(dir)
                    .map_err(|error| format!("--artifacts {}: {error}", dir.display()))?;
                paths.push(path);
            }
        }
    }
    Ok(paths)
}

/// The sample interval the options resolve to (`--sample-interval`, or 1% of
/// the budget when left at 0).
fn effective_sample_interval(options: &CliOptions) -> u64 {
    if options.sample_interval > 0 {
        options.sample_interval
    } else {
        (options.executions / 100).max(1)
    }
}

fn run_inner(options: &CliOptions) -> Result<RunOutcome, String> {
    let start = Instant::now();
    let kinds = options.strategy.kinds(options.no_baseline);
    let sample_interval = effective_sample_interval(options);

    if options.serve {
        return run_serve(options, kinds[0], sample_interval, start);
    }
    if options.checkpoint.is_some() || options.resume.is_some() {
        return run_checkpointable(options, kinds[0], sample_interval, start);
    }
    if options.shared_corpus {
        return Ok(run_shared(options, &kinds, sample_interval, start));
    }

    let mut queue: VecDeque<WorkItem> = VecDeque::new();
    for &target in &options.targets {
        for &strategy in &kinds {
            for repetition in 0..options.repetitions {
                queue.push_back(WorkItem {
                    target,
                    strategy,
                    seed: options.seed + repetition,
                });
            }
        }
    }

    let jobs = if options.jobs > 0 {
        options.jobs
    } else if options.shards >= 2 {
        // Worker-topology campaigns parallelise internally; running many of
        // them concurrently by default would oversubscribe the machine.
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
    .min(queue.len().max(1));

    let queue = Mutex::new(queue);
    let results: Mutex<Vec<(WorkItem, CampaignReport)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let Some(item) = queue.lock().expect("queue lock").pop_front() else {
                    return;
                };
                let config = build_config(options, item.strategy, item.seed, sample_interval);
                let report = build_campaign(options, item.target, config).run();
                results.lock().expect("results lock").push((item, report));
            });
        }
    });

    let mut results = results.into_inner().expect("results lock");
    // Deterministic merge order regardless of thread completion order.
    results.sort_by_key(|(item, _)| (item.target, strategy_order(item.strategy), item.seed));

    let mut campaigns = Vec::new();
    for &target in &options.targets {
        for &strategy in &kinds {
            let reports: Vec<CampaignReport> = results
                .iter()
                .filter(|(item, _)| item.target == target && item.strategy == strategy)
                .map(|(_, report)| report.clone())
                .collect();
            if reports.is_empty() {
                continue;
            }
            let series: Vec<CoverageSeries> =
                reports.iter().map(|r| r.series.clone()).collect();
            campaigns.push(MergedCampaign {
                target,
                strategy,
                merged_series: CoverageSeries::average(&series),
                reports,
            });
        }
    }

    Ok(RunOutcome {
        options: options.clone(),
        campaigns,
        wall_seconds: start.elapsed().as_secs_f64(),
        stopped_at: None,
        artifacts: Vec::new(),
    })
}

/// The `--checkpoint`/`--resume`/`--stop-after` path: exactly one campaign
/// (parse-time validated), driven through [`Campaign::run_plan`].
fn run_checkpointable(
    options: &CliOptions,
    strategy: StrategyKind,
    sample_interval: u64,
    start: Instant,
) -> Result<RunOutcome, String> {
    let target = options.targets[0];
    let config = build_config(options, strategy, options.seed, sample_interval);
    let resumed = options
        .resume
        .as_ref()
        .map(|path| {
            CampaignSnapshot::read_from(path)
                .map_err(|error| format!("--resume {}: {error}", path.display()))
        })
        .transpose()?;
    let checkpoint = options
        .checkpoint
        .as_ref()
        .map(|path| CheckpointConfig::new(path.clone(), options.checkpoint_every));
    let campaign = build_campaign(options, target, config);
    // A controlled interruption runs to the first boundary at or past
    // --stop-after; its checkpoint there is the snapshot to resume.
    let stop_after = options
        .stop_after
        .map(|stop| first_boundary(&campaign.round_boundaries(), stop))
        .transpose()?;
    let (report, _) = campaign
        .run_plan(RunPlan {
            resume: resumed.as_ref(),
            checkpoint: checkpoint.as_ref(),
            stop_after,
            ..RunPlan::default()
        })
        .map_err(|error| format!("checkpointable campaign: {error}"))?;

    if stop_after.is_some() {
        return Ok(RunOutcome {
            options: options.clone(),
            campaigns: Vec::new(),
            wall_seconds: start.elapsed().as_secs_f64(),
            stopped_at: Some(report.executions),
            artifacts: Vec::new(),
        });
    }
    let merged = MergedCampaign {
        target,
        strategy,
        merged_series: report.series.clone(),
        reports: vec![report],
    };
    Ok(RunOutcome {
        options: options.clone(),
        campaigns: vec![merged],
        wall_seconds: start.elapsed().as_secs_f64(),
        stopped_at: None,
        artifacts: Vec::new(),
    })
}

/// The `serve` mode: one supervised campaign (parse-time validated, like
/// `--checkpoint`) with rolling checkpoints into the rotation directory, an
/// optional control socket answering `status`/`stop`, and startup recovery
/// from the newest intact rotation slot (`--resume-latest`).
fn run_serve(
    options: &CliOptions,
    strategy: StrategyKind,
    sample_interval: u64,
    start: Instant,
) -> Result<RunOutcome, String> {
    let target = options.targets[0];
    let config = build_config(options, strategy, options.seed, sample_interval);
    let dir = options
        .checkpoint
        .as_ref()
        .expect("parse_args gives serve a rotation directory");
    let checkpoint =
        CheckpointConfig::new(dir.clone(), options.checkpoint_every).rotation(options.keep_checkpoints);

    // Startup recovery: the newest rotation slot that still decodes wins;
    // truncated or corrupt slots (a SIGKILL mid-write) are skipped, and an
    // empty or missing rotation starts the campaign fresh.
    let resumed = match &options.resume_latest {
        Some(rotation) => CampaignSnapshot::resume_latest(rotation)
            .map_err(|error| format!("--resume-latest {}: {error}", rotation.display()))?,
        None => None,
    };

    let hooks = ServiceHooks::new(options.executions);
    let mut control = match &options.control {
        Some(addr) => {
            let listener = TcpListener::bind(addr)
                .map_err(|error| format!("--control {addr}: {error}"))?;
            let server = ControlServer::start(listener, Arc::clone(&hooks))
                .map_err(|error| format!("--control {addr}: {error}"))?;
            eprintln!("control socket listening on {}", server.addr());
            Some(server)
        }
        None => None,
    };

    let (report, _) = build_campaign(options, target, config)
        .run_plan(RunPlan {
            resume: resumed.as_ref(),
            checkpoint: Some(&checkpoint),
            service: Some(&hooks),
            ..RunPlan::default()
        })
        .map_err(|error| format!("supervised campaign: {error}"))?;

    if let Some(control) = control.as_mut() {
        control.shutdown();
    }

    // A graceful drain stops at a window boundary short of the budget; the
    // final checkpoint covering it already sits in the rotation.
    let stopped_at = (report.executions < options.executions).then_some(report.executions);
    let merged = MergedCampaign {
        target,
        strategy,
        merged_series: report.series.clone(),
        reports: vec![report],
    };
    Ok(RunOutcome {
        options: options.clone(),
        campaigns: vec![merged],
        wall_seconds: start.elapsed().as_secs_f64(),
        stopped_at,
        artifacts: Vec::new(),
    })
}

/// The first reset-aligned boundary at or past `stop` — where a
/// `--stop-after` interruption can actually land.
fn first_boundary(boundaries: &[u64], stop: u64) -> Result<u64, String> {
    boundaries
        .iter()
        .copied()
        .find(|&end| end >= stop)
        .ok_or_else(|| format!("--stop-after {stop} lies past every window boundary"))
}

/// The `--shared-corpus` path: every (target, strategy) group runs its
/// repetitions sequentially, Peach\* seeds chained through one merged
/// puzzle corpus (the baseline falls back to isolated repetitions).
fn run_shared(
    options: &CliOptions,
    kinds: &[StrategyKind],
    sample_interval: u64,
    start: Instant,
) -> RunOutcome {
    let mut campaigns = Vec::new();
    for &target in &options.targets {
        for &strategy in kinds {
            let config = build_config(options, strategy, options.seed, sample_interval);
            let (merged_series, reports) =
                run_repetitions_shared(|| make_target(options, target), config, options.repetitions);
            campaigns.push(MergedCampaign {
                target,
                strategy,
                merged_series,
                reports,
            });
        }
    }
    RunOutcome {
        options: options.clone(),
        campaigns,
        wall_seconds: start.elapsed().as_secs_f64(),
        stopped_at: None,
        artifacts: Vec::new(),
    }
}

/// The mutated phases of a mask as a human-readable list.
fn mutated_phases(mask: PhaseMask) -> String {
    let phases: Vec<&str> = [
        (mask.handshake, "handshake"),
        (mask.payload, "payload"),
        (mask.teardown, "teardown"),
    ]
    .into_iter()
    .filter_map(|(on, name)| on.then_some(name))
    .collect();
    if phases.is_empty() {
        "nothing".to_string()
    } else {
        phases.join("+")
    }
}

const fn strategy_order(strategy: StrategyKind) -> u8 {
    match strategy {
        StrategyKind::Peach => 0,
        StrategyKind::PeachStar => 1,
    }
}

/// Renders the outcome as the human-readable comparison report.
#[must_use]
pub fn render_report(outcome: &RunOutcome) -> String {
    let options = &outcome.options;
    let mut out = String::new();
    out.push_str(&format!(
        "peachstar campaign run: {} executions x {} repetition(s), base seed {}{}{}{}{}\n",
        options.executions,
        options.repetitions,
        options.seed,
        if options.shards >= 2 {
            format!(", {} shard workers", options.shards)
        } else {
            String::new()
        },
        match options.transport {
            TransportMode::FramedTcp => ", framed-TCP transport".to_string(),
            TransportMode::InProcess => String::new(),
        },
        if let Some(batch) = options.batch {
            format!(", batched windows of {batch}")
        } else {
            String::new()
        },
        if options.sessions {
            format!(
                ", sessions (handshake + {} payload + teardown, mutating {})",
                options.session_payload,
                mutated_phases(options.mutate)
            )
        } else {
            String::new()
        }
    ));
    if options.shared_corpus {
        out.push_str("repetitions share one merged puzzle corpus (--shared-corpus)\n");
    }
    if let Some(millis) = options.exec_timeout_ms {
        out.push_str(&format!(
            "hang watchdog armed: executions exceeding {millis}ms are reported as hang faults\n"
        ));
    }
    if let Some(seed) = options.chaos {
        out.push_str(&format!(
            "chaos injection active (seed {seed}): targets wrapped in a deterministic failure injector\n"
        ));
    }
    if let Some(resume) = &options.resume {
        out.push_str(&format!("resumed from snapshot {}\n", resume.display()));
    }
    if let Some(stopped) = outcome.stopped_at {
        let path = options
            .checkpoint
            .as_ref()
            .map_or_else(String::new, |p| p.display().to_string());
        if options.serve {
            out.push_str(&format!(
                "service drained at execution {stopped}; rotation at {path} \
                 (continue with serve --resume-latest {path})\n"
            ));
        } else {
            out.push_str(&format!(
                "stopped at execution {stopped}; snapshot written to {path} \
                 (continue with --resume {path})\n"
            ));
        }
        out.push_str(&format!(
            "\ntotal wall time: {:.1}s\n",
            outcome.wall_seconds
        ));
        return out;
    }

    for &target in &options.targets {
        let peach = outcome.find(target, StrategyKind::Peach);
        let star = outcome.find(target, StrategyKind::PeachStar);
        out.push_str(&format!("\n== {} ==\n", target.project_name()));
        out.push_str(&format!(
            "{:<10} {:>9} {:>9} {:>12} {:>10} {:>9} {:>10}\n",
            "fuzzer", "paths", "edges", "unique-bugs", "validity", "corpus", "exec/s"
        ));
        for merged in [peach, star].into_iter().flatten() {
            let last = merged.merged_series.points().last();
            out.push_str(&format!(
                "{:<10} {:>9} {:>9} {:>12} {:>9.1}% {:>9.0} {:>10.0}\n",
                merged.strategy.label(),
                merged.final_paths(),
                last.map_or(0, |p| p.edges),
                merged.unique_bugs(options.seed).len(),
                merged.validity() * 100.0,
                merged.corpus_size(),
                merged.executions_per_second(),
            ));
        }

        if let (Some(peach), Some(star)) = (peach, star) {
            let base_paths = peach.final_paths();
            if base_paths > 0 {
                let gain = (star.final_paths() as f64 - base_paths as f64) / base_paths as f64
                    * 100.0;
                out.push_str(&format!("path gain Peach* vs Peach: {gain:+.2}%\n"));
            }
            match (
                peach.merged_series.executions_to_reach(base_paths),
                star.merged_series.executions_to_reach(base_paths),
            ) {
                (Some(baseline_execs), Some(star_execs)) => {
                    out.push_str(&format!(
                        "speed to baseline coverage: Peach* reached {} paths in {} execs (Peach: {}) — {:.1}x\n",
                        base_paths,
                        star_execs,
                        baseline_execs,
                        baseline_execs as f64 / star_execs.max(1) as f64,
                    ));
                }
                (_, None) => out.push_str(
                    "speed to baseline coverage: Peach* never reached the baseline's final path count\n",
                ),
                (None, _) => {}
            }
        }

        for merged in [peach, star].into_iter().flatten() {
            let bugs = merged.unique_bugs(options.seed);
            if bugs.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "unique bugs found by {} (union over repetitions):\n",
                merged.strategy.label()
            ));
            for bug in bugs {
                out.push_str(&format!(
                    "  {} (first at execution {}, seed {})\n",
                    bug.description, bug.first_execution, bug.seed
                ));
                out.push_str(&format!(
                    "    model {} | reproducer {}\n",
                    bug.model, bug.packet_hex
                ));
            }
        }

        if options.csv {
            out.push('\n');
            out.push_str(&render_csv(target, peach, star));
        }
    }

    if !outcome.artifacts.is_empty() {
        out.push_str(&format!(
            "\n{} reproducer artifact(s) written:\n",
            outcome.artifacts.len()
        ));
        for path in &outcome.artifacts {
            out.push_str(&format!("  {}\n", path.display()));
        }
    }

    let total_executions: u64 = outcome
        .campaigns
        .iter()
        .flat_map(|merged| merged.reports.iter())
        .map(|report| report.executions)
        .sum();
    out.push_str(&format!(
        "\ntotal wall time: {:.1}s ({:.0} exec/s across all campaigns)\n",
        outcome.wall_seconds,
        if outcome.wall_seconds > 0.0 {
            total_executions as f64 / outcome.wall_seconds
        } else {
            0.0
        }
    ));
    out
}

/// Renders the merged series of one target as CSV
/// (`executions,peach_paths,peachstar_paths` — columns drop out when a
/// strategy did not run).
#[must_use]
fn render_csv(
    target: TargetId,
    peach: Option<&MergedCampaign>,
    star: Option<&MergedCampaign>,
) -> String {
    let mut out = format!("# merged coverage series: {}\n", target.project_name());
    let header: Vec<&str> = ["executions"]
        .into_iter()
        .chain(peach.map(|_| "peach_paths"))
        .chain(star.map(|_| "peachstar_paths"))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    let rows = peach
        .or(star)
        .map_or(0, |merged| merged.merged_series.points().len());
    for index in 0..rows {
        let executions = peach
            .or(star)
            .and_then(|m| m.merged_series.points().get(index))
            .map_or(0, |p| p.executions);
        let mut row = vec![executions.to_string()];
        for merged in [peach, star].into_iter().flatten() {
            row.push(
                merged
                    .merged_series
                    .points()
                    .get(index)
                    .map_or_else(String::new, |p| p.paths.to_string()),
            );
        }
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the outcome as a machine-readable JSON document: the run options
/// plus one object per (target, strategy) pair with the merged metrics, the
/// union of unique bugs and the merged coverage series.
#[must_use]
pub fn render_json(outcome: &RunOutcome) -> String {
    let options = &outcome.options;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"executions\": {},\n  \"repetitions\": {},\n  \"seed\": {},\n  \"shards\": {},\n  \"sessions\": {},\n  \"wall_seconds\": {:.3},\n",
        options.executions, options.repetitions, options.seed, options.shards, options.sessions, outcome.wall_seconds
    ));
    if options.transport == TransportMode::FramedTcp {
        out.push_str(&format!(
            "  \"transport\": \"{}\",\n",
            options.transport.as_flag()
        ));
    }
    if options.sessions {
        out.push_str(&format!(
            "  \"session_payload\": {},\n  \"mutate_phases\": \"{}\",\n",
            options.session_payload,
            json_escape(&mutated_phases(options.mutate))
        ));
    }
    if let Some(batch) = options.batch {
        out.push_str(&format!("  \"batch\": {batch},\n"));
    }
    if let Some(millis) = options.exec_timeout_ms {
        out.push_str(&format!("  \"exec_timeout_ms\": {millis},\n"));
    }
    if let Some(seed) = options.chaos {
        out.push_str(&format!("  \"chaos_seed\": {seed},\n"));
    }
    if let Some(stopped) = outcome.stopped_at {
        out.push_str(&format!("  \"stopped_at\": {stopped},\n"));
    }
    if !outcome.artifacts.is_empty() {
        out.push_str("  \"artifacts\": [");
        for (index, path) in outcome.artifacts.iter().enumerate() {
            out.push_str(&format!(
                "{}\"{}\"",
                if index == 0 { "" } else { ", " },
                json_escape(&path.display().to_string())
            ));
        }
        out.push_str("],\n");
    }
    out.push_str("  \"campaigns\": [\n");
    for (index, merged) in outcome.campaigns.iter().enumerate() {
        let last = merged.merged_series.points().last();
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"target\": \"{}\",\n      \"strategy\": \"{}\",\n",
            json_escape(merged.target.project_name()),
            json_escape(merged.strategy.label())
        ));
        out.push_str(&format!(
            "      \"final_paths\": {},\n      \"final_edges\": {},\n      \"validity\": {:.4},\n      \"corpus_size\": {:.1},\n      \"executions_per_second\": {:.1},\n",
            merged.final_paths(),
            last.map_or(0, |p| p.edges),
            merged.validity(),
            merged.corpus_size(),
            merged.executions_per_second()
        ));
        out.push_str("      \"unique_bugs\": [");
        let bugs = merged.unique_bugs(options.seed);
        for (bug_index, bug) in bugs.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"description\": \"{}\", \"seed\": {}, \"first_execution\": {}, \"packet_hex\": \"{}\", \"model\": \"{}\"}}",
                if bug_index == 0 { "" } else { ", " },
                json_escape(&bug.description),
                bug.seed,
                bug.first_execution,
                json_escape(&bug.packet_hex),
                json_escape(&bug.model)
            ));
        }
        out.push_str("],\n");
        out.push_str("      \"series\": [");
        for (point_index, point) in merged.merged_series.points().iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"executions\": {}, \"paths\": {}, \"edges\": {}}}",
                if point_index == 0 { "" } else { ", " },
                point.executions,
                point.paths,
                point.edges
            ));
        }
        out.push_str("]\n");
        out.push_str(if index + 1 == outcome.campaigns.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The single-core honesty check for `--shards`: oversubscribed workers
/// time-slice the same cores, so the parallel campaign usually runs
/// *slower* than the sequential loop while producing the same report.
/// `--shards N` demands N worker threads in-process and roughly 2N over
/// `--transport tcp` (N client lanes plus N server-side connection
/// handlers). Returns the warning text when that demand exceeds `available`
/// hardware parallelism.
#[must_use]
pub fn shard_parallelism_warning(
    shards: usize,
    transport: TransportMode,
    available: usize,
) -> Option<String> {
    if transport == TransportMode::FramedTcp && shards >= 2 && shards * 2 > available {
        return Some(format!(
            "--shards {shards} over --transport tcp drives ~{} threads ({shards} \
             client lanes + {shards} server handlers), exceeding the available \
             parallelism ({available}): connections will time-slice the same \
             core(s), which usually runs slower than one connection. On a \
             single core prefer --batch N, which amortises per-packet wire \
             round-trips without threads.",
            shards * 2
        ));
    }
    (shards >= 2 && shards > available).then(|| {
        format!(
            "--shards {shards} exceeds the available parallelism ({available}): \
             workers will time-slice the same core(s), which usually runs slower \
             than the sequential loop. On a single core prefer --batch N, which \
             amortises per-packet dispatch without threads."
        )
    })
}

/// Entry point used by the binary: parse, run, print, exit code.
pub fn run_main(args: &[String]) -> ExitCode {
    match parse_args(args) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::ListTargets) => {
            for target in TargetId::ALL {
                println!(
                    "{:<12} {}",
                    format!("{target:?}").to_ascii_lowercase(),
                    target.project_name()
                );
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Run(options)) => {
            let available = std::thread::available_parallelism().map_or(1, usize::from);
            if let Some(warning) =
                shard_parallelism_warning(options.shards, options.transport, available)
            {
                eprintln!("warning: {warning}");
            }
            match run(&options) {
                Ok(outcome) => {
                    if options.json {
                        print!("{}", render_json(&outcome));
                    } else {
                        print!("{}", render_report(&outcome));
                    }
                    let any_faults = outcome
                        .campaigns
                        .iter()
                        .flat_map(|merged| merged.reports.iter())
                        .any(|report| !report.bugs.is_empty());
                    if options.fail_on_fault && any_faults {
                        // Exit 2 distinguishes "campaign found bugs" from
                        // operational failure (exit 1).
                        ExitCode::from(2)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Command::Replay(path)) => match replay_artifact(&path) {
            Ok(message) => {
                println!("{message}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("try --help for usage");
            ExitCode::FAILURE
        }
    }
}

/// Replays one reproducer bundle: reads the artifact, re-runs its recorded
/// campaign recipe, and checks that the recorded fault fires at the recorded
/// execution with the recorded packet.
///
/// # Errors
///
/// Returns a human-readable message when the bundle cannot be read or the
/// recorded fault does not reproduce.
pub fn replay_artifact(path: &Path) -> Result<String, String> {
    let artifact = CrashArtifact::read_from(path)
        .map_err(|error| format!("replay {}: {error}", path.display()))?;
    match artifact.replay() {
        Ok(_) => Ok(format!(
            "reproduced: {:?} at {} (execution {}, target {})",
            artifact.fault_kind,
            artifact.site,
            artifact.first_execution,
            artifact.target.project_name()
        )),
        Err(diverged) => {
            let (report, error) = *diverged;
            Err(format!(
                "replay {}: {error} ({} bug(s) observed over {} executions)",
                path.display(),
                report.bugs.len(),
                report.executions
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_defaults() {
        let Command::Run(options) = parse_args(&[]).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options, CliOptions::default());
    }

    #[test]
    fn parses_full_command_line() {
        let Command::Run(options) = parse_args(&args(&[
            "--target",
            "iec104",
            "--target",
            "dnp3",
            "--strategy",
            "peachstar",
            "--executions",
            "5_000",
            "--seed",
            "9",
            "--repetitions",
            "3",
            "--jobs",
            "4",
            "--sample-interval",
            "50",
            "--shards",
            "4",
            "--csv",
            "--json",
            "--no-baseline",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.targets, vec![TargetId::Iec104, TargetId::Dnp3]);
        assert_eq!(options.strategy, StrategyChoice::PeachStar);
        assert_eq!(options.executions, 5_000);
        assert_eq!(options.seed, 9);
        assert_eq!(options.repetitions, 3);
        assert_eq!(options.jobs, 4);
        assert_eq!(options.sample_interval, 50);
        assert_eq!(options.shards, 4);
        assert!(options.csv);
        assert!(options.json);
        assert!(options.no_baseline);
    }

    #[test]
    fn shards_default_to_one_and_reject_zero() {
        let Command::Run(options) = parse_args(&[]).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.shards, 1);
        assert!(!options.json);
        assert!(parse_args(&args(&["--shards", "0"])).is_err());
        assert!(parse_args(&args(&["--shards"])).is_err());
        assert!(parse_args(&args(&["--shards", "two"])).is_err());
    }

    #[test]
    fn parses_batch_flag_and_rejects_zero() {
        let Command::Run(options) = parse_args(&args(&["--batch", "250"])).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.batch, Some(250));
        let Command::Run(options) = parse_args(&[]).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.batch, None);
        assert!(parse_args(&args(&["--batch", "0"])).is_err());
        assert!(parse_args(&args(&["--batch"])).is_err());
        assert!(parse_args(&args(&["--batch", "many"])).is_err());
        // Composes with --sessions, and with one shard: the inline loop.
        let Command::Run(options) = parse_args(&args(&[
            "--target", "iec104", "--batch", "64", "--shards", "1", "--sessions",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.batch, Some(64));
        assert_eq!(options.shards, 1);
        assert!(options.sessions);
        // Workers run whole windows, so --batch is refused with --shards.
        let error = parse_args(&args(&["--batch", "64", "--shards", "2"]))
            .expect_err("--batch with --shards 2");
        assert!(
            error.contains("--batch is the inline slice size"),
            "{error}"
        );
    }

    #[test]
    fn batched_run_matches_sequential_run_for_the_baseline() {
        // --batch amortises dispatch; for the feedback-free baseline the
        // report must be bit-identical to the per-execution loop.
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 1_000,
            jobs: 1,
            ..CliOptions::default()
        };
        let sequential = run(&options).expect("run");
        let batched = run(&CliOptions {
            batch: Some(128),
            ..options
        })
        .expect("run");
        let a = sequential.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        let b = batched.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        assert_eq!(a.final_paths(), b.final_paths());
        assert_eq!(a.reports[0].responses, b.reports[0].responses);
        assert_eq!(a.unique_bugs(options.seed), b.unique_bugs(options.seed));
    }

    #[test]
    fn batch_surfaces_in_report_and_json() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 600,
            jobs: 1,
            batch: Some(200),
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("run");
        assert!(render_report(&outcome).contains("batched windows of 200"));
        let json = render_json(&outcome);
        assert!(json.contains("\"batch\": 200"));
        // Absent when off.
        let outcome = run(&CliOptions {
            batch: None,
            ..options
        })
        .expect("run");
        assert!(!render_json(&outcome).contains("\"batch\""));
    }

    #[test]
    fn shard_warning_fires_only_when_oversubscribed() {
        let in_process = TransportMode::InProcess;
        assert!(shard_parallelism_warning(4, in_process, 1).is_some());
        let text = shard_parallelism_warning(8, in_process, 2).unwrap();
        assert!(text.contains("--shards 8"));
        assert!(text.contains("(2)"));
        assert!(text.contains("--batch"), "points at the single-core alternative");
        assert!(shard_parallelism_warning(4, in_process, 4).is_none());
        assert!(shard_parallelism_warning(2, in_process, 8).is_none());
        assert!(shard_parallelism_warning(1, in_process, 1).is_none(), "sequential never warns");
    }

    #[test]
    fn connection_warning_accounts_for_server_handler_threads() {
        // N shards over TCP drive ~2N threads: N client lanes + N
        // server-side connection handlers. 4 connections on 8 cores is
        // exactly at the edge; on 4 cores it warns even though 4 in-process
        // shards would not.
        let tcp = TransportMode::FramedTcp;
        assert!(shard_parallelism_warning(4, tcp, 8).is_none());
        let text = shard_parallelism_warning(4, tcp, 4).unwrap();
        assert!(text.contains("--shards 4 over --transport tcp"));
        assert!(text.contains("~8 threads"));
        assert!(text.contains("--batch"), "points at the single-core alternative");
        assert!(shard_parallelism_warning(4, TransportMode::InProcess, 4).is_none());
        assert!(shard_parallelism_warning(2, tcp, 4).is_none());
        assert!(shard_parallelism_warning(1, tcp, 1).is_none(), "one connection never warns");
    }

    #[test]
    fn parses_transport_and_connection_flags() {
        let Command::Run(options) = parse_args(&args(&["--transport", "tcp"])).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.transport, TransportMode::FramedTcp);
        assert_eq!(topology(&options), Topology::Inline);
        // Every shard of a TCP campaign is one live connection.
        let Command::Run(options) =
            parse_args(&args(&["--transport", "tcp", "--shards", "4"])).unwrap()
        else {
            panic!("expected a run command");
        };
        assert_eq!(topology(&options), Topology::Workers(ShardConfig::with_workers(4)));
        // Defaults and aliases.
        let Command::Run(options) = parse_args(&[]).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.transport, TransportMode::InProcess);
        for alias in ["inprocess", "in-process", "direct"] {
            let Command::Run(options) = parse_args(&args(&["--transport", alias])).unwrap()
            else {
                panic!("expected a run command");
            };
            assert_eq!(options.transport, TransportMode::InProcess);
        }
        for alias in ["tcp", "framed-tcp"] {
            let Command::Run(options) = parse_args(&args(&["--transport", alias])).unwrap()
            else {
                panic!("expected a run command");
            };
            assert_eq!(options.transport, TransportMode::FramedTcp);
        }
        // Composes with the worker/session/chaos/artifact machinery.
        let Command::Run(options) = parse_args(&args(&[
            "--target", "iec104", "--transport", "tcp", "--shards", "2",
            "--sessions", "--chaos", "7", "--artifacts", "crashes",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.shards, 2);
        assert!(options.sessions);
    }

    #[test]
    fn transport_and_connection_flags_are_validated() {
        assert!(parse_args(&args(&["--transport", "udp"])).is_err());
        assert!(parse_args(&args(&["--transport"])).is_err());
        // `--shards` is the connection count; there is no second flag for it.
        assert!(parse_args(&args(&["--transport", "tcp", "--connections", "2"])).is_err());
        assert!(parse_args(&args(&[
            "--transport", "tcp", "--shards", "2",
            "--shared-corpus", "--repetitions", "2"
        ]))
        .is_err());
        // One shard over tcp is the plain sequential campaign.
        assert!(parse_args(&args(&["--transport", "tcp", "--shards", "1"])).is_ok());
    }

    #[test]
    fn tcp_run_matches_in_process_and_surfaces_in_output() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 800,
            jobs: 1,
            ..CliOptions::default()
        };
        let in_process = run(&options).expect("in-process run");
        let tcp = run(&CliOptions {
            transport: TransportMode::FramedTcp,
            shards: 2,
            ..options.clone()
        })
        .expect("tcp run");
        let a = in_process.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        let b = tcp.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        assert_eq!(a.final_paths(), b.final_paths());
        assert_eq!(a.reports[0].responses, b.reports[0].responses);
        assert_eq!(a.reports[0].series.points(), b.reports[0].series.points());
        assert_eq!(a.unique_bugs(options.seed), b.unique_bugs(options.seed));

        assert!(render_report(&tcp).contains("2 shard workers, framed-TCP transport"));
        let json = render_json(&tcp);
        assert!(json.contains("\"transport\": \"tcp\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(!json.contains("\"connections\""));
        // Absent when in-process, so existing consumers see no new fields.
        let json = render_json(&in_process);
        assert!(!json.contains("\"transport\""));
    }

    #[test]
    fn parses_session_flags() {
        let Command::Run(options) = parse_args(&args(&[
            "--target",
            "iec104",
            "--sessions",
            "--session-payload",
            "5",
            "--mutate-phase",
            "handshake",
            "--mutate-phase",
            "payload",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert!(options.sessions);
        assert_eq!(options.session_payload, 5);
        assert!(options.mutate.handshake);
        assert!(options.mutate.payload);
        assert!(!options.mutate.teardown);

        // Defaults: payload-only mutation, 8 payload packets.
        let Command::Run(options) =
            parse_args(&args(&["--target", "lib60870", "--sessions"])).unwrap()
        else {
            panic!("expected a run command");
        };
        assert_eq!(options.mutate, PhaseMask::default());
        assert_eq!(options.session_payload, 8);
    }

    #[test]
    fn session_flags_are_validated() {
        // Sessionless target (and the default modbus target) are rejected.
        assert!(parse_args(&args(&["--target", "modbus", "--sessions"])).is_err());
        assert!(parse_args(&args(&["--sessions"])).is_err());
        assert!(parse_args(&args(&["--target", "all", "--sessions"])).is_err());
        // Session-only flags without --sessions, bad phase names, bad counts.
        assert!(parse_args(&args(&["--mutate-phase", "payload"])).is_err());
        assert!(parse_args(&args(&["--session-payload", "4"])).is_err());
        assert!(parse_args(&args(&[
            "--target", "iec104", "--sessions", "--mutate-phase", "preamble"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--target", "iec104", "--sessions", "--session-payload", "0"
        ]))
        .is_err());
    }

    #[test]
    fn session_run_produces_a_report_and_json() {
        let options = CliOptions {
            targets: vec![TargetId::Iec104],
            strategy: StrategyChoice::Peach,
            executions: 600,
            jobs: 1,
            sessions: true,
            session_payload: 4,
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("run");
        let merged = outcome.find(TargetId::Iec104, StrategyKind::Peach).unwrap();
        assert!(merged.final_paths() > 0);
        let report = render_report(&outcome);
        assert!(report.contains("sessions (handshake + 4 payload + teardown, mutating payload)"));
        let json = render_json(&outcome);
        assert!(json.contains("\"sessions\": true"));
        assert!(json.contains("\"session_payload\": 4"));
        assert!(json.contains("\"mutate_phases\": \"payload\""));
    }

    #[test]
    fn target_all_expands_to_every_target() {
        let Command::Run(options) = parse_args(&args(&["--target", "all"])).unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.targets, TargetId::ALL.to_vec());
    }

    #[test]
    fn rejects_unknown_arguments_and_values() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--target", "http"])).is_err());
        assert!(parse_args(&args(&["--strategy", "afl"])).is_err());
        assert!(parse_args(&args(&["--executions", "zero"])).is_err());
        assert!(parse_args(&args(&["--executions", "0"])).is_err());
        assert!(parse_args(&args(&["--repetitions", "0"])).is_err());
        assert!(parse_args(&args(&["--executions"])).is_err());
    }

    #[test]
    fn help_and_list_targets_short_circuit() {
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["-h"])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&args(&["--list-targets"])).unwrap(),
            Command::ListTargets
        );
    }

    #[test]
    fn strategy_choice_controls_kinds() {
        assert_eq!(StrategyChoice::Peach.kinds(false), vec![StrategyKind::Peach]);
        assert_eq!(
            StrategyChoice::PeachStar.kinds(false),
            vec![StrategyKind::Peach, StrategyKind::PeachStar]
        );
        assert_eq!(
            StrategyChoice::PeachStar.kinds(true),
            vec![StrategyKind::PeachStar]
        );
        assert_eq!(
            StrategyChoice::Both.kinds(true),
            vec![StrategyKind::Peach, StrategyKind::PeachStar]
        );
    }

    #[test]
    fn small_parallel_run_produces_comparable_report() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            executions: 1_200,
            repetitions: 2,
            jobs: 4,
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("run");
        assert_eq!(outcome.campaigns.len(), 2, "Peach and Peach* both ran");
        let peach = outcome.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        let star = outcome
            .find(TargetId::Modbus, StrategyKind::PeachStar)
            .unwrap();
        assert_eq!(peach.reports.len(), 2);
        assert_eq!(star.reports.len(), 2);
        assert!(peach.final_paths() > 0);
        assert!(star.final_paths() > 0);

        let report = render_report(&outcome);
        assert!(report.contains("libmodbus"));
        assert!(report.contains("Peach*"));
        assert!(report.contains("path gain"));
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let options = CliOptions {
            targets: vec![TargetId::Iec104],
            executions: 800,
            repetitions: 2,
            jobs: 4,
            ..CliOptions::default()
        };
        let parallel = run(&options).expect("run");
        let sequential = run(&CliOptions { jobs: 1, ..options }).expect("run");
        for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
            let a = parallel.find(TargetId::Iec104, strategy).unwrap();
            let b = sequential.find(TargetId::Iec104, strategy).unwrap();
            assert_eq!(
                a.final_paths(),
                b.final_paths(),
                "{strategy}: thread scheduling must not affect results"
            );
        }
    }

    #[test]
    fn sharded_run_matches_sequential_run_for_the_baseline() {
        // --shards parallelises inside each campaign; for the feedback-free
        // baseline the report must be identical to the sequential loop.
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 1_000,
            jobs: 1,
            ..CliOptions::default()
        };
        let sequential = run(&options).expect("run");
        let sharded = run(&CliOptions {
            shards: 3,
            ..options
        })
        .expect("run");
        let a = sequential.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        let b = sharded.find(TargetId::Modbus, StrategyKind::Peach).unwrap();
        assert_eq!(a.final_paths(), b.final_paths());
        assert_eq!(a.reports[0].responses, b.reports[0].responses);
        assert_eq!(
            a.unique_bugs(options.seed),
            b.unique_bugs(options.seed)
        );
    }

    #[test]
    fn json_report_is_rendered_and_structured() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            executions: 600,
            jobs: 2,
            json: true,
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("run");
        let json = render_json(&outcome);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"target\": \"libmodbus\""));
        assert!(json.contains("\"strategy\": \"Peach*\""));
        assert!(json.contains("\"final_paths\":"));
        assert!(json.contains("\"series\": ["));
        assert!(json.contains("\"shards\": 1"));
        // Balanced braces/brackets — a cheap structural sanity check in
        // lieu of a JSON parser dependency.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }

    #[test]
    fn csv_rendering_includes_both_series() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            executions: 600,
            csv: true,
            jobs: 2,
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("run");
        let report = render_report(&outcome);
        assert!(report.contains("executions,peach_paths,peachstar_paths"));
        let csv_lines = report
            .lines()
            .filter(|line| line.chars().next().is_some_and(char::is_numeric))
            .count();
        assert!(csv_lines > 2, "series rows rendered");
    }

    fn scratch_snapshot_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "peachstar-cli-{name}-{}.snap",
            std::process::id()
        ))
    }

    #[test]
    fn parses_checkpoint_flags() {
        let Command::Run(options) = parse_args(&args(&[
            "--target",
            "modbus",
            "--strategy",
            "peach",
            "--checkpoint",
            "run.snap",
            "--checkpoint-every",
            "4",
            "--stop-after",
            "500",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.checkpoint, Some(PathBuf::from("run.snap")));
        assert_eq!(options.checkpoint_every, 4);
        assert_eq!(options.stop_after, Some(500));
        assert!(options.resume.is_none());

        // --resume alone, default cadence.
        let Command::Run(options) = parse_args(&args(&[
            "--target", "modbus", "--strategy", "peach", "--resume", "run.snap",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.resume, Some(PathBuf::from("run.snap")));
        assert_eq!(
            options.checkpoint_every,
            CliOptions::DEFAULT_CHECKPOINT_EVERY
        );
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        // Cadence and stop-after are meaningless without a checkpoint path.
        assert!(parse_args(&args(&["--checkpoint-every", "4"])).is_err());
        assert!(parse_args(&args(&["--stop-after", "500"])).is_err());
        assert!(parse_args(&args(&["--checkpoint", "x", "--checkpoint-every", "0"])).is_err());
        assert!(parse_args(&args(&["--checkpoint", "x", "--stop-after", "0"])).is_err());
        // A snapshot pins exactly one campaign.
        let single = ["--strategy", "peach", "--checkpoint", "x"];
        assert!(parse_args(&args(&single)).is_ok());
        assert!(parse_args(&args(&["--target", "all", "--strategy", "peach", "--checkpoint", "x"])).is_err());
        assert!(parse_args(&args(&["--strategy", "both", "--checkpoint", "x"])).is_err());
        assert!(parse_args(&args(&["--strategy", "peachstar", "--checkpoint", "x"])).is_err());
        assert!(parse_args(&args(&[
            "--strategy", "peachstar", "--no-baseline", "--checkpoint", "x"
        ]))
        .is_ok());
        assert!(parse_args(&args(&[
            "--strategy", "peach", "--repetitions", "2", "--checkpoint", "x"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--strategy", "peach", "--resume", "x", "--target", "all"])).is_err());
        // Stop-after cannot lie past the budget.
        assert!(parse_args(&args(&[
            "--strategy", "peach", "--executions", "100", "--checkpoint", "x",
            "--stop-after", "101"
        ]))
        .is_err());
        // Shared corpus constraints.
        assert!(parse_args(&args(&["--shared-corpus"])).is_err(), "one repetition");
        assert!(parse_args(&args(&[
            "--shared-corpus", "--repetitions", "2", "--strategy", "peach"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--shared-corpus", "--repetitions", "2", "--shards", "2"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--shared-corpus", "--repetitions", "2", "--checkpoint", "x"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--shared-corpus", "--repetitions", "2"])).is_ok());
    }

    #[test]
    fn checkpoint_stop_and_resume_matches_uninterrupted_run() {
        let path = scratch_snapshot_path("stop-resume");
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::PeachStar,
            no_baseline: true,
            executions: 2_000,
            jobs: 1,
            ..CliOptions::default()
        };
        let complete = run(&options).expect("complete run");

        // Interrupt at a boundary, then resume from the written snapshot.
        let stopped = run(&CliOptions {
            checkpoint: Some(path.clone()),
            stop_after: Some(900),
            ..options.clone()
        })
        .expect("stopped run");
        assert!(stopped.campaigns.is_empty());
        let boundary = stopped.stopped_at.expect("stopped at a boundary");
        assert!(boundary >= 900, "stop lands on the next boundary");
        assert!(render_report(&stopped).contains("stopped at execution"));
        assert!(render_json(&stopped).contains("\"stopped_at\":"));

        let resumed = run(&CliOptions {
            resume: Some(path.clone()),
            ..options.clone()
        })
        .expect("resumed run");
        std::fs::remove_file(&path).ok();

        let a = complete.campaigns.first().expect("complete campaign");
        let b = resumed.campaigns.first().expect("resumed campaign");
        let (a, b) = (&a.reports[0], &b.reports[0]);
        assert_eq!(a.series.final_paths(), b.series.final_paths());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.protocol_errors, b.protocol_errors);
        assert_eq!(a.fault_hits, b.fault_hits);
        assert_eq!(a.corpus_size, b.corpus_size);
        assert_eq!(a.valuable_seeds, b.valuable_seeds);
        assert_eq!(a.bugs, b.bugs);
        assert!(render_report(&resumed).contains("resumed from snapshot"));
    }

    #[test]
    fn checkpointed_run_writes_a_readable_snapshot_and_matches_plain_run() {
        let path = scratch_snapshot_path("periodic");
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 1_500,
            jobs: 1,
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            ..CliOptions::default()
        };
        let checkpointed = run(&options).expect("checkpointed run");
        let snapshot = CampaignSnapshot::read_from(&path).expect("final snapshot readable");
        std::fs::remove_file(&path).ok();
        assert_eq!(snapshot.completed, 1_500, "final checkpoint covers the budget");

        let plain = run(&CliOptions {
            checkpoint: None,
            ..options
        })
        .expect("plain run");
        let a = &checkpointed.campaigns[0].reports[0];
        let b = &plain.campaigns[0].reports[0];
        assert_eq!(a.series.final_paths(), b.series.final_paths());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.bugs, b.bugs);
    }

    #[test]
    fn resume_of_a_missing_or_mismatched_snapshot_fails_cleanly() {
        let missing = scratch_snapshot_path("missing");
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 1_000,
            jobs: 1,
            resume: Some(missing.clone()),
            ..CliOptions::default()
        };
        assert!(run(&options).is_err(), "missing snapshot is an error, not a panic");

        // A snapshot from a different campaign shape is rejected by name.
        let path = scratch_snapshot_path("mismatch");
        let stopped = run(&CliOptions {
            resume: None,
            checkpoint: Some(path.clone()),
            stop_after: Some(500),
            ..options.clone()
        })
        .expect("stopped run");
        assert!(stopped.stopped_at.is_some());
        let error = run(&CliOptions {
            executions: 3_000,
            resume: Some(path.clone()),
            ..options
        })
        .expect_err("budget mismatch rejected");
        std::fs::remove_file(&path).ok();
        assert!(error.contains("executions"), "error names the field: {error}");
    }

    #[test]
    fn shared_corpus_run_chains_repetitions() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::PeachStar,
            no_baseline: true,
            executions: 1_200,
            repetitions: 2,
            jobs: 1,
            shared_corpus: true,
            ..CliOptions::default()
        };
        let shared = run(&options).expect("shared run");
        let merged = shared
            .find(TargetId::Modbus, StrategyKind::PeachStar)
            .expect("peachstar group");
        assert_eq!(merged.reports.len(), 2);
        assert!(merged.final_paths() > 0);
        assert!(render_report(&shared).contains("--shared-corpus"));

        // Pooling discoveries can only help: the shared run's later seed
        // starts from the first seed's donors, so the union of corpus sizes
        // is at least the isolated run's.
        let isolated = run(&CliOptions {
            shared_corpus: false,
            ..options
        })
        .expect("isolated run");
        let isolated = isolated
            .find(TargetId::Modbus, StrategyKind::PeachStar)
            .expect("peachstar group");
        assert!(merged.corpus_size() >= isolated.corpus_size());
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let Command::Run(options) = parse_args(&args(&[
            "--exec-timeout-ms",
            "500",
            "--chaos",
            "7",
            "--chaos-hang-every",
            "97",
            "--artifacts",
            "crashes",
            "--fail-on-fault",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.exec_timeout_ms, Some(500));
        assert_eq!(options.chaos, Some(7));
        assert_eq!(options.chaos_hang_every, Some(97));
        assert_eq!(options.artifacts, Some(PathBuf::from("crashes")));
        assert!(options.fail_on_fault);

        assert!(parse_args(&args(&["--exec-timeout-ms", "0"])).is_err());
        assert!(parse_args(&args(&["--chaos-hang-every", "0"])).is_err());
        // Blocking hangs need the watchdog armed and a chaos seed.
        assert!(parse_args(&args(&["--chaos-hang-every", "97"])).is_err());
        assert!(
            parse_args(&args(&["--chaos", "7", "--chaos-hang-every", "97"])).is_err(),
            "--chaos-hang-every without --exec-timeout-ms would block a worker forever"
        );
        // Artifacts record one campaign recipe per bug; --shared-corpus
        // repetitions start from un-recordable corpus state.
        assert!(parse_args(&args(&["--artifacts", "x", "--shared-corpus"])).is_err());
    }

    #[test]
    fn parses_replay_command() {
        let command = parse_args(&args(&["replay", "crashes/bug.peachart"])).unwrap();
        assert_eq!(
            command,
            Command::Replay(PathBuf::from("crashes/bug.peachart"))
        );
        assert!(parse_args(&args(&["replay"])).is_err());
        assert!(parse_args(&args(&["replay", "a", "b"])).is_err());
    }

    #[test]
    fn chaos_campaign_completes_budget_and_dedups_injected_sites() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 800,
            jobs: 1,
            chaos: Some(11),
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("chaos run");
        let merged = outcome
            .find(TargetId::Modbus, StrategyKind::Peach)
            .expect("peach group");
        let report = &merged.reports[0];
        assert_eq!(report.executions, 800, "injected failures must not eat budget");
        assert!(report.fault_hits > 0, "chaos seed 11 injects panics");
        let bugs = merged.unique_bugs(options.seed);
        assert!(!bugs.is_empty());
        let sites: BTreeSet<&str> = bugs.iter().map(|bug| bug.description.as_str()).collect();
        assert_eq!(sites.len(), bugs.len(), "bug list is deduplicated by site");
        for bug in &bugs {
            assert!(!bug.packet_hex.is_empty(), "reproducer hex recorded");
            assert!(!bug.model.is_empty(), "data model recorded");
        }
        // Chaos wrapping is deterministic: a second run is identical.
        let again = run(&options).expect("chaos run");
        let again = again
            .find(TargetId::Modbus, StrategyKind::Peach)
            .expect("peach group");
        assert_eq!(again.unique_bugs(options.seed), bugs);
    }

    #[test]
    fn report_and_json_carry_reproducer_and_fault_tolerance_fields() {
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 600,
            jobs: 1,
            chaos: Some(11),
            exec_timeout_ms: Some(5_000),
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("chaos run");
        let report = render_report(&outcome);
        assert!(report.contains("chaos injection active (seed 11)"));
        assert!(report.contains("hang watchdog armed"));
        assert!(report.contains("reproducer "), "bug lines carry packet hex");
        assert!(report.contains("model "), "bug lines carry the data model");
        let json = render_json(&outcome);
        assert!(json.contains("\"chaos_seed\": 11"));
        assert!(json.contains("\"exec_timeout_ms\": 5000"));
        assert!(json.contains("\"packet_hex\": \""));
        assert!(json.contains("\"model\": \""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON objects"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "balanced JSON arrays"
        );
    }

    #[test]
    fn artifacts_written_and_replay_reproduces() {
        let dir = std::env::temp_dir().join(format!(
            "peachstar-cli-artifacts-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            executions: 800,
            jobs: 1,
            chaos: Some(11),
            artifacts: Some(dir.clone()),
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("chaos run with artifacts");
        let merged = outcome
            .find(TargetId::Modbus, StrategyKind::Peach)
            .expect("peach group");
        let bugs = merged.unique_bugs(options.seed);
        assert_eq!(
            outcome.artifacts.len(),
            bugs.len(),
            "one bundle per unique bug"
        );
        for path in &outcome.artifacts {
            assert!(path.starts_with(&dir));
            assert!(
                replay_artifact(path).is_ok(),
                "replay reproduces {}",
                path.display()
            );
        }
        assert!(render_report(&outcome).contains("reproducer artifact(s) written"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_chaos_artifacts_replay_through_the_barrier_schedule() {
        let dir = std::env::temp_dir().join(format!(
            "peachstar-cli-shard-artifacts-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::PeachStar,
            no_baseline: true,
            executions: 600,
            jobs: 1,
            shards: 2,
            chaos: Some(11),
            artifacts: Some(dir.clone()),
            ..CliOptions::default()
        };
        let outcome = run(&options).expect("sharded chaos run");
        assert!(!outcome.artifacts.is_empty(), "chaos seed 11 injects bugs");
        for path in &outcome.artifacts {
            assert!(
                replay_artifact(path).is_ok(),
                "sharded replay reproduces {}",
                path.display()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_serve_flags() {
        let Command::Run(options) = parse_args(&args(&[
            "serve",
            "--target",
            "modbus",
            "--strategy",
            "peach",
            "--checkpoint",
            "rot",
            "--keep-checkpoints",
            "2",
            "--control",
            "127.0.0.1:0",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert!(options.serve);
        assert_eq!(options.checkpoint, Some(PathBuf::from("rot")));
        assert_eq!(options.keep_checkpoints, 2);
        assert_eq!(options.control, Some("127.0.0.1:0".to_string()));

        // --resume-latest doubles as the rotation directory.
        let Command::Run(options) = parse_args(&args(&[
            "serve", "--strategy", "peach", "--resume-latest", "rot",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.resume_latest, Some(PathBuf::from("rot")));
        assert_eq!(options.checkpoint, Some(PathBuf::from("rot")));
        assert_eq!(options.keep_checkpoints, CliOptions::DEFAULT_KEEP_CHECKPOINTS);
    }

    #[test]
    fn serve_flags_are_validated() {
        // Serve needs a rotation directory from somewhere.
        assert!(parse_args(&args(&["serve", "--strategy", "peach"])).is_err());
        // The serve knobs are meaningless outside serve mode.
        assert!(parse_args(&args(&["--control", "127.0.0.1:0"])).is_err());
        assert!(parse_args(&args(&["--keep-checkpoints", "2"])).is_err());
        assert!(parse_args(&args(&["--resume-latest", "rot"])).is_err());
        assert!(parse_args(&args(&[
            "serve", "--strategy", "peach", "--checkpoint", "rot", "--keep-checkpoints", "0"
        ]))
        .is_err());
        // Serve drains via the control socket and recovers its own rotation.
        assert!(parse_args(&args(&[
            "serve", "--strategy", "peach", "--checkpoint", "rot", "--stop-after", "500"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve", "--strategy", "peach", "--checkpoint", "rot", "--resume", "x"
        ]))
        .is_err());
        // The one-campaign rules of --checkpoint apply to serve too.
        assert!(parse_args(&args(&["serve", "--checkpoint", "rot"])).is_err(), "both fuzzers");
        assert!(parse_args(&args(&[
            "serve", "--strategy", "peach", "--checkpoint", "rot", "--repetitions", "2"
        ]))
        .is_err());
    }

    #[test]
    fn wire_chaos_flags_are_validated() {
        // The wire knobs need the wire.
        assert!(parse_args(&args(&["--reconnect-retries", "2"])).is_err());
        assert!(parse_args(&args(&["--wire-drop-every", "50"])).is_err());
        assert!(parse_args(&args(&["--wire-reject-accepts", "3"])).is_err());
        assert!(parse_args(&args(&["--wire-drop-limit", "1"])).is_err());
        assert!(parse_args(&args(&["--transport", "tcp", "--wire-drop-every", "0"])).is_err());
        assert!(
            parse_args(&args(&["--transport", "tcp", "--wire-reject-accepts", "3"])).is_err(),
            "reject-accepts modifies a drop schedule"
        );
        let Command::Run(options) = parse_args(&args(&[
            "--transport",
            "tcp",
            "--reconnect-retries",
            "2",
            "--wire-drop-every",
            "50",
            "--wire-reject-accepts",
            "3",
            "--wire-drop-limit",
            "1",
        ]))
        .unwrap() else {
            panic!("expected a run command");
        };
        assert_eq!(options.reconnect_retries, Some(2));
        assert_eq!(options.wire_drop_every, Some(50));
        assert_eq!(options.wire_reject_accepts, Some(3));
        assert_eq!(options.wire_drop_limit, Some(1));
    }

    #[test]
    fn serve_completes_and_resume_latest_recovers_the_rotation() {
        let dir = std::env::temp_dir().join(format!(
            "peachstar-cli-serve-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let options = CliOptions {
            targets: vec![TargetId::Modbus],
            strategy: StrategyChoice::Peach,
            // Four reset windows (default interval 2000): enough boundaries
            // for the 2-deep rotation to actually prune.
            executions: 8_000,
            jobs: 1,
            serve: true,
            checkpoint: Some(dir.clone()),
            checkpoint_every: 1,
            keep_checkpoints: 2,
            ..CliOptions::default()
        };
        let plain = run(&CliOptions {
            serve: false,
            checkpoint: None,
            ..options.clone()
        })
        .expect("plain run");

        // An unstopped service runs to completion with the plain report and
        // leaves exactly the rotation depth behind.
        let served = run(&options).expect("serve run");
        assert!(served.stopped_at.is_none());
        let a = &plain.campaigns[0].reports[0];
        let b = &served.campaigns[0].reports[0];
        assert_eq!(a.series.final_paths(), b.series.final_paths());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.bugs, b.bugs);
        let slots: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("rotation dir")
            .flatten()
            .map(|entry| entry.path())
            .collect();
        assert_eq!(slots.len(), 2, "rotation pruned to --keep-checkpoints");

        // Corrupt the newest slot (a simulated kill mid-write): resume-latest
        // skips it, restores the older one, and still converges.
        let newest = slots.iter().max().expect("slots").clone();
        std::fs::write(&newest, b"torn").expect("corrupt slot");
        let recovered = run(&CliOptions {
            resume_latest: Some(dir.clone()),
            ..options
        })
        .expect("recovered serve run");
        let c = &recovered.campaigns[0].reports[0];
        assert_eq!(a.series.final_paths(), c.series.final_paths());
        assert_eq!(a.responses, c.responses);
        assert_eq!(a.bugs, c.bugs);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! `peachbench`: the campaign benchmark of the peachstar fuzzer.
//!
//! ```text
//! peachbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! peachbench sweep --seeds 1-10 [--seconds S] [--trace 0|1] --out SET.jsonl
//! peachbench compare A.jsonl B.jsonl
//! ```
//!
//! A run repeats one workload for about `--seconds` seconds and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. It exits non-zero when a check fails. `README.md` next to this
//! crate documents the workloads, metrics and checks.

mod compare;
mod metrics;
mod trace;
mod workload;

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use peachstar::{CampaignSnapshot, CheckpointConfig};

use metrics::{
    layer_values, median, median_values, result_line, PassFacts, Values, END_TO_END, PER_LAYER,
};
use trace::{count_allocations, thread_allocs, total_allocs, Layers};
use workload::{check_rotation, run_pass, run_setup, Pass, Size, Workload, SHARD_WORKERS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Zero-execution set-ups before each timed pass. `setup_s` is the fastest
/// of the run: a set-up takes microseconds, so a busy spell of the shared
/// host slows every set-up of a group at once, and spreading the groups
/// over the run lets some of them miss every spell.
const SETUPS_PER_PASS: usize = 25;
/// Repetitions of each direct snapshot timing; the median is reported.
const SNAPSHOT_SAMPLES: usize = 21;
/// Timed passes per untraced run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        Some("sweep") => compare::sweep_main(&args[1..]),
        _ => run_main(&args),
    };
    ExitCode::from(code)
}

/// Options of one benchmark run.
#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Steady,
        seed: 7,
        seconds: 25.0,
        trace: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn run_main(args: &[String]) -> u8 {
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("peachbench: {error}");
            eprintln!("usage: peachbench --workload <steady|fresh|checkpoint|wire|sharded> [--seed N] [--seconds S] [--trace 0|1]");
            return 2;
        }
    };
    if options.workload == Workload::Wire {
        if let Err(error) = workload::stay_on_this_cpu() {
            eprintln!("peachbench: cannot keep wire on one CPU: {error}");
            return 2;
        }
    }
    let work = match WorkDir::create(&options) {
        Ok(work) => work,
        Err(error) => {
            eprintln!("peachbench: cannot create the work directory: {error}");
            return 2;
        }
    };
    let mut tally = Tally::default();
    let (specs, values): (&[metrics::Spec], Values) = if options.trace {
        (
            &PER_LAYER,
            measure_layers(&options, Size::FULL, &work.0, &mut tally),
        )
    } else {
        (
            &END_TO_END,
            measure(&options, Size::FULL, &work.0, &mut tally),
        )
    };
    drop(work);
    for (name, unit, _) in specs {
        if let Some((_, value)) = values.iter().find(|(have, _)| have == name) {
            eprintln!(
                "{:<12} {name:<30} {value:>16.6} {unit}",
                options.workload.name()
            );
        }
    }
    for error in &tally.errors {
        eprintln!("peachbench: check failed: {error}");
    }
    let correct = tally.errors.is_empty();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, specs, &values)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Attempted and failed campaigns, and every failed check.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Runs `campaigns` campaigns' worth of work, turning an error or a
    /// panic into a failure.
    fn run<T>(
        &mut self,
        campaigns: u64,
        what: &str,
        work: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += campaigns;
        let outcome = panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            Err(format!("panicked: {message}"))
        });
        outcome
            .map_err(|error| self.fail(campaigns, format!("{what}: {error}")))
            .ok()
    }

    /// Records a failed check of `campaigns` campaigns.
    fn fail(&mut self, campaigns: u64, error: String) {
        self.failed += campaigns;
        self.errors.push(error);
    }

    /// Checks a pass's deterministic outputs against an earlier pass's.
    fn same_outputs(&mut self, expected: &Pass, pass: &Pass, what: &str) {
        if expected.fingerprints.len() != pass.fingerprints.len() {
            self.fail(
                pass.campaigns,
                format!("{what}: a different number of campaigns"),
            );
        } else if let Some((a, b)) = expected
            .fingerprints
            .iter()
            .zip(&pass.fingerprints)
            .find(|(a, b)| a != b)
        {
            self.fail(
                pass.campaigns,
                format!("{what}: deterministic outputs differ: {a:?} != {b:?}"),
            );
        }
    }
}

/// The run's scratch directory inside the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(options: &Options) -> std::io::Result<Self> {
        let path = Path::new(".peachbench").join(format!(
            "{}-{}-{}",
            options.workload.name(),
            options.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".peachbench");
    }
}

/// Whether another pass still fits into `seconds`, given the passes so far.
fn another_fits(started: Instant, passes: usize, min: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    passes < min || elapsed + elapsed / passes as f64 <= seconds
}

/// The untraced run: timed passes, each after a group of set-up samples,
/// then the cross-checks.
fn measure(options: &Options, size: Size, work: &Path, tally: &mut Tally) -> Values {
    let (workload, seed) = (options.workload, options.seed);
    let campaigns = workload::campaigns(workload, size);
    let setup_dir = work.join("setup");
    let pass_dir = work.join("pass");
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while another_fits(started, passes.len(), MIN_PASSES, options.seconds) {
        for _ in 0..SETUPS_PER_PASS {
            if let Some(wall) = tally.run(campaigns, "set-up", || {
                run_setup(workload, seed, size, &setup_dir)
            }) {
                setups.push(wall.as_secs_f64());
            }
        }
        let Some(pass) = tally.run(campaigns, "pass", || {
            run_pass(workload, seed, size, &pass_dir, None)
        }) else {
            break;
        };
        if let Some(first) = passes.first() {
            tally.same_outputs(first, &pass, "repeated pass");
        }
        passes.push(pass);
    }
    let Some(first) = passes.first() else {
        return Values::new();
    };

    if workload == Workload::Checkpoint {
        if let Err(error) = check_rotation(&pass_dir, size.steady_executions) {
            tally.fail(campaigns, error);
        }
    }
    // Checkpointing and the wire are operational: neither may change what
    // the campaign finds.
    if matches!(workload, Workload::Checkpoint | Workload::Wire) {
        let steady_dir = work.join("steady");
        if let Some(steady) = tally.run(campaigns, "steady pass", || {
            run_pass(Workload::Steady, seed, size, &steady_dir, None)
        }) {
            tally.same_outputs(&steady, first, "against steady");
        }
    }

    let rates: Vec<f64> = passes
        .iter()
        .map(|pass| pass.executions as f64 / pass.wall.as_secs_f64())
        .collect();
    eprintln!(
        "{}: {} set-ups, {} passes at {:.0?} exec/s",
        workload.name(),
        setups.len(),
        passes.len(),
        rates
    );
    vec![
        ("execs_per_s", median(&rates)),
        ("final_paths", first.paths() as f64),
        ("unique_bugs", first.bugs() as f64),
        ("setup_s", setups.iter().copied().fold(f64::NAN, f64::min)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// The traced run: untraced and traced passes alternate (so drift hits
/// both alike), then the final checkpoint is timed directly.
fn measure_layers(options: &Options, size: Size, work: &Path, tally: &mut Tally) -> Values {
    let (workload, seed) = (options.workload, options.seed);
    let campaigns = workload::campaigns(workload, size);
    let pass_dir = work.join("pass");
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut samples: Vec<Values> = Vec::new();
    let started = Instant::now();
    while another_fits(started, samples.len(), 1, options.seconds) {
        let Some(plain) = tally.run(campaigns, "pass", || {
            run_pass(workload, seed, size, &pass_dir, None)
        }) else {
            break;
        };
        let layers = Layers::new();
        let Some((traced, facts)) = tally.run(campaigns, "traced pass", || {
            traced_pass(workload, seed, size, &pass_dir, &layers)
        }) else {
            break;
        };
        tally.same_outputs(&plain, &traced, "traced pass");
        plain_walls.push(plain.wall.as_secs_f64());
        traced_walls.push(traced.wall.as_secs_f64());
        samples.push(layer_values(&layers, &traced, facts));
    }
    if samples.is_empty() {
        return Values::new();
    }
    let mut values = median_values(&samples);
    values.push((
        "trace.overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
    ));
    let scratch = work.join("store");
    if let Some(direct) = tally.run(0, "snapshot timing", || {
        snapshot_values(&pass_dir, &scratch)
    }) {
        values.extend(direct);
    }
    values
}

/// One traced pass, with allocation counting on for its duration.
fn traced_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    dir: &Path,
    layers: &Arc<Layers>,
) -> Result<(Pass, PassFacts), String> {
    let (main_before, _) = thread_allocs();
    let total_before = total_allocs();
    count_allocations(true);
    let pass = run_pass(workload, seed, size, dir, Some(layers));
    count_allocations(false);
    let facts = PassFacts {
        workers: if workload == Workload::Sharded {
            SHARD_WORKERS as u64
        } else {
            1
        },
        remote_server: workload == Workload::Wire,
        total_allocs: total_allocs() - total_before,
        main_allocs: thread_allocs().0 - main_before,
    };
    pass.map(|pass| (pass, facts))
}

/// Direct timings of the public snapshot API on the newest checkpoint a
/// traced pass left in `dir`: recovery, encode, decode and a rotation
/// store into `scratch`.
fn snapshot_values(dir: &Path, scratch: &Path) -> Result<Values, String> {
    fn median_ms(mut timed: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
        let mut samples = Vec::with_capacity(SNAPSHOT_SAMPLES);
        for _ in 0..SNAPSHOT_SAMPLES {
            let started = Instant::now();
            timed()?;
            samples.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&samples))
    }
    let recover = || match CampaignSnapshot::resume_latest(dir) {
        Ok(Some(snapshot)) => Ok(snapshot),
        Ok(None) => Err("no checkpoint to recover".to_string()),
        Err(error) => Err(error.to_string()),
    };
    let snapshot = recover()?;
    let recover_ms = median_ms(|| recover().map(drop))?;
    let bytes = snapshot.encode();
    let encode_ms = median_ms(|| {
        std::hint::black_box(snapshot.encode());
        Ok(())
    })?;
    let decode_ms = median_ms(|| {
        CampaignSnapshot::decode(&bytes)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    if CampaignSnapshot::decode(&bytes)
        .ok()
        .map(|decoded| decoded.encode())
        != Some(bytes.clone())
    {
        return Err("a decoded snapshot does not re-encode to the same bytes".to_string());
    }
    let store = CheckpointConfig::new(scratch, 1).rotation(4);
    store.prepare().map_err(|e| e.to_string())?;
    let store_ms = median_ms(|| store.store(&snapshot).map_err(|e| e.to_string()))?;
    count_allocations(true);
    let (before, _) = thread_allocs();
    let stored = store.store(&snapshot);
    let (after, _) = thread_allocs();
    count_allocations(false);
    stored.map_err(|e| e.to_string())?;
    Ok(vec![
        ("snapshot.bytes", bytes.len() as f64),
        ("snapshot.encode_ms", encode_ms),
        ("snapshot.store_ms", store_ms),
        ("snapshot.decode_ms", decode_ms),
        ("snapshot.recover_ms", recover_ms),
        ("snapshot.allocs_per_store", (after - before) as f64),
    ])
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::Json;
    use metrics::{quartiles, Spec};

    /// Every workload, shrunk: 10 windows of `steady`, one short campaign
    /// per target in `fresh`.
    const TINY: Size = Size {
        steady_executions: 20_000,
        fresh_seeds: 1,
        fresh_divisor: 20,
    };

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("peachbench-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating a test scratch directory");
        dir
    }

    fn run_tiny(workload: Workload, trace: bool) -> (Tally, Values) {
        let options = Options {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
        };
        let dir = scratch_dir(&format!("{}-{trace}", workload.name()));
        let mut tally = Tally::default();
        let values = if trace {
            measure_layers(&options, TINY, &dir, &mut tally)
        } else {
            measure(&options, TINY, &dir, &mut tally)
        };
        std::fs::remove_dir_all(&dir).ok();
        (tally, values)
    }

    fn assert_reports_every_metric(workload: Workload, trace: bool, specs: &[Spec]) {
        let (tally, values) = run_tiny(workload, trace);
        assert!(
            tally.errors.is_empty(),
            "{}: {:?}",
            workload.name(),
            tally.errors
        );
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted > 0);
        for (name, _, _) in specs {
            let value = values
                .iter()
                .find(|(have, _)| have == name)
                .map(|&(_, value)| value);
            assert!(
                value.is_some_and(f64::is_finite),
                "{} (trace {trace}) reports no finite {name}",
                workload.name()
            );
        }
        let line = result_line(true, tally.attempted, tally.failed, specs, &values);
        let parsed = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(
            parsed.get("metrics").map(|m| m.fields().len()),
            Some(specs.len())
        );
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
        for workload in Workload::ALL {
            assert_reports_every_metric(workload, false, &END_TO_END);
        }
    }

    #[test]
    fn every_workload_traces_every_layer() {
        for workload in Workload::ALL {
            assert_reports_every_metric(workload, true, &PER_LAYER);
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (group, specs, limit) in [
            ("end_to_end", &END_TO_END[..], 16),
            ("per_layer", &PER_LAYER[..], 128),
        ] {
            let declared = json.get(group).expect("metric group").items();
            assert!(specs.len() <= limit);
            assert_eq!(declared.len(), specs.len(), "{group}");
            for (metric, (name, unit, better)) in declared.iter().zip(specs) {
                assert_eq!(metric.get("name").and_then(Json::as_str), Some(*name));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
                assert_eq!(
                    metric.get("better").and_then(Json::as_str),
                    Some(better.as_str())
                );
                let valid = |text: &str, max: usize, extra: &str| {
                    !text.is_empty()
                        && text.len() <= max
                        && text
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
                };
                assert!(
                    valid(name, 64, "_.-")
                        && name
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_alphanumeric())
                );
                assert!(valid(unit, 16, "_/%.-"), "{unit}");
            }
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|workload| workload.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL
            .iter()
            .map(|workload| workload.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn quartiles_follow_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn options_take_the_documented_flags() {
        let args: Vec<String> = [
            "--workload",
            "wire",
            "--seed",
            "11",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let options = parse_options(&args).expect("valid flags");
        assert_eq!(options.workload, Workload::Wire);
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (11, 3.0, true)
        );
        assert!(parse_options(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_options(&[]).is_err());
    }
}

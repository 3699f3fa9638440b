//! Benchmark harness for the `peachstar` reproduction of the DAC 2020
//! Peach\* paper.
//!
//! The binaries in `src/bin/` regenerate every figure and table of the
//! paper's evaluation section against the simulated ICS targets:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig4` | Figure 4 (a)–(f): average paths covered over time, Peach vs Peach\*, plus the final-path-gain table (8.35 %–36.84 % claim) |
//! | `table1` | Table I: previously-unknown vulnerabilities found per project |
//! | `speedup` | the 1.2×–25× speed-to-same-coverage claim |
//! | `fig2_rule_overlap` | the Figure 2 insight: construction-rule sharing across packet types |
//!
//! The Criterion benches in `benches/` measure the micro-costs of the
//! design: packet cracking, semantic-aware vs random generation, coverage
//! map merging and raw target throughput.
//!
//! This crate's library part holds the shared experiment harness so that the
//! binaries stay thin and the integration tests can drive the same code.

use peachstar::campaign::{run_repetitions, CampaignConfig, CampaignReport};
use peachstar::stats::CoverageSeries;
use peachstar::strategy::StrategyKind;
use peachstar_protocols::TargetId;

/// Scale factor mapping executions to simulated hours for presentation:
/// the paper's 24-hour budget corresponds to the full execution budget.
pub const SIMULATED_HOURS: f64 = 24.0;

/// The execution budget of one campaign per target, used by `fig4`,
/// `table1`, `speedup` and peachbench's `fresh` workload.
///
/// The budgets order the targets by the size of their stand-in, as the
/// paper orders its projects, and are long enough for Peach\*'s corpus to
/// pay off and for `table1` to rediscover the planted faults. They do not
/// reproduce the paper's path counts: at 40,000 executions `fig4` measures
/// 32 paths on libiec61850, where the paper reports thousands.
#[must_use]
pub fn default_budget(target: TargetId) -> u64 {
    match target {
        TargetId::Iec104 => 20_000,
        TargetId::Lib60870 => 25_000,
        TargetId::Modbus => 30_000,
        TargetId::Iccp => 30_000,
        TargetId::Dnp3 => 35_000,
        TargetId::Iec61850 => 40_000,
    }
}

/// Result of running both fuzzers on one target with repetitions.
#[derive(Debug, Clone)]
pub struct TargetComparison {
    /// Which target was fuzzed.
    pub target: TargetId,
    /// Averaged coverage series of the baseline.
    pub peach_series: CoverageSeries,
    /// Averaged coverage series of Peach\*.
    pub peachstar_series: CoverageSeries,
    /// Per-repetition reports of the baseline.
    pub peach_reports: Vec<CampaignReport>,
    /// Per-repetition reports of Peach\*.
    pub peachstar_reports: Vec<CampaignReport>,
}

impl TargetComparison {
    /// Final (averaged) paths of the baseline.
    #[must_use]
    pub fn peach_final_paths(&self) -> usize {
        self.peach_series.final_paths()
    }

    /// Final (averaged) paths of Peach\*.
    #[must_use]
    pub fn peachstar_final_paths(&self) -> usize {
        self.peachstar_series.final_paths()
    }

    /// Relative path gain of Peach\* over the baseline, in percent.
    #[must_use]
    pub fn path_gain_percent(&self) -> f64 {
        let base = self.peach_final_paths();
        if base == 0 {
            return 0.0;
        }
        (self.peachstar_final_paths() as f64 - base as f64) / base as f64 * 100.0
    }

    /// Executions Peach\* needed to reach the baseline's final path count,
    /// if it ever did.
    #[must_use]
    pub fn peachstar_executions_to_baseline(&self) -> Option<u64> {
        self.peachstar_series
            .executions_to_reach(self.peach_final_paths())
    }

    /// Speed-up factor of Peach\* reaching the baseline's final coverage.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        let baseline = self
            .peach_series
            .executions_to_reach(self.peach_final_paths())?;
        let ours = self.peachstar_executions_to_baseline()?;
        Some(baseline as f64 / ours.max(1) as f64)
    }

    /// Renders the two averaged series as one CSV table
    /// (`executions,hours,peach_paths,peachstar_paths`).
    #[must_use]
    pub fn to_csv(&self, budget: u64) -> String {
        let mut out = String::from("executions,hours,peach_paths,peachstar_paths\n");
        let n = self
            .peach_series
            .points()
            .len()
            .min(self.peachstar_series.points().len());
        for index in 0..n {
            let peach = self.peach_series.points()[index];
            let star = self.peachstar_series.points()[index];
            let hours = peach.executions as f64 / budget as f64 * SIMULATED_HOURS;
            out.push_str(&format!(
                "{},{:.2},{},{}\n",
                peach.executions, hours, peach.paths, star.paths
            ));
        }
        out
    }
}

/// Runs both fuzzers against `target` with `repetitions` repetitions each.
#[must_use]
pub fn compare_target(target: TargetId, executions: u64, repetitions: u64) -> TargetComparison {
    let base_config = CampaignConfig::new(StrategyKind::Peach)
        .executions(executions)
        .sample_interval((executions / 100).max(1))
        .rng_seed(1000);
    let (peach_series, peach_reports) =
        run_repetitions(|| target.create(), base_config, repetitions);
    let star_config = CampaignConfig {
        strategy: StrategyKind::PeachStar,
        ..base_config
    };
    let (peachstar_series, peachstar_reports) =
        run_repetitions(|| target.create(), star_config, repetitions);
    TargetComparison {
        target,
        peach_series,
        peachstar_series,
        peach_reports,
        peachstar_reports,
    }
}

/// Reads an environment variable as a number with a fallback, so the long
/// harness binaries can be shortened for smoke runs
/// (`PEACHSTAR_EXECUTIONS=2000 PEACHSTAR_REPETITIONS=2 cargo run --bin fig4`).
#[must_use]
pub fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_positive_and_ordered_by_target_size() {
        for target in TargetId::ALL {
            assert!(default_budget(target) > 0);
        }
        assert!(default_budget(TargetId::Iec61850) > default_budget(TargetId::Iec104));
    }

    #[test]
    fn env_or_falls_back() {
        assert_eq!(env_or("PEACHSTAR_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn small_comparison_produces_csv_and_gain() {
        let comparison = compare_target(TargetId::Modbus, 1_500, 1);
        assert!(comparison.peach_final_paths() > 0);
        assert!(comparison.peachstar_final_paths() > 0);
        let csv = comparison.to_csv(1_500);
        assert!(csv.lines().count() > 2);
        assert!(csv.starts_with("executions,hours,peach_paths,peachstar_paths"));
        // The gain may be small on a tiny budget, but the API must not panic.
        let _ = comparison.path_gain_percent();
        let _ = comparison.speedup();
    }
}

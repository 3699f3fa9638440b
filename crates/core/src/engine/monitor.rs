//! The [`CampaignMonitor`]: outcome tallies, unique-bug dedup and coverage
//! series sampling.

use std::collections::HashSet;

use peachstar_protocols::Outcome;

use crate::campaign::BugRecord;
use crate::stats::{CoverageSeries, SeriesPoint};
use crate::strategy::GeneratedPacket;

/// Observes the campaign from the side: tallies outcomes, deduplicates bugs
/// by fault site, and samples the coverage growth series for the
/// `CampaignReport`.
///
/// The monitor never influences the fuzzing loop — removing it must not
/// change which packets run or which seeds are retained.
///
/// # Example
///
/// ```
/// use peachstar::engine::CampaignMonitor;
/// use peachstar::seed::Seed;
/// use peachstar_protocols::Outcome;
///
/// // A 100-execution campaign sampled every 50 executions.
/// let mut monitor = CampaignMonitor::new(100, 50);
/// let packet = Seed::new(vec![0x68, 0x04], "startdt", false);
/// monitor.record(1, &packet, Outcome::Response);
/// monitor.sample(50, 12, 30);
/// assert_eq!(monitor.responses(), 1);
/// assert_eq!(monitor.series().final_paths(), 12);
/// ```
#[derive(Debug)]
pub struct CampaignMonitor {
    budget: u64,
    sample_interval: u64,
    series: CoverageSeries,
    bugs: Vec<BugRecord>,
    seen_sites: HashSet<&'static str>,
    responses: u64,
    protocol_errors: u64,
    fault_hits: u64,
}

impl CampaignMonitor {
    /// Creates a monitor for a campaign of `budget` executions, sampling the
    /// series every `sample_interval` executions (and at the final one).
    #[must_use]
    pub fn new(budget: u64, sample_interval: u64) -> Self {
        Self {
            budget,
            sample_interval: sample_interval.max(1),
            series: CoverageSeries::new(),
            bugs: Vec::new(),
            seen_sites: HashSet::new(),
            responses: 0,
            protocol_errors: 0,
            fault_hits: 0,
        }
    }

    /// Packets answered by the target.
    #[must_use]
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Packets rejected by protocol validation.
    #[must_use]
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    /// Packets that hit a fault, duplicates included.
    #[must_use]
    pub fn fault_hits(&self) -> u64 {
        self.fault_hits
    }

    /// The unique bugs recorded so far.
    #[must_use]
    pub fn bugs(&self) -> &[BugRecord] {
        &self.bugs
    }

    /// The sampled coverage series so far.
    #[must_use]
    pub fn series(&self) -> &CoverageSeries {
        &self.series
    }

    /// Consumes the monitor, returning the series and bug list for the
    /// campaign report.
    #[must_use]
    pub fn into_series_and_bugs(self) -> (CoverageSeries, Vec<BugRecord>) {
        (self.series, self.bugs)
    }

    /// Captures the monitor's resumable state for a campaign snapshot.
    #[must_use]
    pub fn snapshot_state(&self) -> MonitorState {
        MonitorState {
            series: self.series.points().to_vec(),
            bugs: self.bugs.clone(),
            responses: self.responses,
            protocol_errors: self.protocol_errors,
            fault_hits: self.fault_hits,
        }
    }

    /// Restores state previously captured by
    /// [`snapshot_state`](CampaignMonitor::snapshot_state). The site-dedup
    /// set is rebuilt from the bug list — a bug and its site always enter
    /// together, so the pair can never desynchronise across a round trip.
    pub fn restore_state(&mut self, state: MonitorState) {
        self.series = CoverageSeries::new();
        for point in state.series {
            self.series.push(point);
        }
        self.seen_sites = state.bugs.iter().map(|bug| bug.fault.site).collect();
        self.bugs = state.bugs;
        self.responses = state.responses;
        self.protocol_errors = state.protocol_errors;
        self.fault_hits = state.fault_hits;
    }
}

/// The resumable state of a [`CampaignMonitor`], as captured into (and
/// restored from) a campaign snapshot. The `seen_sites` dedup set is not
/// part of the state: it is derived from the bug list on restore.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorState {
    /// Sampled coverage series points so far.
    pub series: Vec<SeriesPoint>,
    /// Unique bugs recorded so far, in discovery order.
    pub bugs: Vec<BugRecord>,
    /// Packets answered by the target.
    pub responses: u64,
    /// Packets rejected by protocol validation.
    pub protocol_errors: u64,
    /// Packets that hit a fault, duplicates included.
    pub fault_hits: u64,
}

impl CampaignMonitor {
    /// Records one execution's outcome (called once per execution, in
    /// execution order).
    pub fn record(&mut self, execution: u64, packet: &GeneratedPacket, outcome: Outcome) {
        match outcome {
            Outcome::Response => self.responses += 1,
            Outcome::ProtocolError => self.protocol_errors += 1,
            Outcome::Fault(fault) => {
                self.fault_hits += 1;
                if self.seen_sites.insert(fault.site) {
                    self.bugs.push(BugRecord {
                        fault,
                        first_execution: execution,
                        packet: packet.bytes.clone(),
                        model: packet.model.clone(),
                    });
                }
            }
        }
    }

    /// Offers a series sample point after an execution was merged; the
    /// monitor keeps it at every sample interval and at the final
    /// execution.
    pub fn sample(&mut self, execution: u64, paths: usize, edges: usize) {
        if execution.is_multiple_of(self.sample_interval) || execution == self.budget {
            self.series.push(SeriesPoint {
                executions: execution,
                paths,
                edges,
                faults: self.bugs.len(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::Seed;
    use peachstar_protocols::{Fault, FaultKind};

    fn packet() -> GeneratedPacket {
        Seed::new(vec![1, 2, 3], "m", false)
    }

    #[test]
    fn tallies_and_dedups_bugs_by_site() {
        let mut monitor = CampaignMonitor::new(100, 10);
        monitor.record(1, &packet(), Outcome::Response);
        monitor.record(2, &packet(), Outcome::ProtocolError);
        let fault = Fault::new(FaultKind::Segv, "a.c:f");
        monitor.record(3, &packet(), Outcome::Fault(fault));
        monitor.record(4, &packet(), Outcome::Fault(fault));
        let other = Fault::new(FaultKind::Hang, "b.c:g");
        monitor.record(5, &packet(), Outcome::Fault(other));

        assert_eq!(monitor.responses(), 1);
        assert_eq!(monitor.protocol_errors(), 1);
        assert_eq!(monitor.fault_hits(), 3);
        assert_eq!(monitor.bugs().len(), 2, "same site dedups");
        assert_eq!(monitor.bugs()[0].first_execution, 3);
        assert_eq!(monitor.bugs()[1].fault.site, "b.c:g");
    }

    #[test]
    fn samples_at_interval_and_final_execution() {
        let mut monitor = CampaignMonitor::new(25, 10);
        for execution in 1..=25 {
            monitor.sample(execution, execution as usize, 0);
        }
        let sampled: Vec<u64> = monitor
            .series()
            .points()
            .iter()
            .map(|p| p.executions)
            .collect();
        assert_eq!(sampled, vec![10, 20, 25]);
        let (series, bugs) = monitor.into_series_and_bugs();
        assert_eq!(series.final_paths(), 25);
        assert!(bugs.is_empty());
    }
}

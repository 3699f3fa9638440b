//! Metric names, units and directions; the arithmetic that turns passes
//! and layer totals into metric values; and the result line.

use std::fmt::Write as _;

use crate::trace::Layers;
use crate::workload::Pass;

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
pub type Spec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the fuzzer sees; printed by every untraced run.
pub const END_TO_END: [Spec; 5] = [
    ("execs_per_s", "exec/s", Higher),
    ("final_paths", "paths", Higher),
    ("unique_bugs", "bugs", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// One layer each; printed by every traced run. `*.share` is the layer's
/// self time over the traced wall time.
pub const PER_LAYER: [Spec; 42] = [
    ("strategy.self_s", "s", Lower),
    ("strategy.share", "ratio", Lower),
    ("strategy.ns_per_packet", "ns", Lower),
    ("strategy.allocs_per_packet", "allocs/packet", Lower),
    ("strategy.bytes_per_packet", "B/packet", Lower),
    ("protocols.self_s", "s", Lower),
    ("protocols.share", "ratio", Lower),
    ("protocols.calls", "count", Lower),
    ("protocols.ns_per_exec", "ns", Lower),
    ("protocols.allocs_per_exec", "allocs/exec", Lower),
    ("protocols.valid_frac", "ratio", Higher),
    ("cracker.self_s", "s", Lower),
    ("cracker.share", "ratio", Lower),
    ("cracker.calls", "count", Higher),
    ("cracker.us_per_call", "us", Lower),
    ("cracker.useful_frac", "ratio", Higher),
    ("cracker.allocs_per_call", "allocs/call", Lower),
    ("cracker.corpus_size", "puzzles", Higher),
    ("transport.self_s", "s", Lower),
    ("transport.share", "ratio", Lower),
    ("transport.round_trips", "count", Lower),
    ("transport.us_per_round_trip", "us", Lower),
    ("snapshot.self_s", "s", Lower),
    ("snapshot.share", "ratio", Lower),
    ("snapshot.writes", "count", Lower),
    ("snapshot.bytes", "B", Lower),
    ("snapshot.encode_ms", "ms", Lower),
    ("snapshot.store_ms", "ms", Lower),
    ("snapshot.decode_ms", "ms", Lower),
    ("snapshot.recover_ms", "ms", Lower),
    ("snapshot.allocs_per_store", "allocs/store", Lower),
    ("shard.exec_wall_s", "s", Lower),
    ("shard.worker_busy_frac", "ratio", Higher),
    ("shard.rounds", "count", Lower),
    ("engine.self_s", "s", Lower),
    ("engine.share", "ratio", Lower),
    ("engine.ns_per_exec", "ns", Lower),
    ("engine.allocs_per_exec", "allocs/exec", Lower),
    ("engine.valuable_frac", "ratio", Higher),
    ("engine.edges", "edges", Higher),
    ("trace.wall_s", "s", Lower),
    ("trace.overhead_frac", "ratio", Lower),
];

/// Named metric values, in table order.
pub type Values = Vec<(&'static str, f64)>;

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The medians of each metric over several traced passes.
pub fn median_values(samples: &[Values]) -> Values {
    let Some(first) = samples.first() else {
        return Values::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(index, &(name, _))| {
            let column: Vec<f64> = samples.iter().map(|sample| sample[index].1).collect();
            (name, median(&column))
        })
        .collect()
}

/// Facts about a traced pass that the layers do not hold.
#[derive(Debug, Clone, Copy)]
pub struct PassFacts {
    /// Parallel workers executing windows (1 unless sharded).
    pub workers: u64,
    /// The target runs in another thread's socket server: that thread's
    /// allocations outside the decoder belong to the transport.
    pub remote_server: bool,
    /// Allocations of every thread, and of the driving thread, during the
    /// pass.
    pub total_allocs: u64,
    pub main_allocs: u64,
}

/// Per-layer metrics of one traced pass, except the direct snapshot
/// timings and the trace overhead, which [`crate`] adds.
///
/// Layers on the driving thread run one after another, so their self
/// times partition the wall time: `engine` is what remains after the
/// plug-ins and the execution wait. With parallel workers the execution
/// wait is the union of the workers' busy intervals (`shard.exec_wall_s`),
/// and `protocols`/`transport` sum over workers, so shares need not add up
/// to one.
pub fn layer_values(layers: &Layers, pass: &Pass, facts: PassFacts) -> Values {
    let wall = pass.wall.as_secs_f64();
    let executions = pass.executions.max(1) as f64;
    let per = |part: f64, whole: u64| part / whole.max(1) as f64;

    let strategy = &layers.strategy;
    let cracker = &layers.cracker;
    let server = &layers.server;
    let client = &layers.client;
    let snapshot = &layers.snapshot;
    let transport_s = (client.secs() - server.secs()).max(0.0);
    let exec_wall = layers.exec_wall_secs();
    let engine_s = wall - strategy.secs() - cracker.secs() - snapshot.secs() - exec_wall;

    let mut transport_allocs = client
        .allocs()
        .saturating_sub(layers.server_nested_allocs());
    if facts.remote_server {
        let off_main = facts.total_allocs.saturating_sub(facts.main_allocs);
        transport_allocs += off_main.saturating_sub(server.allocs());
    }
    let engine_allocs = facts
        .total_allocs
        .saturating_sub(strategy.allocs() + cracker.allocs() + snapshot.allocs() + server.allocs())
        .saturating_sub(transport_allocs);

    vec![
        ("strategy.self_s", strategy.secs()),
        ("strategy.share", strategy.secs() / wall),
        (
            "strategy.ns_per_packet",
            per(strategy.secs() * 1e9, strategy.calls()),
        ),
        (
            "strategy.allocs_per_packet",
            per(strategy.allocs() as f64, strategy.calls()),
        ),
        (
            "strategy.bytes_per_packet",
            per(strategy.bytes() as f64, strategy.calls()),
        ),
        ("protocols.self_s", server.secs()),
        ("protocols.share", server.secs() / wall),
        ("protocols.calls", server.calls() as f64),
        ("protocols.ns_per_exec", server.secs() * 1e9 / executions),
        (
            "protocols.allocs_per_exec",
            server.allocs() as f64 / executions,
        ),
        ("protocols.valid_frac", pass.responses() as f64 / executions),
        ("cracker.self_s", cracker.secs()),
        ("cracker.share", cracker.secs() / wall),
        ("cracker.calls", cracker.calls() as f64),
        (
            "cracker.us_per_call",
            per(cracker.secs() * 1e6, cracker.calls()),
        ),
        (
            "cracker.useful_frac",
            per(layers.cracker_useful() as f64, cracker.calls()),
        ),
        (
            "cracker.allocs_per_call",
            per(cracker.allocs() as f64, cracker.calls()),
        ),
        ("cracker.corpus_size", pass.corpus() as f64),
        ("transport.self_s", transport_s),
        ("transport.share", transport_s / wall),
        ("transport.round_trips", client.calls() as f64),
        (
            "transport.us_per_round_trip",
            per(transport_s * 1e6, client.calls()),
        ),
        ("snapshot.self_s", snapshot.secs()),
        ("snapshot.share", snapshot.secs() / wall),
        ("snapshot.writes", snapshot.calls() as f64),
        ("shard.exec_wall_s", exec_wall),
        (
            "shard.worker_busy_frac",
            client.secs() / (exec_wall * facts.workers.max(1) as f64),
        ),
        ("shard.rounds", pass.rounds as f64),
        ("engine.self_s", engine_s),
        ("engine.share", engine_s / wall),
        ("engine.ns_per_exec", engine_s * 1e9 / executions),
        ("engine.allocs_per_exec", engine_allocs as f64 / executions),
        ("engine.valuable_frac", cracker.calls() as f64 / executions),
        ("engine.edges", pass.edges() as f64),
        ("trace.wall_s", wall),
    ]
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let mut metrics = String::new();
    for (name, unit, _) in specs {
        let Some(&(_, value)) = values.iter().find(|(have, _)| have == name) else {
            continue;
        };
        if !value.is_finite() {
            continue;
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

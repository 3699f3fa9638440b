//! `peachstar` — coverage guided packet crack and generation for ICS
//! protocol fuzzing.
//!
//! This crate is a from-scratch Rust reproduction of the system presented in
//! the DAC 2020 paper *"ICS Protocol Fuzzing: Coverage Guided Packet Crack
//! and Generation"*. It contains two fuzzers sharing one engine:
//!
//! * **Peach** (the baseline): a classic generation-based protocol fuzzer
//!   that instantiates packets from per-packet-type data models using
//!   per-type mutators (Algorithm 1 of the paper) — see
//!   [`strategy::RandomGenerationStrategy`];
//! * **Peach\*** (the contribution): the same engine augmented with a
//!   coverage feedback loop, a *File Cracker* that splits valuable seeds
//!   into rule-tagged *puzzles* (Algorithm 2), a *semantic-aware generation*
//!   strategy that assembles new packets from donated puzzles (Algorithm 3),
//!   and a *File Fixup* pass that re-establishes sizes and checksums — see
//!   [`strategy::SemanticAwareStrategy`].
//!
//! The [`campaign`] module runs either fuzzer against one of the
//! instrumented ICS protocol targets from [`peachstar_protocols`], recording
//! the path-coverage growth curves and unique bugs that the paper's Figure 4
//! and Table I report.
//!
//! # Quickstart
//!
//! ```
//! use peachstar::campaign::{Campaign, CampaignConfig};
//! use peachstar::strategy::StrategyKind;
//! use peachstar_protocols::TargetId;
//!
//! let config = CampaignConfig::new(StrategyKind::PeachStar)
//!     .executions(2_000)
//!     .rng_seed(7);
//! let report = Campaign::new(TargetId::Modbus.create(), config).run();
//! assert!(report.final_paths() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod corpus;
pub mod cracker;
pub mod engine;
pub mod mutator;
pub mod seed;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod strategy;

pub use artifact::{CrashArtifact, ReplayError};
pub use campaign::{Campaign, CampaignConfig, CampaignReport, RunPlan, ShardedCampaign, Topology};
pub use engine::{Engine, ShardConfig};
pub use corpus::PuzzleCorpus;
pub use cracker::FileCracker;
pub use seed::{Seed, SeedPool};
pub use service::{ControlServer, ServiceHooks, ServiceStatus};
pub use snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotError, SnapshotMeta};
pub use stats::{CoverageSeries, SeriesPoint};
pub use strategy::{
    GeneratedPacket, GenerationStrategy, RandomGenerationStrategy, SemanticAwareConfig,
    SemanticAwareStrategy, StrategyKind,
};

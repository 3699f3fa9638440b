//! Crash reproducer bundles: one self-contained, checksummed file per
//! unique bug, written by `--artifacts DIR` and re-run by the `replay` CLI
//! mode.
//!
//! A bundle does not try to capture the target's in-memory state at the
//! moment of the crash — none of it is serialisable, and none of it needs
//! to be. Every campaign in this codebase is a deterministic function of
//! its recipe (target, strategy, seed, budget, session shape, execution
//! mode, chaos policy), so the artifact records the *recipe* plus the
//! coordinates of the bug (fault kind, dedup site, first execution, the
//! triggering packet and its data model). Replay re-runs the recipe with
//! the budget truncated to the recorded execution and demands that the
//! same fault fires at the same execution from the same packet — a
//! bit-exact reproduction, not a heuristic one.
//!
//! The execution mode matters for Peach\*: a sharded campaign feeds the
//! strategy its feedback at merge barriers, so its packet stream differs
//! from the sequential one. The bundle therefore records the barrier width
//! ([`CrashArtifact::sync_windows`]) and replay rebuilds the same topology
//! (with a single worker — worker count is invariant anyway).
//!
//! The wire format is a fixed-width cousin of the
//! [`snapshot`](crate::snapshot) format: magic + version header, tagged
//! sections with `u64` lengths, little-endian integers, a byte-wise FNV-1a
//! 64 trailer, and atomic writes through a `.tmp` file and a rename. A
//! bundle is a few hundred bytes written once per bug, so it gains nothing
//! from the snapshot's varints.
//!
//! Version 2 records the chaos policy without the garbage-response period
//! that version 1 carried (the injector no longer has one). A version-1
//! bundle is refused by number, [`SnapshotError::UnsupportedVersion`]`(1)`,
//! as a version-1 snapshot is.

use std::path::{Path, PathBuf};

use peachstar_protocols::chaos::{ChaosConfig, ChaosTarget};
use peachstar_protocols::{FaultKind, Target, TargetId};

use crate::campaign::{BugRecord, Campaign, CampaignConfig, CampaignReport, ShardConfig, Topology};
use crate::engine::{PhaseMask, SessionConfig};
use crate::snapshot::{
    fault_kind_from_tag, fault_kind_tag, put_u32, put_u64, put_u8, strategy_from_tag, strategy_tag,
    write_atomic, Reader, SnapshotError,
};

/// File magic of a crash artifact bundle.
pub const MAGIC: [u8; 8] = *b"PEACHART";

/// Current artifact format version.
pub const VERSION: u32 = 2;

const SECTION_RECIPE: u8 = 1;
const SECTION_BUG: u8 = 2;

/// One reproducer bundle: the campaign recipe plus the coordinates of one
/// unique bug (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashArtifact {
    /// Which built-in target the campaign ran against.
    pub target: TargetId,
    /// The full campaign recipe. `executions` is the original budget; replay
    /// truncates it to [`first_execution`](CrashArtifact::first_execution).
    pub config: CampaignConfig,
    /// Merge-barrier width when the campaign was sharded (`None` for the
    /// sequential driver). Part of the campaign semantics for Peach\*.
    pub sync_windows: Option<u64>,
    /// Failure-injection policy when the target was chaos-wrapped.
    pub chaos: Option<ChaosConfig>,
    /// Kind of the recorded fault.
    pub fault_kind: FaultKind,
    /// Dedup site of the recorded fault.
    pub site: String,
    /// Execution index (1-based) at which the fault first fired.
    pub first_execution: u64,
    /// The packet that first triggered the fault.
    pub packet: Vec<u8>,
    /// Data model the packet was generated from.
    pub model: String,
}

/// Why a replayed bundle failed to reproduce its recorded bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The recorded fault site never fired within the replayed budget.
    NotReproduced,
    /// The recorded site fired, but with different coordinates — the named
    /// field of the replayed bug record disagrees with the bundle.
    Diverged(&'static str),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NotReproduced => {
                f.write_str("the recorded fault did not fire during the replay")
            }
            ReplayError::Diverged(what) => {
                write!(f, "the replayed bug diverged from the bundle: {what}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl CrashArtifact {
    /// Builds the bundle for one bug of a finished campaign.
    #[must_use]
    pub fn from_bug(
        target: TargetId,
        config: &CampaignConfig,
        sync_windows: Option<u64>,
        chaos: Option<ChaosConfig>,
        bug: &BugRecord,
    ) -> Self {
        // Normalise the transport away: it is an operational knob the wire
        // format does not serialise, and replay always runs in-process — a
        // bug recorded over framed TCP reproduces identically there.
        let config = config.transport(crate::engine::transport::TransportMode::InProcess);
        Self {
            target,
            config,
            sync_windows,
            chaos,
            fault_kind: bug.fault.kind,
            site: bug.fault.site.to_string(),
            first_execution: bug.first_execution,
            packet: bug.packet.clone(),
            model: bug.model.clone(),
        }
    }

    /// The deterministic file name of this bundle inside an artifacts
    /// directory: target, fault kind and a hash of the dedup site — the
    /// same bug always maps to the same file, so re-running a campaign
    /// overwrites rather than accumulates.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{:016x}.peachart",
            slug(self.target.project_name()),
            slug(&self.fault_kind.to_string()),
            fnv1a(self.site.as_bytes())
        )
    }

    /// Encodes the bundle to bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_section(&mut out, SECTION_RECIPE, |buf| {
            put_str(buf, self.target.project_name());
            put_u8(buf, strategy_tag(self.config.strategy));
            put_u64(buf, self.config.executions);
            put_u64(buf, self.config.rng_seed);
            put_u64(buf, self.config.sample_interval);
            put_u64(buf, self.config.reset_interval);
            match self.config.session {
                Some(session) => {
                    put_u8(buf, 1);
                    put_u64(buf, session.payload_packets);
                    let mask = u8::from(session.mutate.handshake)
                        | u8::from(session.mutate.payload) << 1
                        | u8::from(session.mutate.teardown) << 2;
                    put_u8(buf, mask);
                }
                None => put_u8(buf, 0),
            }
            put_option_u64(buf, self.config.batch);
            put_option_u64(buf, self.config.exec_timeout);
            put_option_u64(buf, self.sync_windows);
            match self.chaos {
                Some(chaos) => {
                    put_u8(buf, 1);
                    put_u64(buf, chaos.seed);
                    put_u64(buf, chaos.panic_every);
                    put_u64(buf, chaos.hang_every);
                    put_u64(buf, chaos.hang.as_millis() as u64);
                    put_u32(buf, chaos.sites);
                }
                None => put_u8(buf, 0),
            }
        });
        put_section(&mut out, SECTION_BUG, |buf| {
            put_u8(buf, fault_kind_tag(self.fault_kind));
            put_str(buf, &self.site);
            put_u64(buf, self.first_execution);
            put_bytes(buf, &self.packet);
            put_str(buf, &self.model);
        });
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a bundle, validating magic, version and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if fnv1a(body) != declared {
            return Err(SnapshotError::Corrupt("checksum"));
        }
        let mut reader = Reader::new(&body[MAGIC.len()..]);
        let version = reader.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (target, config, sync_windows, chaos) =
            read_section(&mut reader, SECTION_RECIPE, |section| {
                let target_name = read_string(section)?;
                let target = TargetId::parse(&target_name)
                    .ok_or(SnapshotError::Corrupt("unknown target"))?;
                let strategy = strategy_from_tag(section.u8()?)?;
                let mut config = CampaignConfig::new(strategy);
                config.executions = section.u64()?;
                config.rng_seed = section.u64()?;
                config.sample_interval = section.u64()?;
                config.reset_interval = section.u64()?;
                config.session = match section.u8()? {
                    0 => None,
                    1 => {
                        let payload_packets = section.u64()?;
                        let mask = section.u8()?;
                        Some(SessionConfig::new(payload_packets).mutate(PhaseMask {
                            handshake: mask & 1 != 0,
                            payload: mask & 2 != 0,
                            teardown: mask & 4 != 0,
                        }))
                    }
                    _ => return Err(SnapshotError::Corrupt("session flag")),
                };
                config.batch = read_option_u64(section)?;
                config.exec_timeout = read_option_u64(section)?;
                let sync_windows = read_option_u64(section)?;
                let chaos = match section.u8()? {
                    0 => None,
                    1 => Some(
                        ChaosConfig::new(section.u64()?)
                            .panic_every(section.u64()?)
                            .hang_every(section.u64()?)
                            .hang_ms(section.u64()?)
                            .sites(section.u32()?),
                    ),
                    _ => return Err(SnapshotError::Corrupt("chaos flag")),
                };
                Ok((target, config, sync_windows, chaos))
            })?;
        let (fault_kind, site, first_execution, packet, model) =
            read_section(&mut reader, SECTION_BUG, |section| {
                let kind = fault_kind_from_tag(section.u8()?)?;
                let site = read_string(section)?;
                let first_execution = section.u64()?;
                let packet = read_bytes(section)?.to_vec();
                let model = read_string(section)?;
                Ok((kind, site, first_execution, packet, model))
            })?;
        if !reader.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(Self {
            target,
            config,
            sync_windows,
            chaos,
            fault_kind,
            site,
            first_execution,
            packet,
            model,
        })
    }

    /// Writes the bundle into `dir` (created if missing) under its
    /// deterministic [`file_name`](CrashArtifact::file_name), atomically:
    /// bytes go to a sibling `.tmp` first and are renamed into place, and a
    /// failed write removes its temp file — the same helper
    /// [`CampaignSnapshot::write_atomic`](crate::snapshot::CampaignSnapshot::write_atomic)
    /// uses.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        write_atomic(&path, &self.encode())?;
        Ok(path)
    }

    /// Reads and decodes a bundle file.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// The target instance the recorded campaign ran against: the built-in
    /// target, chaos-wrapped when the bundle records an injection policy.
    #[must_use]
    pub fn create_target(&self) -> Box<dyn Target> {
        match self.chaos {
            Some(chaos) => Box::new(ChaosTarget::new(self.target.create_send(), chaos)),
            None => self.target.create(),
        }
    }

    /// Re-runs the recorded campaign up to (and including) the recorded
    /// execution and checks that the recorded fault fires again — same
    /// site, same execution index, same packet bytes.
    ///
    /// Returns the replayed report so callers can show what happened either
    /// way (boxed on the error path to keep the `Result` small). Determinism makes this exact: a diverging replay means the
    /// bundle and the code base no longer agree (different build, edited
    /// bundle, changed target).
    pub fn replay(&self) -> Result<CampaignReport, Box<(CampaignReport, ReplayError)>> {
        let config = CampaignConfig {
            executions: self.first_execution,
            ..self.config
        };
        let topology = match self.sync_windows {
            Some(sync_windows) => Topology::Workers(
                ShardConfig::with_workers(1)
                    .sync_windows(usize::try_from(sync_windows).unwrap_or(usize::MAX)),
            ),
            None => Topology::Inline,
        };
        let report = Campaign::new(self.create_target(), config)
            .topology(topology)
            .run();
        // Sites are compared by text, not by interned pointer: native target
        // faults carry `&'static str` literals that never pass through the
        // intern table, so their pointers differ from the decoded copy.
        let Some(bug) = report
            .bugs
            .iter()
            .find(|bug| bug.fault.kind == self.fault_kind && bug.fault.site == self.site)
        else {
            return Err(Box::new((report, ReplayError::NotReproduced)));
        };
        if bug.first_execution != self.first_execution {
            return Err(Box::new((report, ReplayError::Diverged("first execution"))));
        }
        if bug.packet != self.packet {
            return Err(Box::new((report, ReplayError::Diverged("packet bytes"))));
        }
        if bug.model != self.model {
            return Err(Box::new((report, ReplayError::Diverged("data model"))));
        }
        Ok(report)
    }
}

/// Lowercases and replaces every non-alphanumeric run with one dash, so a
/// target or fault label is always a safe file-name component.
fn slug(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

// ---------------------------------------------------------------------------
// The fixed-width framing: `u64` lengths and a byte-wise checksum.

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn put_str(buf: &mut Vec<u8>, text: &str) {
    put_bytes(buf, text.as_bytes());
}

fn put_option_u64(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(value) => {
            put_u8(buf, 1);
            put_u64(buf, value);
        }
        None => put_u8(buf, 0),
    }
}

fn put_section(out: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let mut payload = Vec::new();
    fill(&mut payload);
    put_u8(out, tag);
    put_bytes(out, &payload);
}

/// FNV-1a 64-bit over `bytes`, one byte at a time — the corruption detector
/// appended to every bundle (not a cryptographic integrity guarantee).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A `u64`-length-prefixed byte string; the declared length is validated
/// against the remaining input before anything is allocated.
fn read_bytes<'a>(reader: &mut Reader<'a>) -> Result<&'a [u8], SnapshotError> {
    let len = usize::try_from(reader.u64()?).map_err(|_| SnapshotError::Corrupt("length"))?;
    reader.take(len)
}

fn read_string(reader: &mut Reader<'_>) -> Result<String, SnapshotError> {
    String::from_utf8(read_bytes(reader)?.to_vec())
        .map_err(|_| SnapshotError::Corrupt("utf-8 string"))
}

fn read_option_u64(reader: &mut Reader<'_>) -> Result<Option<u64>, SnapshotError> {
    match reader.u8()? {
        0 => Ok(None),
        1 => Ok(Some(reader.u64()?)),
        _ => Err(SnapshotError::Corrupt("option flag")),
    }
}

fn read_section<'a, T>(
    reader: &mut Reader<'a>,
    expected_tag: u8,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    if reader.u8()? != expected_tag {
        return Err(SnapshotError::Corrupt("section tag"));
    }
    let mut section = Reader::new(read_bytes(reader)?);
    let value = parse(&mut section)?;
    if !section.is_empty() {
        return Err(SnapshotError::Corrupt("section length"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    fn chaos_campaign() -> (TargetId, CampaignConfig, ChaosConfig, CampaignReport) {
        let target = TargetId::Modbus;
        let config = CampaignConfig::new(StrategyKind::Peach)
            .executions(600)
            .rng_seed(5)
            .sample_interval(100)
            .reset_interval(150);
        let chaos = ChaosConfig::new(11).panic_every(23).hang_every(0);
        let report = Campaign::new(
            Box::new(ChaosTarget::new(target.create_send(), chaos)),
            config,
        )
        .run();
        (target, config, chaos, report)
    }

    #[test]
    fn artifact_roundtrips_through_encode_decode() {
        let (target, config, chaos, report) = chaos_campaign();
        let bug = report.bugs.first().expect("chaos campaign finds bugs");
        let artifact = CrashArtifact::from_bug(target, &config, Some(8), Some(chaos), bug);
        let decoded = CrashArtifact::decode(&artifact.encode()).expect("roundtrip");
        assert_eq!(decoded, artifact);
    }

    #[test]
    fn artifact_rejects_corruption() {
        let (target, config, chaos, report) = chaos_campaign();
        let bug = report.bugs.first().expect("chaos campaign finds bugs");
        let artifact = CrashArtifact::from_bug(target, &config, None, Some(chaos), bug);
        let mut bytes = artifact.encode();
        assert!(matches!(
            CrashArtifact::decode(&bytes[..10]),
            Err(SnapshotError::Truncated)
        ));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            CrashArtifact::decode(&bytes),
            Err(SnapshotError::Corrupt("checksum"))
        ));
        bytes[mid] ^= 0xFF;
        bytes[0] = b'X';
        assert!(matches!(
            CrashArtifact::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn a_version_1_bundle_is_refused_by_number() {
        // Magic, version 1, an empty body and a valid checksum: the version
        // is checked before any section is read.
        let mut bytes = MAGIC.to_vec();
        put_u32(&mut bytes, 1);
        let checksum = fnv1a(&bytes);
        put_u64(&mut bytes, checksum);
        assert!(matches!(
            CrashArtifact::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn replay_reproduces_a_recorded_bug() {
        let (target, config, chaos, report) = chaos_campaign();
        let bug = report.bugs.first().expect("chaos campaign finds bugs");
        let artifact = CrashArtifact::from_bug(target, &config, None, Some(chaos), bug);
        let replayed = artifact.replay().expect("the recorded fault fires again");
        assert_eq!(replayed.executions, bug.first_execution);
    }

    #[test]
    fn replay_detects_a_bundle_that_no_longer_reproduces() {
        let (target, config, chaos, report) = chaos_campaign();
        let bug = report.bugs.first().expect("chaos campaign finds bugs");
        let mut artifact = CrashArtifact::from_bug(target, &config, None, Some(chaos), bug);
        // A different chaos seed misbehaves on different packets, so the
        // recorded site cannot fire at the recorded execution.
        artifact.chaos = Some(ChaosConfig::new(12).panic_every(23).hang_every(0));
        let (_, error) = *artifact.replay().expect_err("divergence must be caught");
        assert!(matches!(
            error,
            ReplayError::NotReproduced | ReplayError::Diverged(_)
        ));
    }

    #[test]
    fn write_atomic_is_deterministic_and_readable() {
        let (target, config, chaos, report) = chaos_campaign();
        let bug = report.bugs.first().expect("chaos campaign finds bugs");
        let artifact = CrashArtifact::from_bug(target, &config, None, Some(chaos), bug);
        let dir = std::env::temp_dir().join(format!(
            "peachart-test-{}-{}",
            std::process::id(),
            fnv1a(artifact.site.as_bytes())
        ));
        let path = artifact.write_atomic(&dir).expect("write");
        let again = artifact.write_atomic(&dir).expect("rewrite");
        assert_eq!(path, again, "the same bug maps to the same file");
        assert_eq!(CrashArtifact::read_from(&path).expect("read"), artifact);
        assert!(path.file_name().is_some_and(|name| {
            let name = name.to_string_lossy();
            name.starts_with("libmodbus-panic-") && name.ends_with(".peachart")
        }));
        std::fs::remove_dir_all(&dir).ok();
    }
}

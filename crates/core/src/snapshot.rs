//! Campaign checkpointing: a versioned, self-describing binary snapshot of
//! everything a campaign needs to resume bit-exactly.
//!
//! # What a snapshot holds
//!
//! A campaign's observable behaviour is a deterministic function of its
//! configuration plus five pieces of mutable state, all of which serialise
//! here:
//!
//! * the campaign [`SmallRng`](rand::rngs::SmallRng)'s exact stream
//!   position (four xoshiro256++ state words);
//! * the global [`CoverageMap`] — per-slot bucket masks, the path-id set
//!   and the execution count;
//! * the [`SeedPool`] of retained valuable seeds;
//! * the monitor's tallies, bug list and sampled series
//!   ([`MonitorState`]);
//! * the schedule's state ([`ScheduleState`]): the session cursor plus the
//!   strategy's state — for Peach\* the whole [`PuzzleCorpus`] (per-rule
//!   donor sets and the dedup/rejection counters) and the queued semantic
//!   batch.
//!
//! Target internals are deliberately *not* serialised: checkpoints are only
//! taken at reset-aligned window boundaries, where the sequential campaign
//! has just wiped the target anyway, so a fresh target at resume is
//! bit-equivalent to the one the interrupted run was holding.
//!
//! # Wire format
//!
//! ```text
//! magic "PEACHSNP" (8 bytes) | version u32 LE
//! sections, each:  tag u8 | byte length u64 LE | payload
//!   1 META      target, strategy, budget, seed, intervals, session/batch/shards shape
//!   2 RNG       4 × u64 xoshiro256++ state words
//!   3 MAP       sorted (slot u32, mask u8) pairs | sorted path ids | executions
//!   4 POOL      valuable seeds (bytes, model, semantic, path, new_edges)
//!   5 MONITOR   series points | bug records | outcome tallies
//!   6 SCHEDULE  session cursor | strategy state (incl. the puzzle corpus)
//!   7 PROGRESS  completed executions (always a window boundary)
//! FNV-1a 64 checksum over everything above, u64 LE
//! ```
//!
//! Every integer is little-endian; byte strings and lists are length- or
//! count-prefixed. Hash-map/-set contents (corpus rules, path ids) are
//! sorted before encoding so the byte stream is canonical: encoding the same
//! state twice produces identical bytes. Decoding validates the magic, the
//! version, every length against the remaining input and the trailing
//! checksum, and returns a typed [`SnapshotError`] — never a panic — on
//! truncated, corrupted or wrong-version input.
//!
//! [`write_atomic`](CampaignSnapshot::write_atomic) writes via a sibling
//! temp file plus `rename`, so a crash mid-write can never leave a torn
//! snapshot at the target path.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use peachstar_coverage::{CoverageMap, PathId, MAP_SIZE};
use peachstar_datamodel::RuleId;
use peachstar_protocols::{Fault, FaultKind};

use crate::campaign::{BugRecord, CampaignConfig};
use crate::corpus::PuzzleCorpus;
use crate::engine::monitor::MonitorState;
use crate::engine::schedule::ScheduleState;
use crate::seed::{Seed, SeedPool};
use crate::stats::SeriesPoint;
use crate::strategy::{StrategyKind, StrategyState};

/// Magic bytes identifying a campaign snapshot file.
pub const MAGIC: [u8; 8] = *b"PEACHSNP";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

const TAG_META: u8 = 1;
const TAG_RNG: u8 = 2;
const TAG_MAP: u8 = 3;
const TAG_POOL: u8 = 4;
const TAG_MONITOR: u8 = 5;
const TAG_SCHEDULE: u8 = 6;
const TAG_PROGRESS: u8 = 7;

/// Why a snapshot could not be read, decoded or applied.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(io::Error),
    /// The input does not start with the snapshot magic bytes.
    BadMagic,
    /// The input declares a format version this build cannot decode.
    UnsupportedVersion(u32),
    /// The input ended before the declared structure was complete.
    Truncated,
    /// The input is structurally invalid (bad checksum, out-of-range value,
    /// malformed field); the message names the offending element.
    Corrupt(&'static str),
    /// The snapshot is valid but belongs to a different campaign
    /// configuration; the message names the mismatched field.
    Mismatch(&'static str),
    /// A checkpoint or stop point was requested at an execution index that
    /// is not a reset-aligned window boundary of this campaign.
    Unaligned(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::BadMagic => f.write_str("not a campaign snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(version) => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::Truncated => f.write_str("snapshot is truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match this campaign: {what}")
            }
            SnapshotError::Unaligned(execution) => {
                write!(f, "execution {execution} is not a window boundary")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// The configuration fingerprint stored in a snapshot, validated on resume
/// so state captured under one campaign shape can never silently drive a
/// different one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Name of the fuzzed target.
    pub target: String,
    /// Which fuzzer the campaign runs.
    pub strategy: StrategyKind,
    /// Total execution budget.
    pub executions: u64,
    /// The campaign RNG seed.
    pub rng_seed: u64,
    /// Series sampling interval.
    pub sample_interval: u64,
    /// Target reset interval (ignored under sessions, still fingerprinted).
    pub reset_interval: u64,
    /// Session shape when session campaigns are active: payload packets per
    /// session plus the phase-mask bits (1 = handshake, 2 = payload,
    /// 4 = teardown).
    pub session: Option<(u64, u8)>,
    /// Batched-window size when batching is active.
    pub batch: Option<u64>,
    /// Merge-barrier width (windows per round) for sharded campaigns.
    pub sync_windows: Option<u64>,
}

impl SnapshotMeta {
    /// The fingerprint of a (sequential) campaign configuration.
    ///
    /// Operational knobs — `exec_timeout`, `transport`, the
    /// worker/connection count, the `reconnect` policy, server-side
    /// `wire_chaos` injection, and the service flags (`--control`,
    /// `--keep-checkpoints`) — are deliberately excluded: they never change
    /// the report, so a checkpoint resumes across any of them (a
    /// TCP-recorded checkpoint resumes in-process bit-exactly, and a
    /// chaos-recorded one resumes on a healthy wire).
    #[must_use]
    pub fn for_campaign(target: &str, config: &CampaignConfig) -> Self {
        Self {
            target: target.to_string(),
            strategy: config.strategy,
            executions: config.executions,
            rng_seed: config.rng_seed,
            sample_interval: config.sample_interval,
            reset_interval: config.reset_interval,
            session: config.session.map(|session| {
                let mask = u8::from(session.mutate.handshake)
                    | u8::from(session.mutate.payload) << 1
                    | u8::from(session.mutate.teardown) << 2;
                (session.payload_packets, mask)
            }),
            batch: config.batch,
            sync_windows: None,
        }
    }

    /// Marks the fingerprint as belonging to a sharded campaign with the
    /// given merge-barrier width.
    #[must_use]
    pub fn sharded(mut self, sync_windows: u64) -> Self {
        self.sync_windows = Some(sync_windows);
        self
    }

    /// Checks that `self` (from a snapshot) matches the fingerprint of the
    /// campaign about to resume, naming the first mismatched field.
    pub fn ensure_matches(&self, current: &SnapshotMeta) -> Result<(), SnapshotError> {
        if self.target != current.target {
            return Err(SnapshotError::Mismatch("target"));
        }
        if self.strategy != current.strategy {
            return Err(SnapshotError::Mismatch("strategy"));
        }
        if self.executions != current.executions {
            return Err(SnapshotError::Mismatch("executions"));
        }
        if self.rng_seed != current.rng_seed {
            return Err(SnapshotError::Mismatch("rng_seed"));
        }
        if self.sample_interval != current.sample_interval {
            return Err(SnapshotError::Mismatch("sample_interval"));
        }
        if self.reset_interval != current.reset_interval {
            return Err(SnapshotError::Mismatch("reset_interval"));
        }
        if self.session != current.session {
            return Err(SnapshotError::Mismatch("session"));
        }
        if self.batch != current.batch {
            return Err(SnapshotError::Mismatch("batch"));
        }
        if self.sync_windows != current.sync_windows {
            return Err(SnapshotError::Mismatch("sync_windows"));
        }
        Ok(())
    }
}

/// A complete, resumable campaign checkpoint.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// Configuration fingerprint, validated on resume.
    pub meta: SnapshotMeta,
    /// Executions completed so far — always a reset-aligned window boundary.
    pub completed: u64,
    /// The campaign RNG's exact stream position.
    pub rng_state: [u64; 4],
    /// The global coverage map.
    pub map: CoverageMap,
    /// The retained valuable seeds.
    pub pool: SeedPool,
    /// The monitor's tallies, bugs and series.
    pub monitor: MonitorState,
    /// The schedule's cursor and strategy state (including the corpus).
    pub schedule: ScheduleState,
}

impl CampaignSnapshot {
    /// Encodes the snapshot into the versioned wire format.
    ///
    /// The encoding is canonical: the same state always produces the same
    /// bytes, so snapshot files can be compared directly.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_section(&mut out, TAG_META, |buf| encode_meta(buf, &self.meta));
        put_section(&mut out, TAG_RNG, |buf| {
            for word in self.rng_state {
                put_u64(buf, word);
            }
        });
        put_section(&mut out, TAG_MAP, |buf| encode_map(buf, &self.map));
        put_section(&mut out, TAG_POOL, |buf| encode_pool(buf, &self.pool));
        put_section(&mut out, TAG_MONITOR, |buf| {
            encode_monitor(buf, &self.monitor);
        });
        put_section(&mut out, TAG_SCHEDULE, |buf| {
            encode_schedule(buf, &self.schedule);
        });
        put_section(&mut out, TAG_PROGRESS, |buf| put_u64(buf, self.completed));
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a snapshot from the wire format.
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
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a(body) != stored {
            return Err(SnapshotError::Corrupt("checksum"));
        }
        let mut reader = Reader::new(&body[MAGIC.len()..]);
        let version = reader.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let meta = read_section(&mut reader, TAG_META, decode_meta)?;
        let rng_state = read_section(&mut reader, TAG_RNG, |r| {
            Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
        })?;
        let map = read_section(&mut reader, TAG_MAP, decode_map)?;
        let pool = read_section(&mut reader, TAG_POOL, decode_pool)?;
        let monitor = read_section(&mut reader, TAG_MONITOR, decode_monitor)?;
        let schedule = read_section(&mut reader, TAG_SCHEDULE, decode_schedule)?;
        let completed = read_section(&mut reader, TAG_PROGRESS, Reader::u64)?;
        if !reader.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(Self {
            meta,
            completed,
            rng_state,
            map,
            pool,
            monitor,
            schedule,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a sibling
    /// `.tmp` file first and are renamed into place, so a crash mid-write
    /// can never leave a torn snapshot at `path`. A failed write removes
    /// its own temp file (best-effort); temps orphaned by a hard kill are
    /// swept by [`CheckpointConfig::prepare`] at the next startup.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomic(path, &self.encode()).map_err(SnapshotError::from)
    }

    /// Reads and decodes a snapshot file.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// Scans a rotation directory newest-first and restores the newest
    /// snapshot that still decodes, skipping truncated / bit-flipped /
    /// wrong-magic files (the trailing checksum rejects them). Returns
    /// `Ok(None)` when the directory is missing, empty, or holds no valid
    /// snapshot — the caller starts fresh.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures other than "not found".
    pub fn resume_latest(dir: &Path) -> Result<Option<Self>, SnapshotError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(SnapshotError::Io(err)),
        };
        let mut slots: Vec<(u64, std::path::PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if let Some(completed) = rotation_slot(&path) {
                slots.push((completed, path));
            }
        }
        slots.sort_unstable_by_key(|slot| std::cmp::Reverse(slot.0));
        for (_, path) in slots {
            if let Ok(snapshot) = Self::read_from(&path) {
                return Ok(Some(snapshot));
            }
        }
        Ok(None)
    }
}

/// The sibling temp file [`write_atomic`] stages `path`'s bytes in.
fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes `bytes` to `path` via [`temp_path`] plus `rename`, so `path` never
/// holds a torn write. A failed write or rename removes the temp file
/// (best-effort).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// The completed-execution index a rotation file name encodes, when `path`
/// names one (`ckpt-<completed>.peachsnp`).
fn rotation_slot(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("ckpt-")?
        .strip_suffix(".peachsnp")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Primitive writers.

pub(crate) fn put_u8(buf: &mut Vec<u8>, value: u8) {
    buf.push(value);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, text: &str) {
    put_bytes(buf, text.as_bytes());
}

pub(crate) fn put_section(out: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let mut payload = Vec::new();
    fill(&mut payload);
    put_u8(out, tag);
    put_bytes(out, &payload);
}

/// FNV-1a 64-bit over `bytes` — the corruption detector appended to every
/// snapshot (not a cryptographic integrity guarantee).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Primitive reader with truncation guards.

pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], SnapshotError> {
        if count > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let (taken, rest) = self.bytes.split_at(count);
        self.bytes = rest;
        Ok(taken)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length-prefixed byte string; the declared length is validated
    /// against the remaining input before anything is allocated, so corrupt
    /// lengths fail cleanly instead of attempting huge allocations.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt("length"))?;
        self.take(len)
    }

    pub(crate) fn string(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("utf-8 string"))
    }

    /// An element count for a list whose elements occupy at least
    /// `min_element_bytes` each — bounded by the remaining input, so a
    /// corrupt count cannot drive unbounded loops or allocations.
    pub(crate) fn count(&mut self, min_element_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.u64()?;
        let count = usize::try_from(count).map_err(|_| SnapshotError::Corrupt("count"))?;
        if count.saturating_mul(min_element_bytes.max(1)) > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        Ok(count)
    }
}

pub(crate) fn read_section<'a, T>(
    reader: &mut Reader<'a>,
    expected_tag: u8,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let tag = reader.u8()?;
    if tag != expected_tag {
        return Err(SnapshotError::Corrupt("section tag"));
    }
    let payload = reader.bytes()?;
    let mut section = Reader::new(payload);
    let value = parse(&mut section)?;
    if !section.is_empty() {
        return Err(SnapshotError::Corrupt("section length"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Section codecs.

pub(crate) fn strategy_tag(kind: StrategyKind) -> u8 {
    match kind {
        StrategyKind::Peach => 0,
        StrategyKind::PeachStar => 1,
    }
}

pub(crate) fn strategy_from_tag(tag: u8) -> Result<StrategyKind, SnapshotError> {
    match tag {
        0 => Ok(StrategyKind::Peach),
        1 => Ok(StrategyKind::PeachStar),
        _ => Err(SnapshotError::Corrupt("strategy kind")),
    }
}

pub(crate) fn put_option_u64(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(value) => {
            put_u8(buf, 1);
            put_u64(buf, value);
        }
        None => put_u8(buf, 0),
    }
}

pub(crate) fn read_option_u64(reader: &mut Reader<'_>) -> Result<Option<u64>, SnapshotError> {
    match reader.u8()? {
        0 => Ok(None),
        1 => Ok(Some(reader.u64()?)),
        _ => Err(SnapshotError::Corrupt("option flag")),
    }
}

fn encode_meta(buf: &mut Vec<u8>, meta: &SnapshotMeta) {
    put_str(buf, &meta.target);
    put_u8(buf, strategy_tag(meta.strategy));
    put_u64(buf, meta.executions);
    put_u64(buf, meta.rng_seed);
    put_u64(buf, meta.sample_interval);
    put_u64(buf, meta.reset_interval);
    match meta.session {
        Some((payload_packets, mask)) => {
            put_u8(buf, 1);
            put_u64(buf, payload_packets);
            put_u8(buf, mask);
        }
        None => put_u8(buf, 0),
    }
    put_option_u64(buf, meta.batch);
    put_option_u64(buf, meta.sync_windows);
}

fn decode_meta(reader: &mut Reader<'_>) -> Result<SnapshotMeta, SnapshotError> {
    let target = reader.string()?;
    let strategy = strategy_from_tag(reader.u8()?)?;
    let executions = reader.u64()?;
    let rng_seed = reader.u64()?;
    let sample_interval = reader.u64()?;
    let reset_interval = reader.u64()?;
    let session = match reader.u8()? {
        0 => None,
        1 => Some((reader.u64()?, reader.u8()?)),
        _ => return Err(SnapshotError::Corrupt("session flag")),
    };
    let batch = read_option_u64(reader)?;
    let sync_windows = read_option_u64(reader)?;
    Ok(SnapshotMeta {
        target,
        strategy,
        executions,
        rng_seed,
        sample_interval,
        reset_interval,
        session,
        batch,
        sync_windows,
    })
}

fn encode_map(buf: &mut Vec<u8>, map: &CoverageMap) {
    let slots: Vec<(usize, u8)> = map.covered_slots().collect();
    put_u64(buf, slots.len() as u64);
    for (slot, mask) in slots {
        put_u32(buf, slot as u32);
        put_u8(buf, mask);
    }
    let mut paths: Vec<u64> = map.path_ids().map(PathId::raw).collect();
    paths.sort_unstable();
    put_u64(buf, paths.len() as u64);
    for path in paths {
        put_u64(buf, path);
    }
    put_u64(buf, map.executions());
}

fn decode_map(reader: &mut Reader<'_>) -> Result<CoverageMap, SnapshotError> {
    let slot_count = reader.count(5)?;
    let mut slots = Vec::new();
    for _ in 0..slot_count {
        let slot = reader.u32()? as usize;
        let mask = reader.u8()?;
        if slot >= MAP_SIZE {
            return Err(SnapshotError::Corrupt("coverage slot"));
        }
        if mask == 0 {
            return Err(SnapshotError::Corrupt("empty bucket mask"));
        }
        slots.push((slot, mask));
    }
    let path_count = reader.count(8)?;
    let mut paths = Vec::new();
    for _ in 0..path_count {
        paths.push(PathId::new(reader.u64()?));
    }
    let executions = reader.u64()?;
    Ok(CoverageMap::from_parts(slots, paths, executions))
}

fn encode_seed(buf: &mut Vec<u8>, seed: &Seed) {
    put_bytes(buf, &seed.bytes);
    put_str(buf, &seed.model);
    put_u8(buf, u8::from(seed.semantic));
}

fn decode_seed(reader: &mut Reader<'_>) -> Result<Seed, SnapshotError> {
    let bytes = reader.bytes()?.to_vec();
    let model = reader.string()?;
    let semantic = match reader.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Corrupt("semantic flag")),
    };
    Ok(Seed {
        bytes,
        model,
        semantic,
    })
}

fn encode_pool(buf: &mut Vec<u8>, pool: &SeedPool) {
    put_u64(buf, pool.len() as u64);
    for valuable in pool.iter() {
        encode_seed(buf, &valuable.seed);
        put_u64(buf, valuable.path.raw());
        put_u64(buf, valuable.new_edges as u64);
    }
}

fn decode_pool(reader: &mut Reader<'_>) -> Result<SeedPool, SnapshotError> {
    let count = reader.count(8)?;
    let mut pool = SeedPool::new();
    for _ in 0..count {
        let seed = decode_seed(reader)?;
        let path = PathId::new(reader.u64()?);
        let new_edges = usize::try_from(reader.u64()?)
            .map_err(|_| SnapshotError::Corrupt("new_edges count"))?;
        pool.push(seed, path, new_edges);
    }
    Ok(pool)
}

pub(crate) fn fault_kind_tag(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::Segv => 0,
        FaultKind::HeapUseAfterFree => 1,
        FaultKind::HeapBufferOverflow => 2,
        FaultKind::Hang => 3,
        FaultKind::Panic => 4,
    }
}

pub(crate) fn fault_kind_from_tag(tag: u8) -> Result<FaultKind, SnapshotError> {
    match tag {
        0 => Ok(FaultKind::Segv),
        1 => Ok(FaultKind::HeapUseAfterFree),
        2 => Ok(FaultKind::HeapBufferOverflow),
        3 => Ok(FaultKind::Hang),
        4 => Ok(FaultKind::Panic),
        _ => Err(SnapshotError::Corrupt("fault kind")),
    }
}

// Decoded fault sites (runtime strings) are interned into `&'static str`
// via `peachstar_protocols::intern_site` — the same table the panic
// containment layer uses, so a site round-tripped through a snapshot stays
// pointer-identical to a freshly contained one.
use peachstar_protocols::intern_site;

fn encode_monitor(buf: &mut Vec<u8>, monitor: &MonitorState) {
    put_u64(buf, monitor.series.len() as u64);
    for point in &monitor.series {
        put_u64(buf, point.executions);
        put_u64(buf, point.paths as u64);
        put_u64(buf, point.edges as u64);
        put_u64(buf, point.faults as u64);
    }
    put_u64(buf, monitor.bugs.len() as u64);
    for bug in &monitor.bugs {
        put_u8(buf, fault_kind_tag(bug.fault.kind));
        put_str(buf, bug.fault.site);
        put_u64(buf, bug.first_execution);
        put_bytes(buf, &bug.packet);
        put_str(buf, &bug.model);
    }
    put_u64(buf, monitor.responses);
    put_u64(buf, monitor.protocol_errors);
    put_u64(buf, monitor.fault_hits);
}

fn decode_monitor(reader: &mut Reader<'_>) -> Result<MonitorState, SnapshotError> {
    let series_count = reader.count(32)?;
    let mut series = Vec::new();
    for _ in 0..series_count {
        let executions = reader.u64()?;
        let paths = usize::try_from(reader.u64()?)
            .map_err(|_| SnapshotError::Corrupt("series paths"))?;
        let edges = usize::try_from(reader.u64()?)
            .map_err(|_| SnapshotError::Corrupt("series edges"))?;
        let faults = usize::try_from(reader.u64()?)
            .map_err(|_| SnapshotError::Corrupt("series faults"))?;
        series.push(SeriesPoint {
            executions,
            paths,
            edges,
            faults,
        });
    }
    let bug_count = reader.count(8)?;
    let mut bugs = Vec::new();
    let mut seen_sites = HashSet::new();
    for _ in 0..bug_count {
        let kind = fault_kind_from_tag(reader.u8()?)?;
        let site = reader.string()?;
        let first_execution = reader.u64()?;
        let packet = reader.bytes()?.to_vec();
        let model = reader.string()?;
        let site = intern_site(&site);
        if !seen_sites.insert(site) {
            return Err(SnapshotError::Corrupt("duplicate bug site"));
        }
        bugs.push(BugRecord {
            fault: Fault::new(kind, site),
            first_execution,
            packet,
            model,
        });
    }
    let responses = reader.u64()?;
    let protocol_errors = reader.u64()?;
    let fault_hits = reader.u64()?;
    Ok(MonitorState {
        series,
        bugs,
        responses,
        protocol_errors,
        fault_hits,
    })
}

fn encode_corpus(buf: &mut Vec<u8>, corpus: &PuzzleCorpus) {
    put_u64(buf, corpus.capacity_per_rule() as u64);
    let mut rules: Vec<(RuleId, &[Arc<[u8]>])> = corpus.iter_rules().collect();
    rules.sort_unstable_by_key(|(rule, _)| rule.raw());
    put_u64(buf, rules.len() as u64);
    for (rule, donors) in rules {
        put_u64(buf, rule.raw());
        put_u64(buf, donors.len() as u64);
        for donor in donors {
            put_bytes(buf, donor);
        }
    }
    put_u64(buf, corpus.inserted());
    put_u64(buf, corpus.rejected_duplicates());
}

fn decode_corpus(reader: &mut Reader<'_>) -> Result<PuzzleCorpus, SnapshotError> {
    let capacity = reader.u64()?;
    let capacity = usize::try_from(capacity)
        .ok()
        .filter(|&capacity| capacity > 0)
        .ok_or(SnapshotError::Corrupt("corpus capacity"))?;
    let rule_count = reader.count(16)?;
    let mut entries = Vec::new();
    for _ in 0..rule_count {
        let rule = RuleId::from_raw(reader.u64()?);
        let donor_count = reader.count(8)?;
        let mut donors: Vec<Arc<[u8]>> = Vec::new();
        for _ in 0..donor_count {
            donors.push(Arc::from(reader.bytes()?));
        }
        if donors.len() > capacity {
            return Err(SnapshotError::Corrupt("rule over capacity"));
        }
        entries.push((rule, donors));
    }
    let inserted = reader.u64()?;
    let rejected_duplicates = reader.u64()?;
    Ok(PuzzleCorpus::from_snapshot_parts(
        capacity,
        entries,
        inserted,
        rejected_duplicates,
    ))
}

fn encode_schedule(buf: &mut Vec<u8>, state: &ScheduleState) {
    put_u64(buf, state.cursor);
    match &state.strategy {
        StrategyState::Stateless => put_u8(buf, 0),
        StrategyState::Peach { generated } => {
            put_u8(buf, 1);
            put_u64(buf, *generated);
        }
        StrategyState::PeachStar {
            corpus,
            queue,
            semantic_generated,
            random_generated,
        } => {
            put_u8(buf, 2);
            encode_corpus(buf, corpus);
            put_u64(buf, queue.len() as u64);
            for seed in queue {
                encode_seed(buf, seed);
            }
            put_u64(buf, *semantic_generated);
            put_u64(buf, *random_generated);
        }
    }
}

fn decode_schedule(reader: &mut Reader<'_>) -> Result<ScheduleState, SnapshotError> {
    let cursor = reader.u64()?;
    let strategy = match reader.u8()? {
        0 => StrategyState::Stateless,
        1 => StrategyState::Peach {
            generated: reader.u64()?,
        },
        2 => {
            let corpus = decode_corpus(reader)?;
            let queue_count = reader.count(17)?;
            let mut queue = Vec::new();
            for _ in 0..queue_count {
                queue.push(decode_seed(reader)?);
            }
            let semantic_generated = reader.u64()?;
            let random_generated = reader.u64()?;
            StrategyState::PeachStar {
                corpus,
                queue,
                semantic_generated,
                random_generated,
            }
        }
        _ => return Err(SnapshotError::Corrupt("strategy state")),
    };
    Ok(ScheduleState { cursor, strategy })
}

/// Where (and how often) a campaign writes checkpoints.
///
/// Two layouts:
///
/// * **single file** (`keep == None`): every checkpoint atomically replaces
///   `path` — the classic `--checkpoint run.snap` shape;
/// * **rotation** (`keep == Some(k)`): `path` is a directory; each
///   checkpoint lands as `ckpt-<completed>.peachsnp` (atomic temp + rename)
///   and the oldest slots beyond `k` are pruned, so a service always holds
///   its last `k` good boundaries and
///   [`CampaignSnapshot::resume_latest`] can recover from any prefix of
///   torn ones.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Snapshot file path (or rotation directory when `keep` is set).
    pub path: std::path::PathBuf,
    /// Write a checkpoint every this many completed windows (clamped to at
    /// least 1). A final checkpoint is always written when the budget
    /// completes, whatever the cadence.
    pub every_windows: u64,
    /// Rotation depth: keep this many newest snapshots in the `path`
    /// directory (`None` = the single-file layout).
    pub keep: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every_windows` windows.
    #[must_use]
    pub fn new(path: impl Into<std::path::PathBuf>, every_windows: u64) -> Self {
        Self {
            path: path.into(),
            every_windows: every_windows.max(1),
            keep: None,
        }
    }

    /// Switches to the rotation layout: `path` becomes a directory holding
    /// the `keep` newest snapshots (clamped to at least 1).
    #[must_use]
    pub fn rotation(mut self, keep: usize) -> Self {
        self.keep = Some(keep.max(1));
        self
    }

    /// Startup hygiene, run once before a campaign writes its first
    /// checkpoint: creates the rotation directory and sweeps the temp files
    /// a previous hard kill mid-write orphaned — only names
    /// [`CampaignSnapshot::write_atomic`] stages in: `<path>.tmp` in the
    /// single-file layout, `ckpt-*.peachsnp.tmp` in a rotation.
    ///
    /// # Errors
    ///
    /// Propagates rotation-directory creation failures; temp removal is
    /// best-effort.
    pub fn prepare(&self) -> Result<(), SnapshotError> {
        if self.keep.is_none() {
            std::fs::remove_file(temp_path(&self.path)).ok();
            return Ok(());
        }
        std::fs::create_dir_all(&self.path)?;
        if let Ok(entries) = std::fs::read_dir(&self.path) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|ext| ext == "tmp")
                    && rotation_slot(&path.with_extension("")).is_some()
                {
                    std::fs::remove_file(&path).ok();
                }
            }
        }
        Ok(())
    }

    /// Persists one checkpoint: atomically replaces the single file, or
    /// writes the rotation slot for `snapshot.completed` and prunes slots
    /// beyond the rotation depth.
    ///
    /// # Errors
    ///
    /// Propagates snapshot write failures; pruning is best-effort.
    pub fn store(&self, snapshot: &CampaignSnapshot) -> Result<(), SnapshotError> {
        let Some(keep) = self.keep else {
            return snapshot.write_atomic(&self.path);
        };
        let slot = self.path.join(format!("ckpt-{:012}.peachsnp", snapshot.completed));
        snapshot.write_atomic(&slot)?;
        let mut slots: Vec<(u64, std::path::PathBuf)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.path) {
            for entry in entries.flatten() {
                let path = entry.path();
                if let Some(completed) = rotation_slot(&path) {
                    slots.push((completed, path));
                }
            }
        }
        slots.sort_unstable_by_key(|slot| std::cmp::Reverse(slot.0));
        for (_, stale) in slots.into_iter().skip(keep) {
            std::fs::remove_file(&stale).ok();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SeriesPoint;

    fn sample_meta() -> SnapshotMeta {
        SnapshotMeta {
            target: "libmodbus".into(),
            strategy: StrategyKind::PeachStar,
            executions: 3_000,
            rng_seed: 3,
            sample_interval: 200,
            reset_interval: 250,
            session: Some((4, 0b010)),
            batch: Some(64),
            sync_windows: None,
        }
    }

    fn sample_snapshot() -> CampaignSnapshot {
        let mut corpus = PuzzleCorpus::with_capacity_per_rule(4);
        corpus.insert(peachstar_datamodel::Puzzle::new(
            RuleId::from_raw(7),
            "field",
            vec![0xBE, 0xEF],
        ));
        let mut pool = SeedPool::new();
        pool.push(Seed::new(vec![1, 2, 3], "echo", true), PathId::new(11), 2);
        let map = CoverageMap::from_parts(
            vec![(3, 0b1), (70_000 % MAP_SIZE, 0b101)],
            vec![PathId::new(11), PathId::new(4)],
            123,
        );
        CampaignSnapshot {
            meta: sample_meta(),
            completed: 250,
            rng_state: [1, 2, 3, 4],
            map,
            pool,
            monitor: MonitorState {
                series: vec![SeriesPoint {
                    executions: 200,
                    paths: 5,
                    edges: 9,
                    faults: 1,
                }],
                bugs: vec![BugRecord {
                    fault: Fault::new(FaultKind::Segv, "modbus.c:fc8"),
                    first_execution: 77,
                    packet: vec![9, 9],
                    model: "echo".into(),
                }],
                responses: 100,
                protocol_errors: 99,
                fault_hits: 1,
            },
            schedule: ScheduleState {
                cursor: 0,
                strategy: StrategyState::PeachStar {
                    corpus,
                    queue: vec![Seed::new(vec![4], "echo", true)],
                    semantic_generated: 10,
                    random_generated: 240,
                },
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.encode();
        let decoded = CampaignSnapshot::decode(&bytes).expect("decodes");
        assert_eq!(decoded.meta, snapshot.meta);
        assert_eq!(decoded.completed, snapshot.completed);
        assert_eq!(decoded.rng_state, snapshot.rng_state);
        assert_eq!(decoded.monitor, snapshot.monitor);
        assert_eq!(decoded.schedule, snapshot.schedule);
        assert_eq!(decoded.pool.seeds(), snapshot.pool.seeds());
        assert_eq!(decoded.pool.total_bytes(), snapshot.pool.total_bytes());
        // Canonical: re-encoding the decoded snapshot reproduces the bytes.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            CampaignSnapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn decode_rejects_unsupported_version() {
        let mut bytes = sample_snapshot().encode();
        // Bump the version field, then re-stamp the checksum so the version
        // check (not the checksum) is what fires.
        bytes[8] = 0xFF;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&checksum);
        assert!(matches!(
            CampaignSnapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn decode_rejects_corruption_and_truncation_without_panicking() {
        let bytes = sample_snapshot().encode();
        for len in 0..bytes.len() {
            assert!(
                CampaignSnapshot::decode(&bytes[..len]).is_err(),
                "truncation at {len} must error"
            );
        }
        for index in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[index] ^= 0x5A;
            assert!(
                CampaignSnapshot::decode(&corrupted).is_err(),
                "corruption at byte {index} must error"
            );
        }
    }

    #[test]
    fn meta_mismatch_names_the_field() {
        let meta = sample_meta();
        let mut other = meta.clone();
        other.rng_seed += 1;
        match meta.ensure_matches(&other) {
            Err(SnapshotError::Mismatch(field)) => assert_eq!(field, "rng_seed"),
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert!(meta.ensure_matches(&meta.clone()).is_ok());
    }

    #[test]
    fn operational_knobs_stay_out_of_the_fingerprint() {
        // Service and transport-recovery flags must never fence a resume:
        // configs differing only in reconnect schedule, wire chaos, exec
        // timeout or transport fingerprint identically (the rotation depth
        // and `--control` address never even reach the config).
        use crate::campaign::{CampaignConfig, ReconnectPolicy, TransportMode};
        use crate::strategy::StrategyKind;
        let base = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(2_000)
            .rng_seed(9);
        let baseline = SnapshotMeta::for_campaign("libmodbus", &base);
        let variants = [
            base.reconnect(ReconnectPolicy::none()),
            base.reconnect(ReconnectPolicy::immediate(7)),
            base.wire_chaos(peachstar_protocols::WireChaos::drop_every(5).reject_after_drop(3)),
            base.transport(TransportMode::FramedTcp),
            base.exec_timeout_ms(50),
        ];
        for (index, variant) in variants.iter().enumerate() {
            let meta = SnapshotMeta::for_campaign("libmodbus", variant);
            assert_eq!(
                meta, baseline,
                "variant {index} must fingerprint identically"
            );
            assert!(baseline.ensure_matches(&meta).is_ok());
        }
        // Sanity: a knob that IS campaign semantics still fences.
        let different = SnapshotMeta::for_campaign("libmodbus", &base.executions(2_001));
        assert!(baseline.ensure_matches(&different).is_err());
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join("peachstar-snapshot-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("atomic_write_and_read_back.snap");
        let snapshot = sample_snapshot();
        snapshot.write_atomic(&path).expect("write");
        let read = CampaignSnapshot::read_from(&path).expect("read");
        assert_eq!(read.encode(), snapshot.encode());
        std::fs::remove_file(&path).ok();
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "peachstar-snapshot-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn rotation_keeps_newest_slots_and_resume_latest_picks_the_top() {
        let dir = scratch_dir("rotation");
        let config = CheckpointConfig::new(&dir, 1).rotation(2);
        config.prepare().expect("prepare");
        let mut snapshot = sample_snapshot();
        for completed in [250u64, 500, 750, 1_000] {
            snapshot.completed = completed;
            config.store(&snapshot).expect("store");
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["ckpt-000000000750.peachsnp", "ckpt-000000001000.peachsnp"],
            "only the two newest slots survive"
        );
        let restored = CampaignSnapshot::resume_latest(&dir)
            .expect("scan")
            .expect("a valid snapshot");
        assert_eq!(restored.completed, 1_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_latest_skips_corrupt_slots_and_tolerates_missing_dirs() {
        let dir = scratch_dir("fallback");
        assert!(
            CampaignSnapshot::resume_latest(&dir).expect("missing dir is fine").is_none(),
            "a missing rotation directory means a fresh start"
        );
        let config = CheckpointConfig::new(&dir, 1).rotation(4);
        config.prepare().expect("prepare");
        let mut snapshot = sample_snapshot();
        snapshot.completed = 250;
        config.store(&snapshot).expect("store");
        // Newer slots exist but are torn: one truncated, one bit-flipped,
        // one with the wrong magic. resume_latest must skip all three.
        let good = snapshot.encode();
        std::fs::write(dir.join("ckpt-000000000500.peachsnp"), &good[..good.len() / 2])
            .expect("truncated slot");
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        std::fs::write(dir.join("ckpt-000000000750.peachsnp"), &flipped).expect("flipped slot");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(dir.join("ckpt-000000001000.peachsnp"), &bad_magic)
            .expect("bad-magic slot");
        let restored = CampaignSnapshot::resume_latest(&dir)
            .expect("scan")
            .expect("falls back to the valid slot");
        assert_eq!(restored.completed, 250);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepare_sweeps_stale_temp_files() {
        // Single-file layout: a `.tmp` orphaned beside the checkpoint path
        // by a kill mid-write is swept at the next startup.
        let dir = scratch_dir("stale-temps");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("run.snap");
        let stale = dir.join("run.snap.tmp");
        std::fs::write(&stale, b"torn half-write").expect("stale temp");
        // A temp file the checkpoint never wrote must survive the sweep.
        let unrelated = dir.join("notes.tmp");
        std::fs::write(&unrelated, b"operator notes").expect("unrelated temp");
        CheckpointConfig::new(&path, 1).prepare().expect("prepare");
        assert!(!stale.exists(), "single-file prepare removes the orphan");
        assert!(unrelated.exists(), "single-file prepare keeps notes.tmp");

        // Rotation layout: same sweep inside the rotation directory.
        let rotation = dir.join("rotation");
        let config = CheckpointConfig::new(&rotation, 1).rotation(2);
        config.prepare().expect("create rotation dir");
        let stale = rotation.join("ckpt-000000000250.peachsnp.tmp");
        std::fs::write(&stale, b"torn").expect("stale temp");
        let unrelated = rotation.join("notes.tmp");
        std::fs::write(&unrelated, b"operator notes").expect("unrelated temp");
        config.prepare().expect("prepare again");
        assert!(!stale.exists(), "rotation prepare removes the orphan");
        assert!(unrelated.exists(), "rotation prepare keeps notes.tmp");
        std::fs::remove_dir_all(&dir).ok();
    }
}

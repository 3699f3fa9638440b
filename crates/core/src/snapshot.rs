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
//! magic "PEACHSNP" (8 bytes) | version u32 LE (2)
//! sections, each:  tag u8 | payload length | payload
//!   1 META      target, strategy, budget, seed, intervals, session/batch/shards shape
//!   2 RNG       4 × u64 LE xoshiro256++ state words
//!   3 MAP       ascending (slot, mask u8) pairs | ascending path ids u64 LE | executions
//!   4 POOL      valuable seeds (bytes, model, semantic, path u64 LE, new_edges)
//!   5 MONITOR   series runs | bug records | outcome tallies
//!   6 SCHEDULE  session cursor | strategy state (incl. the puzzle corpus,
//!               by ascending rule id u64 LE)
//!   7 PROGRESS  completed executions (always a window boundary)
//! checksum u64 LE: FNV-1a 64 over everything above, taken as little-endian
//!   8-byte words, then the tail bytes one at a time
//! ```
//!
//! Path ids, rule ids and the RNG words are uniform 64-bit values and stay
//! fixed-width. Every other integer, and every length and count, is a
//! minimal LEB128 varint. The series is a count of runs, each a point count
//! plus one zig-zag delta per field of (executions, paths, edges, faults):
//! the run stands for that many consecutive points, each that delta past
//! the one before it (the first past zero). A series sampled at a fixed
//! interval grows by the same step for long stretches, so a 16,000-point
//! series takes about 2,000 runs.
//!
//! The encoding is canonical: the same state always produces the same
//! bytes. Hash-map/-set contents (path ids, corpus rules) are sorted before
//! encoding, and the decoder accepts exactly one encoding of each state. It
//! rejects overlong varints, varints wider than 64 bits, empty series runs,
//! adjacent runs with equal deltas, empty donor lists, and slots, path ids
//! and rule ids that are not strictly ascending, so any input it accepts
//! re-encodes to the same bytes. Decoding validates the magic, the version,
//! every length and count against the remaining input, the series' point
//! count against the META section's budget (at most
//! `executions / sample_interval + 1`, the monitor's sampling rule), and the
//! trailing checksum, all before allocating, and returns a typed
//! [`SnapshotError`] — never a panic — on truncated, corrupted or
//! wrong-version input.
//!
//! The word-wise checksum still changes whenever any single word of the
//! body changes: each step `(hash ^ word) · prime` is a bijection of the
//! running hash. It hashes a snapshot about 8× faster than byte-wise FNV-1a.
//!
//! Only version 2 decodes. A version-1 checkpoint (fixed-width lengths and
//! counts, the series as raw `u64`s, a byte-wise FNV-1a checksum) is
//! reported as [`SnapshotError::UnsupportedVersion`]`(1)` and does not
//! resume; [`CampaignSnapshot::resume_latest`] skips it.
//!
//! A periodic checkpoint never builds a [`CampaignSnapshot`]: the campaign
//! encodes its live engine straight into a buffer it reuses, through the
//! same encoder that [`CampaignSnapshot::encode`] runs.
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
pub const VERSION: u32 = 2;

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

    /// The most series points a campaign of this shape can hold: one per
    /// `sample_interval` executions plus the final one (the monitor's
    /// sampling rule), which bounds a decoded series before it allocates.
    fn max_series_points(&self) -> u64 {
        (self.executions / self.sample_interval.max(1)).saturating_add(1)
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
        SnapshotView {
            meta: &self.meta,
            completed: self.completed,
            rng_state: self.rng_state,
            map: &self.map,
            pool: &self.pool,
            series: &self.monitor.series,
            bugs: &self.monitor.bugs,
            tallies: [
                self.monitor.responses,
                self.monitor.protocol_errors,
                self.monitor.fault_hits,
            ],
            schedule: &self.schedule,
        }
        .encode_into(&mut out);
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
        let mut reader = Reader::new(&body[MAGIC.len()..]);
        // The version comes before the checksum, whose algorithm it names:
        // an older checkpoint is reported by version, not as corrupt.
        let version = reader.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if checksum(body) != stored {
            return Err(SnapshotError::Corrupt("checksum"));
        }
        let meta = read_section(&mut reader, TAG_META, decode_meta)?;
        let rng_state = read_section(&mut reader, TAG_RNG, |r| {
            Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
        })?;
        let map = read_section(&mut reader, TAG_MAP, decode_map)?;
        let pool = read_section(&mut reader, TAG_POOL, decode_pool)?;
        let monitor = read_section(&mut reader, TAG_MONITOR, |r| {
            decode_monitor(r, meta.max_series_points())
        })?;
        let schedule = read_section(&mut reader, TAG_SCHEDULE, decode_schedule)?;
        let completed = read_section(&mut reader, TAG_PROGRESS, Reader::varint)?;
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
    /// wrong-magic / older-version files. Returns `Ok(None)` when the
    /// directory is missing, empty, or holds no valid snapshot — the caller
    /// starts fresh.
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

/// Everything a snapshot holds, borrowed: what the encoder reads.
/// [`CampaignSnapshot::encode`] views an owned snapshot and
/// `Engine::encode_checkpoint` the live engine, so both write the same
/// bytes through one encoder, and a periodic checkpoint clones nothing but
/// the strategy state.
pub(crate) struct SnapshotView<'a> {
    pub(crate) meta: &'a SnapshotMeta,
    pub(crate) completed: u64,
    pub(crate) rng_state: [u64; 4],
    pub(crate) map: &'a CoverageMap,
    pub(crate) pool: &'a SeedPool,
    pub(crate) series: &'a [SeriesPoint],
    pub(crate) bugs: &'a [BugRecord],
    /// Responses, protocol errors and fault hits.
    pub(crate) tallies: [u64; 3],
    pub(crate) schedule: &'a ScheduleState,
}

impl SnapshotView<'_> {
    /// Replaces `out`'s contents with the encoded snapshot, reusing its
    /// capacity.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&MAGIC);
        put_u32(out, VERSION);
        put_section(out, TAG_META, |out| encode_meta(out, self.meta));
        put_section(out, TAG_RNG, |out| {
            for word in self.rng_state {
                put_u64(out, word);
            }
        });
        put_section(out, TAG_MAP, |out| encode_map(out, self.map));
        put_section(out, TAG_POOL, |out| encode_pool(out, self.pool));
        put_section(out, TAG_MONITOR, |out| {
            encode_series(out, self.series);
            encode_bugs(out, self.bugs);
            for tally in self.tallies {
                put_varint(out, tally);
            }
        });
        put_section(out, TAG_SCHEDULE, |out| encode_schedule(out, self.schedule));
        put_section(out, TAG_PROGRESS, |out| put_varint(out, self.completed));
        let checksum = checksum(out);
        put_u64(out, checksum);
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

/// Writes `value` as a minimal LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last.
fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

fn put_len(buf: &mut Vec<u8>, len: usize) {
    put_varint(buf, len as u64);
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_len(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

fn put_str(buf: &mut Vec<u8>, text: &str) {
    put_bytes(buf, text.as_bytes());
}

fn put_option(buf: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(value) => {
            put_u8(buf, 1);
            put_varint(buf, value);
        }
        None => put_u8(buf, 0),
    }
}

/// Writes one section: `tag`, then the length of what `fill` appends, then
/// that payload. The payload is written in place and shifted up by the
/// length's width afterwards, so no section needs a buffer of its own.
fn put_section(out: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u8(out, tag);
    let start = out.len();
    fill(out);
    let end = out.len();
    put_len(out, end - start);
    let width = out.len() - end;
    out[start..].rotate_right(width);
}

/// Maps a signed delta onto the unsigned varint range, small magnitudes to
/// small values: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
fn zigzag(delta: u64) -> u64 {
    let delta = delta as i64;
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// The inverse of [`zigzag`], as a wrapping delta.
fn unzigzag(value: u64) -> u64 {
    (value >> 1) ^ (value & 1).wrapping_neg()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The trailing checksum: FNV-1a 64 over `bytes` taken as little-endian
/// 8-byte words, then over the tail bytes one at a time. A corruption
/// detector, not a cryptographic integrity guarantee.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
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

    pub(crate) fn take(&mut self, count: usize) -> Result<&'a [u8], SnapshotError> {
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

    /// A minimal LEB128 varint of at most 64 bits. A final zero byte after
    /// the first (an overlong encoding) and bits past the 64th are corrupt,
    /// so every value has exactly one accepted encoding.
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(SnapshotError::Corrupt("overlong varint"));
                }
                return Ok(value);
            }
        }
        Err(SnapshotError::Corrupt("varint wider than 64 bits"))
    }

    /// A varint that must fit a `usize`.
    fn usize(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        usize::try_from(self.varint()?).map_err(|_| SnapshotError::Corrupt(what))
    }

    /// A length-prefixed byte string; the declared length is validated
    /// against the remaining input before anything is allocated, so corrupt
    /// lengths fail cleanly instead of attempting huge allocations.
    fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize("length")?;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("utf-8 string"))
    }

    /// A 0/1 flag byte.
    fn flag(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt(what)),
        }
    }

    fn option(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.flag("option flag")? {
            Some(self.varint()?)
        } else {
            None
        })
    }

    /// An element count for a list whose elements occupy at least
    /// `min_element_bytes` each — bounded by the remaining input, so a
    /// corrupt count cannot drive unbounded loops or allocations.
    fn count(&mut self, min_element_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.usize("count")?;
        if count.saturating_mul(min_element_bytes.max(1)) > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        Ok(count)
    }
}

/// Rejects `value` unless it is strictly above the previous one, then
/// makes it the previous one: sorted, duplicate-free lists have exactly one
/// encoding.
fn ascending(
    previous: &mut Option<u64>,
    value: u64,
    what: &'static str,
) -> Result<(), SnapshotError> {
    if previous.is_some_and(|previous| value <= previous) {
        return Err(SnapshotError::Corrupt(what));
    }
    *previous = Some(value);
    Ok(())
}

fn read_section<'a, T>(
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

fn encode_meta(buf: &mut Vec<u8>, meta: &SnapshotMeta) {
    put_str(buf, &meta.target);
    put_u8(buf, strategy_tag(meta.strategy));
    for value in [
        meta.executions,
        meta.rng_seed,
        meta.sample_interval,
        meta.reset_interval,
    ] {
        put_varint(buf, value);
    }
    match meta.session {
        Some((payload_packets, mask)) => {
            put_u8(buf, 1);
            put_varint(buf, payload_packets);
            put_u8(buf, mask);
        }
        None => put_u8(buf, 0),
    }
    put_option(buf, meta.batch);
    put_option(buf, meta.sync_windows);
}

fn decode_meta(reader: &mut Reader<'_>) -> Result<SnapshotMeta, SnapshotError> {
    let target = reader.string()?;
    let strategy = strategy_from_tag(reader.u8()?)?;
    let executions = reader.varint()?;
    let rng_seed = reader.varint()?;
    let sample_interval = reader.varint()?;
    let reset_interval = reader.varint()?;
    let session = if reader.flag("session flag")? {
        Some((reader.varint()?, reader.u8()?))
    } else {
        None
    };
    let batch = reader.option()?;
    let sync_windows = reader.option()?;
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
    // `edges_covered` is the number of covered slots, so the count needs no
    // second scan of the map.
    debug_assert_eq!(map.covered_slots().count(), map.edges_covered());
    put_len(buf, map.edges_covered());
    for (slot, mask) in map.covered_slots() {
        put_varint(buf, slot as u64);
        put_u8(buf, mask);
    }
    let mut paths: Vec<u64> = map.path_ids().map(PathId::raw).collect();
    paths.sort_unstable();
    put_len(buf, paths.len());
    for path in paths {
        put_u64(buf, path);
    }
    put_varint(buf, map.executions());
}

fn decode_map(reader: &mut Reader<'_>) -> Result<CoverageMap, SnapshotError> {
    let slot_count = reader.count(2)?;
    let mut slots = Vec::with_capacity(slot_count);
    let mut previous = None;
    for _ in 0..slot_count {
        let slot = reader.varint()?;
        let mask = reader.u8()?;
        ascending(&mut previous, slot, "coverage slots out of order")?;
        if slot >= MAP_SIZE as u64 {
            return Err(SnapshotError::Corrupt("coverage slot"));
        }
        if mask == 0 {
            return Err(SnapshotError::Corrupt("empty bucket mask"));
        }
        slots.push((slot as usize, mask));
    }
    let path_count = reader.count(8)?;
    let mut paths = Vec::with_capacity(path_count);
    let mut previous = None;
    for _ in 0..path_count {
        let path = reader.u64()?;
        ascending(&mut previous, path, "path ids out of order")?;
        paths.push(PathId::new(path));
    }
    let executions = reader.varint()?;
    Ok(CoverageMap::from_parts(slots, paths, executions))
}

fn encode_seed(buf: &mut Vec<u8>, seed: &Seed) {
    put_bytes(buf, &seed.bytes);
    put_str(buf, &seed.model);
    put_u8(buf, u8::from(seed.semantic));
}

/// The fewest bytes an encoded seed takes: two empty strings and a flag.
const MIN_SEED_BYTES: usize = 3;

fn decode_seed(reader: &mut Reader<'_>) -> Result<Seed, SnapshotError> {
    let bytes = reader.bytes()?.to_vec();
    let model = reader.string()?;
    let semantic = reader.flag("semantic flag")?;
    Ok(Seed {
        bytes,
        model,
        semantic,
    })
}

fn encode_pool(buf: &mut Vec<u8>, pool: &SeedPool) {
    put_len(buf, pool.len());
    for valuable in pool.iter() {
        encode_seed(buf, &valuable.seed);
        put_u64(buf, valuable.path.raw());
        put_len(buf, valuable.new_edges);
    }
}

fn decode_pool(reader: &mut Reader<'_>) -> Result<SeedPool, SnapshotError> {
    let count = reader.count(MIN_SEED_BYTES + 8 + 1)?;
    let mut pool = SeedPool::new();
    for _ in 0..count {
        let seed = decode_seed(reader)?;
        let path = PathId::new(reader.u64()?);
        let new_edges = reader.usize("new_edges count")?;
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

/// Calls `run` with every run of equal steps in `series`: the number of
/// points in the run and their common step past the point before (the
/// first point's past zero), per field, as wrapping differences.
fn for_each_run(series: &[SeriesPoint], mut run: impl FnMut(u64, [u64; 4])) {
    let mut previous = [0u64; 4];
    let mut current: Option<(u64, [u64; 4])> = None;
    for point in series {
        let fields = [
            point.executions,
            point.paths as u64,
            point.edges as u64,
            point.faults as u64,
        ];
        let mut step = [0u64; 4];
        for (step, (field, previous)) in step.iter_mut().zip(fields.iter().zip(previous)) {
            *step = field.wrapping_sub(previous);
        }
        previous = fields;
        match &mut current {
            Some((len, current_step)) if *current_step == step => *len += 1,
            _ => {
                if let Some((len, step)) = current {
                    run(len, step);
                }
                current = Some((1, step));
            }
        }
    }
    if let Some((len, step)) = current {
        run(len, step);
    }
}

fn encode_series(buf: &mut Vec<u8>, series: &[SeriesPoint]) {
    let mut runs = 0;
    for_each_run(series, |_, _| runs += 1);
    put_len(buf, runs);
    for_each_run(series, |len, step| {
        put_varint(buf, len);
        for field in step {
            put_varint(buf, zigzag(field));
        }
    });
}

/// Decodes the series runs, rejecting a series of more than `max_points`
/// points before allocating room for it.
fn decode_series(
    reader: &mut Reader<'_>,
    max_points: u64,
) -> Result<Vec<SeriesPoint>, SnapshotError> {
    let runs = reader.count(5)?;
    let mut series: Vec<SeriesPoint> = Vec::new();
    let mut fields = [0u64; 4];
    let mut last_step = None;
    for _ in 0..runs {
        let len = reader.varint()?;
        let mut step = [0u64; 4];
        for field in &mut step {
            *field = unzigzag(reader.varint()?);
        }
        if len == 0 {
            return Err(SnapshotError::Corrupt("empty series run"));
        }
        if last_step == Some(step) {
            return Err(SnapshotError::Corrupt("series run split in two"));
        }
        last_step = Some(step);
        if len > max_points - series.len() as u64 {
            return Err(SnapshotError::Corrupt("series over budget"));
        }
        let len = usize::try_from(len).map_err(|_| SnapshotError::Corrupt("series run"))?;
        series
            .try_reserve(len)
            .map_err(|_| SnapshotError::Corrupt("series run"))?;
        for _ in 0..len {
            for (field, step) in fields.iter_mut().zip(step) {
                *field = field.wrapping_add(step);
            }
            let [executions, paths, edges, faults] = fields;
            let count = |value: u64| {
                usize::try_from(value).map_err(|_| SnapshotError::Corrupt("series count"))
            };
            series.push(SeriesPoint {
                executions,
                paths: count(paths)?,
                edges: count(edges)?,
                faults: count(faults)?,
            });
        }
    }
    Ok(series)
}

fn encode_bugs(buf: &mut Vec<u8>, bugs: &[BugRecord]) {
    put_len(buf, bugs.len());
    for bug in bugs {
        put_u8(buf, fault_kind_tag(bug.fault.kind));
        put_str(buf, bug.fault.site);
        put_varint(buf, bug.first_execution);
        put_bytes(buf, &bug.packet);
        put_str(buf, &bug.model);
    }
}

fn decode_monitor(
    reader: &mut Reader<'_>,
    max_series_points: u64,
) -> Result<MonitorState, SnapshotError> {
    let series = decode_series(reader, max_series_points)?;
    let bug_count = reader.count(5)?;
    let mut bugs = Vec::with_capacity(bug_count);
    let mut seen_sites = HashSet::new();
    for _ in 0..bug_count {
        let kind = fault_kind_from_tag(reader.u8()?)?;
        let site = reader.string()?;
        let first_execution = reader.varint()?;
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
    Ok(MonitorState {
        series,
        bugs,
        responses: reader.varint()?,
        protocol_errors: reader.varint()?,
        fault_hits: reader.varint()?,
    })
}

fn encode_corpus(buf: &mut Vec<u8>, corpus: &PuzzleCorpus) {
    put_len(buf, corpus.capacity_per_rule());
    let mut rules: Vec<(RuleId, &[Arc<[u8]>])> = corpus.iter_rules().collect();
    rules.sort_unstable_by_key(|(rule, _)| rule.raw());
    put_len(buf, rules.len());
    for (rule, donors) in rules {
        put_u64(buf, rule.raw());
        put_len(buf, donors.len());
        for donor in donors {
            put_bytes(buf, donor);
        }
    }
    put_varint(buf, corpus.inserted());
    put_varint(buf, corpus.rejected_duplicates());
}

fn decode_corpus(reader: &mut Reader<'_>) -> Result<PuzzleCorpus, SnapshotError> {
    let capacity = Some(reader.usize("corpus capacity")?)
        .filter(|&capacity| capacity > 0)
        .ok_or(SnapshotError::Corrupt("corpus capacity"))?;
    let rule_count = reader.count(8 + 1 + 1)?;
    let mut entries = Vec::with_capacity(rule_count);
    let mut previous = None;
    for _ in 0..rule_count {
        let rule = reader.u64()?;
        ascending(&mut previous, rule, "corpus rules out of order")?;
        let donor_count = reader.count(1)?;
        if donor_count == 0 {
            return Err(SnapshotError::Corrupt("rule without donors"));
        }
        if donor_count > capacity {
            return Err(SnapshotError::Corrupt("rule over capacity"));
        }
        let mut donors: Vec<Arc<[u8]>> = Vec::with_capacity(donor_count);
        for _ in 0..donor_count {
            donors.push(Arc::from(reader.bytes()?));
        }
        entries.push((RuleId::from_raw(rule), donors));
    }
    let inserted = reader.varint()?;
    let rejected_duplicates = reader.varint()?;
    Ok(PuzzleCorpus::from_snapshot_parts(
        capacity,
        entries,
        inserted,
        rejected_duplicates,
    ))
}

fn encode_schedule(buf: &mut Vec<u8>, state: &ScheduleState) {
    put_varint(buf, state.cursor);
    match &state.strategy {
        StrategyState::Stateless => put_u8(buf, 0),
        StrategyState::Peach { generated } => {
            put_u8(buf, 1);
            put_varint(buf, *generated);
        }
        StrategyState::PeachStar {
            corpus,
            queue,
            semantic_generated,
            random_generated,
        } => {
            put_u8(buf, 2);
            encode_corpus(buf, corpus);
            put_len(buf, queue.len());
            for seed in queue {
                encode_seed(buf, seed);
            }
            put_varint(buf, *semantic_generated);
            put_varint(buf, *random_generated);
        }
    }
}

fn decode_schedule(reader: &mut Reader<'_>) -> Result<ScheduleState, SnapshotError> {
    let cursor = reader.varint()?;
    let strategy = match reader.u8()? {
        0 => StrategyState::Stateless,
        1 => StrategyState::Peach {
            generated: reader.varint()?,
        },
        2 => {
            let corpus = decode_corpus(reader)?;
            let queue_count = reader.count(MIN_SEED_BYTES)?;
            let mut queue = Vec::with_capacity(queue_count);
            for _ in 0..queue_count {
                queue.push(decode_seed(reader)?);
            }
            StrategyState::PeachStar {
                corpus,
                queue,
                semantic_generated: reader.varint()?,
                random_generated: reader.varint()?,
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
        self.store_encoded(snapshot.completed, &snapshot.encode())
    }

    /// [`store`](CheckpointConfig::store) for a checkpoint already encoded
    /// into `bytes`, taken after `completed` executions.
    pub(crate) fn store_encoded(&self, completed: u64, bytes: &[u8]) -> Result<(), SnapshotError> {
        let Some(keep) = self.keep else {
            return Ok(write_atomic(&self.path, bytes)?);
        };
        let slot = self.path.join(format!("ckpt-{completed:012}.peachsnp"));
        write_atomic(&slot, bytes)?;
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
        let checksum = checksum(&bytes[..body_len]).to_le_bytes();
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

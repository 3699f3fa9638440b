//! Property tests for the snapshot wire format: arbitrary campaign states
//! must survive encode → decode bit-exactly, and damaged bytes — truncated,
//! flipped, wrong-version, wrong-magic — must be rejected with a typed
//! error, never a panic.
//!
//! The vendored proptest only draws flat integer vectors, so each property
//! consumes a `Vec<u64>` entropy pool through the [`Draw`] cursor and builds
//! a structured [`CampaignSnapshot`] from it deterministically.

use proptest::prelude::*;

use peachstar::campaign::BugRecord;
use peachstar::engine::{MonitorState, ScheduleState};
use peachstar::snapshot::{CampaignSnapshot, SnapshotError, SnapshotMeta, MAGIC, VERSION};
use peachstar::strategy::{StrategyKind, StrategyState};
use peachstar::{PuzzleCorpus, Seed, SeedPool, SeriesPoint};
use peachstar_coverage::{CoverageMap, PathId, MAP_SIZE};
use peachstar_datamodel::{Puzzle, RuleId};
use peachstar_protocols::{Fault, FaultKind};

/// Cursor over a proptest-drawn entropy pool; cycles when exhausted so any
/// non-empty `Vec<u64>` can feed an arbitrarily shaped snapshot.
struct Draw {
    words: Vec<u64>,
    at: usize,
}

impl Draw {
    fn new(words: Vec<u64>) -> Self {
        assert!(!words.is_empty());
        Self { words, at: 0 }
    }

    fn next(&mut self) -> u64 {
        let word = self.words[self.at % self.words.len()];
        self.at += 1;
        // Decorrelate wrap-around passes so a short pool still produces
        // varied fields (splitmix64 finalizer).
        let mut z = word.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.at as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn seed(&mut self) -> Seed {
        const MODELS: [&str; 3] = ["modbus/read", "iec104/asdu", "dnp3/frame"];
        let model = MODELS[self.below(MODELS.len() as u64) as usize];
        Seed::new(self.bytes(24), model, self.flag())
    }
}

const BUG_SITES: [&str; 6] = [
    "parse_header",
    "decode_asdu",
    "copy_payload",
    "session_teardown",
    "crc_check",
    "reassembly",
];

fn arbitrary_corpus(draw: &mut Draw) -> PuzzleCorpus {
    let capacity = self::capacity(draw);
    let mut corpus = PuzzleCorpus::with_capacity_per_rule(capacity);
    for _ in 0..draw.below(12) {
        let rule = RuleId::from_raw(draw.below(20));
        let mut content = draw.bytes(8);
        content.push(draw.next() as u8); // never empty
        corpus.insert(Puzzle::new(rule, "prop", content));
    }
    corpus
}

fn capacity(draw: &mut Draw) -> usize {
    draw.below(8) as usize + 1
}

fn arbitrary_snapshot(draw: &mut Draw) -> CampaignSnapshot {
    const TARGETS: [&str; 3] = ["modbus", "iec104", "lib60870"];

    let strategy_state = match draw.below(3) {
        0 => StrategyState::Stateless,
        1 => StrategyState::Peach {
            generated: draw.next(),
        },
        _ => StrategyState::PeachStar {
            corpus: arbitrary_corpus(draw),
            queue: (0..draw.below(6)).map(|_| draw.seed()).collect(),
            semantic_generated: draw.next(),
            random_generated: draw.next(),
        },
    };
    let strategy = if matches!(strategy_state, StrategyState::PeachStar { .. }) {
        StrategyKind::PeachStar
    } else {
        StrategyKind::Peach
    };

    let meta = SnapshotMeta {
        target: TARGETS[draw.below(TARGETS.len() as u64) as usize].to_string(),
        strategy,
        executions: draw.next(),
        rng_seed: draw.next(),
        sample_interval: draw.below(10_000) + 1,
        reset_interval: draw.below(10_000) + 1,
        session: draw
            .flag()
            .then(|| (draw.below(64) + 1, draw.below(7) as u8 + 1)),
        batch: draw.flag().then(|| draw.below(512) + 1),
        sync_windows: draw.flag().then(|| draw.below(16) + 1),
    };

    let slots: Vec<(usize, u8)> = (0..draw.below(48))
        .map(|_| {
            (
                draw.below(MAP_SIZE as u64) as usize,
                (draw.below(255) + 1) as u8,
            )
        })
        .collect();
    let paths: Vec<PathId> = (0..draw.below(32))
        .map(|_| PathId::new(draw.next()))
        .collect();
    let map = CoverageMap::from_parts(slots, paths, draw.next());

    let mut pool = SeedPool::new();
    for _ in 0..draw.below(8) {
        let seed = draw.seed();
        pool.push(seed, PathId::new(draw.next()), draw.below(64) as usize);
    }

    const KINDS: [FaultKind; 4] = [
        FaultKind::Segv,
        FaultKind::HeapUseAfterFree,
        FaultKind::HeapBufferOverflow,
        FaultKind::Hang,
    ];
    let monitor = MonitorState {
        series: (0..draw.below(8))
            .map(|_| SeriesPoint {
                executions: draw.next(),
                paths: draw.below(1 << 32) as usize,
                edges: draw.below(1 << 32) as usize,
                faults: draw.below(1 << 32) as usize,
            })
            .collect(),
        bugs: (0..draw.below(BUG_SITES.len() as u64 + 1))
            .map(|bug| BugRecord {
                fault: Fault::new(
                    KINDS[draw.below(KINDS.len() as u64) as usize],
                    BUG_SITES[bug as usize],
                ),
                first_execution: draw.next(),
                packet: draw.bytes(32),
                model: "prop/model".to_string(),
            })
            .collect(),
        responses: draw.next(),
        protocol_errors: draw.next(),
        fault_hits: draw.next(),
    };

    CampaignSnapshot {
        meta,
        completed: draw.next(),
        rng_state: [draw.next(), draw.next(), draw.next(), draw.next()],
        map,
        pool,
        monitor,
        schedule: ScheduleState {
            strategy: strategy_state,
            cursor: draw.below(256),
        },
    }
}

/// The snapshot module's checksum, re-implemented locally so tests can
/// re-stamp a doctored body's trailing checksum: FNV-1a 64 over the body as
/// little-endian 8-byte words, then over the tail bytes. The constants are
/// part of the stable wire format.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().unwrap());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &byte in words.remainder() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replaces the trailing checksum with one valid for the (possibly
/// doctored) body, so structural validation is reached.
fn restamp(bytes: &mut Vec<u8>) {
    let body_len = bytes.len() - 8;
    let checksum = checksum(&bytes[..body_len]);
    bytes.truncate(body_len);
    bytes.extend_from_slice(&checksum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_is_the_identity(words in proptest::collection::vec(any::<u64>(), 24..96)) {
        let snapshot = arbitrary_snapshot(&mut Draw::new(words));
        let bytes = snapshot.encode();
        let decoded = CampaignSnapshot::decode(&bytes).expect("valid snapshot decodes");

        // Canonical: re-encoding the decoded state reproduces the bytes.
        prop_assert_eq!(decoded.encode(), bytes);

        // And the components match where equality is defined.
        prop_assert_eq!(&decoded.meta, &snapshot.meta);
        prop_assert_eq!(decoded.completed, snapshot.completed);
        prop_assert_eq!(decoded.rng_state, snapshot.rng_state);
        prop_assert_eq!(&decoded.schedule, &snapshot.schedule);
        prop_assert_eq!(&decoded.monitor, &snapshot.monitor);
        prop_assert_eq!(decoded.map.executions(), snapshot.map.executions());
        prop_assert_eq!(decoded.map.edges_covered(), snapshot.map.edges_covered());
        prop_assert_eq!(decoded.map.paths_covered(), snapshot.map.paths_covered());
        prop_assert_eq!(decoded.pool.len(), snapshot.pool.len());
    }

    #[test]
    fn every_truncation_is_rejected(words in proptest::collection::vec(any::<u64>(), 24..64)) {
        let bytes = arbitrary_snapshot(&mut Draw::new(words)).encode();
        let step = (bytes.len() / 17).max(1);
        for len in (0..bytes.len()).step_by(step) {
            prop_assert!(
                CampaignSnapshot::decode(&bytes[..len]).is_err(),
                "decode accepted a {len}-byte prefix of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn single_byte_corruption_is_rejected(words in proptest::collection::vec(any::<u64>(), 24..64)) {
        let mut draw = Draw::new(words);
        let bytes = arbitrary_snapshot(&mut draw).encode();
        for _ in 0..8 {
            let position = draw.below(bytes.len() as u64) as usize;
            let flip = (draw.below(255) + 1) as u8;
            let mut doctored = bytes.clone();
            doctored[position] ^= flip;
            // FNV-1a over the body guarantees detection: a body flip changes
            // the computed checksum, a trailer flip changes the stored one,
            // and a magic flip fails the magic check.
            prop_assert!(
                CampaignSnapshot::decode(&doctored).is_err(),
                "decode accepted byte {position} xor {flip:#04x}"
            );
        }
    }

    #[test]
    fn wrong_version_is_named_not_guessed(words in proptest::collection::vec(any::<u64>(), 24..64)) {
        let mut draw = Draw::new(words);
        let mut bytes = arbitrary_snapshot(&mut draw).encode();
        let version = VERSION + 1 + draw.below(1000) as u32;
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        restamp(&mut bytes);
        let err = CampaignSnapshot::decode(&bytes).expect_err("future version rejected");
        prop_assert!(
            matches!(err, SnapshotError::UnsupportedVersion(v) if v == version),
            "expected UnsupportedVersion({version}), got {err:?}"
        );
    }

    #[test]
    fn wrong_magic_is_rejected(words in proptest::collection::vec(any::<u64>(), 24..64)) {
        let mut draw = Draw::new(words);
        let mut bytes = arbitrary_snapshot(&mut draw).encode();
        let position = draw.below(MAGIC.len() as u64) as usize;
        bytes[position] ^= (draw.below(255) + 1) as u8;
        restamp(&mut bytes);
        let err = CampaignSnapshot::decode(&bytes).expect_err("bad magic rejected");
        prop_assert!(matches!(err, SnapshotError::BadMagic), "got {err:?}");
    }
}

#[test]
fn empty_and_tiny_inputs_are_truncated_not_panics() {
    assert!(matches!(
        CampaignSnapshot::decode(&[]),
        Err(SnapshotError::Truncated)
    ));
    assert!(matches!(
        CampaignSnapshot::decode(&MAGIC),
        Err(SnapshotError::Truncated)
    ));
    assert!(matches!(
        CampaignSnapshot::decode(b"NOTASNAP-------------"),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut draw = Draw::new(vec![7, 11, 13]);
    let mut bytes = arbitrary_snapshot(&mut draw).encode();
    bytes.extend_from_slice(&[0u8; 16]);
    restamp(&mut bytes);
    assert!(CampaignSnapshot::decode(&bytes).is_err());
}

// ---------------------------------------------------------------------------
// Hostile input. These tests take encoded sections apart and put them back
// together with a local model of the framing: a section is a tag byte, a
// LEB128 payload length and the payload.

/// `value` as a minimal LEB128 varint.
fn varint(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
    out
}

/// The section payloads of an encoded snapshot, in tag order (META first).
fn sections(bytes: &[u8]) -> Vec<Vec<u8>> {
    let body = &bytes[MAGIC.len() + 4..bytes.len() - 8];
    let mut at = 0;
    let mut payloads = Vec::new();
    while at < body.len() {
        assert_eq!(usize::from(body[at]), payloads.len() + 1, "section tag");
        at += 1;
        let (mut len, mut shift) = (0usize, 0);
        loop {
            let byte = body[at];
            at += 1;
            len |= usize::from(byte & 0x7f) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                break;
            }
        }
        payloads.push(body[at..at + len].to_vec());
        at += len;
    }
    payloads
}

/// A snapshot rebuilt from section payloads, with a valid checksum.
fn assemble(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for (index, payload) in payloads.iter().enumerate() {
        bytes.push(index as u8 + 1);
        bytes.extend(varint(payload.len() as u64));
        bytes.extend_from_slice(payload);
    }
    bytes.extend_from_slice(&[0; 8]);
    restamp(&mut bytes);
    bytes
}

const MAP: usize = 2;
const MONITOR: usize = 4;
const SCHEDULE: usize = 5;
const PROGRESS: usize = 6;

/// An encoded snapshot of a 3,000-execution campaign sampled every 200
/// executions, so its series holds at most 16 points.
fn budgeted_snapshot() -> Vec<u8> {
    let mut snapshot = arbitrary_snapshot(&mut Draw::new(vec![5, 8, 13, 21]));
    snapshot.meta.executions = 3_000;
    snapshot.meta.sample_interval = 200;
    snapshot.monitor.series.truncate(16);
    snapshot.encode()
}

/// A MONITOR payload holding `runs` (point count, per-field zig-zag steps)
/// and no bugs.
fn monitor_payload(runs: &[(u64, [u64; 4])]) -> Vec<u8> {
    let mut payload = varint(runs.len() as u64);
    for (len, steps) in runs {
        payload.extend(varint(*len));
        for step in steps {
            payload.extend(varint(*step));
        }
    }
    payload.extend(varint(0)); // bugs
    for _ in 0..3 {
        payload.extend(varint(0)); // tallies
    }
    payload
}

fn decode_with(section: usize, payload: Vec<u8>) -> Result<CampaignSnapshot, SnapshotError> {
    let mut payloads = sections(&budgeted_snapshot());
    payloads[section] = payload;
    CampaignSnapshot::decode(&assemble(&payloads))
}

fn assert_corrupt(result: Result<CampaignSnapshot, SnapshotError>, what: &str) {
    match result {
        Err(SnapshotError::Corrupt(_)) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn run_length_bomb_is_rejected_before_it_allocates() {
    // One run claiming 2^62 points: allocating them would need 2^67 bytes,
    // so an Err here means nothing was allocated for them.
    let step = [400, 2, 2, 0];
    assert_corrupt(
        decode_with(MONITOR, monitor_payload(&[(1 << 62, step)])),
        "a 2^62-point run",
    );
    // The bound is the budget's sampling rule, exactly: 3,000 / 200 + 1.
    assert_corrupt(
        decode_with(MONITOR, monitor_payload(&[(10, step), (7, [0, 2, 0, 0])])),
        "17 points",
    );
    let decoded = decode_with(MONITOR, monitor_payload(&[(10, step), (6, [0, 2, 0, 0])]))
        .expect("16 points fit the budget");
    assert_eq!(decoded.monitor.series.len(), 16);
    assert_eq!(decoded.monitor.series[15].executions, 2_000);
}

#[test]
fn overlong_and_oversized_varints_are_rejected() {
    let sections_of = sections(&budgeted_snapshot());
    let completed = &sections_of[PROGRESS];
    // The same value with a redundant zero group appended.
    let mut overlong = completed.clone();
    *overlong.last_mut().unwrap() |= 0x80;
    overlong.push(0);
    assert_corrupt(decode_with(PROGRESS, overlong), "an overlong varint");
    assert_corrupt(decode_with(PROGRESS, vec![0x80, 0x00]), "zero in two bytes");
    // Ten bytes carrying bit 64, and an eleven-byte varint.
    let mut wide = vec![0xff; 9];
    wide.push(0x02);
    assert_corrupt(decode_with(PROGRESS, wide), "a 65-bit varint");
    let mut long = vec![0x80; 10];
    long.push(0x01);
    assert_corrupt(decode_with(PROGRESS, long), "an eleven-byte varint");
    // The widest value still decodes.
    let mut max = vec![0xff; 9];
    max.push(0x01);
    assert_eq!(decode_with(PROGRESS, max).expect("u64::MAX").completed, u64::MAX);
}

#[test]
fn series_runs_have_one_encoding() {
    let step = [400, 2, 2, 0];
    assert_corrupt(
        decode_with(MONITOR, monitor_payload(&[(0, step)])),
        "an empty run",
    );
    assert_corrupt(
        decode_with(MONITOR, monitor_payload(&[(3, step), (2, step)])),
        "a run split in two",
    );
    let merged = decode_with(MONITOR, monitor_payload(&[(5, step)])).expect("one run");
    assert_eq!(merged.encode(), {
        let mut payloads = sections(&budgeted_snapshot());
        payloads[MONITOR] = monitor_payload(&[(5, step)]);
        assemble(&payloads)
    });
}

#[test]
fn unsorted_or_repeated_slots_path_ids_and_rules_are_rejected() {
    let map = |slots: &[u64], paths: &[u64]| {
        let mut payload = varint(slots.len() as u64);
        for &slot in slots {
            payload.extend(varint(slot));
            payload.push(1);
        }
        payload.extend(varint(paths.len() as u64));
        for path in paths {
            payload.extend_from_slice(&path.to_le_bytes());
        }
        payload.extend(varint(0));
        payload
    };
    decode_with(MAP, map(&[3, 5], &[4, 9])).expect("ascending map");
    assert_corrupt(decode_with(MAP, map(&[5, 3], &[])), "unsorted slots");
    assert_corrupt(decode_with(MAP, map(&[3, 3], &[])), "a repeated slot");
    assert_corrupt(decode_with(MAP, map(&[], &[9, 4])), "unsorted path ids");
    assert_corrupt(decode_with(MAP, map(&[], &[4, 4])), "a repeated path id");

    let corpus = |rules: &[u64], donors: u64| {
        let mut payload = varint(0); // cursor
        payload.push(2); // Peach* state
        payload.extend(varint(4)); // capacity per rule
        payload.extend(varint(rules.len() as u64));
        for (index, rule) in rules.iter().enumerate() {
            payload.extend_from_slice(&rule.to_le_bytes());
            payload.extend(varint(donors));
            for _ in 0..donors {
                payload.extend(varint(1));
                payload.push(index as u8);
            }
        }
        payload.extend([0, 0, 0, 0, 0]); // inserted, rejected, queue, counters
        payload
    };
    decode_with(SCHEDULE, corpus(&[7, 11], 1)).expect("ascending rules");
    assert_corrupt(decode_with(SCHEDULE, corpus(&[11, 7], 1)), "unsorted rules");
    assert_corrupt(decode_with(SCHEDULE, corpus(&[7, 7], 1)), "a repeated rule");
    assert_corrupt(decode_with(SCHEDULE, corpus(&[7], 0)), "a rule without donors");
}

/// Applies one random edit to `bytes`' body (past the header, before the
/// checksum) and re-stamps the checksum: byte flips and overwrites, and the
/// edits that break a sloppy decoder's canonical form — a continuation
/// byte or a zero byte inserted, a byte deleted, an 8- or 9-byte stretch
/// (a path or rule id with its neighbour) repeated or swapped.
fn doctor(bytes: &[u8], draw: &mut Draw) -> Vec<u8> {
    let mut doctored = bytes.to_vec();
    let body = MAGIC.len() + 4..bytes.len() - 8;
    let at = body.start + draw.below(body.len() as u64) as usize;
    let stretch = 8 + draw.below(2) as usize;
    let room = body.end.saturating_sub(at);
    match draw.below(7) {
        0 => doctored[at] ^= 1 << draw.below(8),
        1 => doctored[at] = draw.next() as u8,
        2 => doctored.insert(at, 0x80 | draw.next() as u8),
        3 => doctored.insert(at, 0),
        4 => {
            doctored.remove(at);
        }
        5 if room >= stretch => {
            let copy = doctored[at..at + stretch].to_vec();
            doctored.splice(at..at, copy);
        }
        _ if room >= 2 * stretch => doctored[at..at + 2 * stretch].rotate_left(stretch),
        _ => doctored[at] = 0,
    }
    restamp(&mut doctored);
    doctored
}

/// Doctors `bytes` `rounds` times; every doctored input the decoder accepts
/// must re-encode to exactly its own bytes. Returns how many it accepted.
fn accepted_inputs_re_encode_to_themselves(bytes: &[u8], draw: &mut Draw, rounds: usize) -> usize {
    let mut accepted = 0;
    for _ in 0..rounds {
        let doctored = doctor(bytes, draw);
        if let Ok(decoded) = CampaignSnapshot::decode(&doctored) {
            accepted += 1;
            assert!(
                decoded.encode() == doctored,
                "an accepted input re-encoded to different bytes"
            );
        }
    }
    accepted
}

/// An arbitrary snapshot whose budget holds 65 series points: one edit can
/// then claim at most a few hundred thousand points, so a doctored run
/// length the decoder accepts costs megabytes, not the machine's memory.
fn doctorable_snapshot(draw: &mut Draw) -> Vec<u8> {
    let mut snapshot = arbitrary_snapshot(draw);
    snapshot.meta.executions = snapshot.meta.sample_interval * 64;
    snapshot.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_accepts_only_canonical_encodings(words in proptest::collection::vec(any::<u64>(), 24..96)) {
        let mut draw = Draw::new(words);
        let bytes = doctorable_snapshot(&mut draw);
        accepted_inputs_re_encode_to_themselves(&bytes, &mut draw, 64);
    }
}

#[test]
fn the_canonical_property_is_not_vacuous() {
    let mut accepted = 0;
    for seed in 0..16 {
        let mut draw = Draw::new(vec![seed, seed * 31 + 7]);
        let bytes = doctorable_snapshot(&mut draw);
        accepted += accepted_inputs_re_encode_to_themselves(&bytes, &mut draw, 256);
    }
    // Edits inside fixed-width words and string contents still decode.
    assert!(accepted >= 100, "only {accepted} doctored inputs decoded");
}

#[test]
fn version_1_checkpoints_are_named_and_skipped() {
    // A version-1 header, stamped with version 1's byte-wise FNV-1a.
    let mut bytes = budgeted_snapshot();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let body_len = bytes.len() - 8;
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for &byte in &bytes[..body_len] {
        fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body_len..].copy_from_slice(&fnv.to_le_bytes());
    let err = CampaignSnapshot::decode(&bytes).expect_err("version 1 is not decoded");
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(1)),
        "got {err:?}"
    );

    let dir = std::env::temp_dir().join(format!("peachstar-v1-rotation-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("rotation dir");
    std::fs::write(dir.join("ckpt-000000000250.peachsnp"), &bytes).expect("v1 slot");
    let restored = CampaignSnapshot::resume_latest(&dir).expect("rotation scan");
    std::fs::remove_dir_all(&dir).ok();
    assert!(restored.is_none(), "a rotation of version-1 slots starts fresh");
}

//! Property suite for the framed-TCP wire: header round-trips, partial-read
//! reassembly, and agreement between the TPKT framer and the independent
//! RFC 1006 header check `FrameSpec::TpktCotp` (in `support`).
//!
//! The transport seam's equivalence story (`tests/transport_equivalence.rs`
//! at the workspace root) rests on this layer never corrupting, splitting,
//! or reordering a message — these properties pin that foundation over
//! arbitrary payloads and arbitrary stream chunkings.

use std::io::Cursor;

use proptest::prelude::*;

use peachstar_protocols::wire::{FrameReassembler, MessageStream, WireFraming};
use peachstar_protocols::TargetId;

// Shared with `decoder_framing.rs`; only the TPKT/COTP check is used here.
#[allow(dead_code)]
mod support;

use support::FrameSpec;

const FRAMINGS: [WireFraming; 2] = [WireFraming::Raw, WireFraming::Tpkt];

/// Feeds `stream` to a fresh reassembler in the given chunks and returns
/// every completed message.
fn reassemble(framing: WireFraming, chunks: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut reassembler = FrameReassembler::new(framing);
    let mut messages = Vec::new();
    for chunk in chunks {
        reassembler.push(chunk);
        while let Some(message) = reassembler.next_message().expect("well-formed stream") {
            messages.push(message);
        }
    }
    assert!(
        !reassembler.is_mid_message(),
        "whole frames must leave nothing buffered"
    );
    messages
}

#[test]
fn framing_table_matches_the_six_targets() {
    // The ISO-stack targets ride ISO-on-TCP; everything else is raw-framed.
    for target in TargetId::ALL {
        let expected = match target {
            TargetId::Iec61850 | TargetId::Iccp => WireFraming::Tpkt,
            _ => WireFraming::Raw,
        };
        assert_eq!(
            WireFraming::for_target(target.project_name()),
            expected,
            "{target:?} speaks the wrong framing"
        );
    }
}

#[test]
fn tpkt_segmentation_chains_dt_tpdus_for_oversized_messages() {
    // A message past one TPKT's u16 capacity crosses as a DT chain where
    // only the last TPDU carries the end-of-TSDU bit — and reassembles
    // whole. 150_000 bytes forces three frames.
    let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
    let frame = WireFraming::Tpkt.frame(&payload);
    assert!(frame.len() > payload.len() + 14, "at least three headers");
    let messages = reassemble(WireFraming::Tpkt, &[&frame]);
    assert_eq!(messages, vec![payload]);
}

#[test]
fn reassembler_rejects_corrupted_tpkt_headers() {
    let frame = WireFraming::Tpkt.frame(b"hello");
    for (index, name) in [(0, "version"), (4, "COTP length"), (5, "TPDU code")] {
        let mut bad = frame.clone();
        bad[index] ^= 0xFF;
        let mut reassembler = FrameReassembler::new(WireFraming::Tpkt);
        reassembler.push(&bad);
        assert!(
            reassembler.next_message().is_err(),
            "corrupted {name} byte must fail loudly, not desynchronise"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frame → reassemble is the identity for arbitrary payloads under both
    /// framings, including the empty message.
    #[test]
    fn framed_messages_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        for framing in FRAMINGS {
            let frame = framing.frame(&payload);
            prop_assert_eq!(
                reassemble(framing, &[&frame]),
                vec![payload.clone()],
                "{:?}: frame/reassemble is not the identity", framing
            );
        }
    }

    /// Reassembly is split-invariant: cutting the stream at *every* byte
    /// boundary recovers the same single message.
    #[test]
    fn reassembly_survives_a_split_at_every_byte_boundary(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        for framing in FRAMINGS {
            let frame = framing.frame(&payload);
            for split in 0..=frame.len() {
                let (head, tail) = frame.split_at(split);
                prop_assert_eq!(
                    reassemble(framing, &[head, tail]),
                    vec![payload.clone()],
                    "{:?}: split at byte {} corrupted the message", framing, split
                );
            }
        }
    }

    /// Back-to-back messages survive arbitrary re-chunking of the byte
    /// stream: no boundary bleed, no reordering, no loss.
    #[test]
    fn message_sequences_survive_arbitrary_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..6,
        ),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        for framing in FRAMINGS {
            let mut stream = Vec::new();
            for payload in &payloads {
                framing.frame_into(payload, &mut stream);
            }
            let mut boundaries: Vec<usize> =
                cuts.iter().map(|&cut| cut % (stream.len() + 1)).collect();
            boundaries.extend([0, stream.len()]);
            boundaries.sort_unstable();
            let chunks: Vec<&[u8]> = boundaries
                .windows(2)
                .map(|pair| &stream[pair[0]..pair[1]])
                .collect();
            prop_assert_eq!(
                reassemble(framing, &chunks),
                payloads.clone(),
                "{:?}: re-chunking corrupted the message sequence", framing
            );
        }
    }

    /// The TPKT framer obeys RFC 1006: every frame the transport emits for
    /// a one-TPKT message passes the prescan oracle, the stateless
    /// `FrameSpec::TpktCotp` header check.
    #[test]
    fn tpkt_frames_satisfy_the_prescan_oracle(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256),
            1..24,
        ),
    ) {
        for payload in &payloads {
            let frame = WireFraming::Tpkt.frame(payload);
            prop_assert!(
                FrameSpec::TpktCotp.check(&frame),
                "a framer-built TPKT frame fails the RFC 1006 header check: {frame:02x?}"
            );
        }
    }

    /// `MessageStream` (the production send/recv pair) round-trips message
    /// sequences over an in-memory stream, then reports a clean EOF.
    #[test]
    fn message_stream_round_trips_and_detects_clean_eof(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128),
            0..5,
        ),
    ) {
        for framing in FRAMINGS {
            let mut wire = Vec::new();
            let mut sender = MessageStream::new(framing);
            for payload in &payloads {
                sender.send(&mut wire, payload).expect("in-memory send");
            }
            let mut reader = Cursor::new(wire);
            let mut receiver = MessageStream::new(framing);
            for payload in &payloads {
                let received = receiver.recv(&mut reader).expect("in-memory recv");
                prop_assert_eq!(received.as_ref(), Some(payload));
            }
            prop_assert_eq!(
                receiver.recv(&mut reader).expect("clean EOF"),
                None,
                "{:?}: EOF after the last frame must read as a clean shutdown", framing
            );
        }
    }
}

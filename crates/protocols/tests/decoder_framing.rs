//! Decoder-side framing properties for all six targets, over arbitrary byte
//! strings and near-valid mutated traffic, judged by the scalar header
//! predicates in `support`.
//!
//! Framing checks are state-independent: a frame whose header breaks its
//! target's framing is *always* a decoder `ProtocolError`, from a fresh
//! target and from a used one. The reverse direction deliberately does not
//! hold (a well-framed packet can still fail semantic validation), so the
//! decoder stays authoritative.

mod support;

use proptest::prelude::*;

use peachstar_coverage::TraceContext;
use peachstar_datamodel::emit::emit_default;
use peachstar_protocols::{Outcome, TargetId};

use support::FrameSpec;

/// Each target paired with the framing its decoder checks first.
const PAIRS: [(TargetId, FrameSpec); 6] = [
    (TargetId::Modbus, FrameSpec::Mbap),
    (TargetId::Iec104, FrameSpec::Apci),
    (TargetId::Lib60870, FrameSpec::Apci),
    (TargetId::Dnp3, FrameSpec::Dnp3Link),
    (TargetId::Iccp, FrameSpec::Iccp),
    (TargetId::Iec61850, FrameSpec::TpktCotp),
];

/// Every model's default emission with one byte XOR-mutated: traffic dense
/// around the accept/reject boundary, where framing bugs actually live.
fn mutated_defaults(target: TargetId, index: usize, mask: u8) -> Vec<Vec<u8>> {
    target
        .create()
        .data_models()
        .models()
        .iter()
        .filter_map(|model| emit_default(model).ok())
        .map(|mut packet| {
            if !packet.is_empty() {
                let position = index % packet.len();
                packet[position] ^= mask;
            }
            packet
        })
        .collect()
}

#[test]
fn every_default_emission_passes_its_frame_spec() {
    // Non-vacuity anchor for the reject-direction properties below: the
    // emitter's length/CRC fixups produce well-framed packets, so the
    // mutated traffic genuinely straddles the boundary.
    for (target, spec) in PAIRS {
        let models = target.create().data_models();
        for model in models.models() {
            let packet = emit_default(model).expect("default packet emits");
            assert!(
                spec.check(&packet),
                "{target}/{}: default emission fails {spec:?}",
                model.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes: a framing reject is always a decoder
    /// `ProtocolError`, from the fresh state *and* from whatever state the
    /// first decode left behind (framing checks must be state-independent).
    #[test]
    fn a_framing_reject_is_always_a_decoder_reject(
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        for (target, spec) in PAIRS {
            if spec.check(&data) {
                continue;
            }
            let mut server = target.create();
            let mut ctx = TraceContext::new();
            for round in 0..2 {
                ctx.reset();
                let outcome = server.process(&data, &mut ctx);
                prop_assert!(
                    outcome == Outcome::ProtocolError,
                    "{target} round {round}: decoder accepted a frame {spec:?} rejects: {data:02x?}"
                );
            }
        }
    }

    /// Near-valid traffic (mutated default emissions): same agreement, but
    /// concentrated where single-bit damage flips individual header checks.
    #[test]
    fn mutated_defaults_with_broken_framing_are_decoder_rejects(
        index in any::<usize>(),
        mask in any::<u8>(),
    ) {
        for (target, spec) in PAIRS {
            let mut server = target.create();
            let mut ctx = TraceContext::new();
            for packet in mutated_defaults(target, index, mask) {
                if spec.check(&packet) {
                    continue;
                }
                ctx.reset();
                let outcome = server.process(&packet, &mut ctx);
                prop_assert!(
                    outcome == Outcome::ProtocolError,
                    "{target}: decoder accepted a frame {spec:?} rejects: {packet:02x?}"
                );
            }
        }
    }
}

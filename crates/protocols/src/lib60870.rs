//! The lib60870 target: an IEC 60870-5-101/104 controlled station modelled
//! on the mz-automation `lib60870-C` library the paper fuzzed.
//!
//! Unlike the [`iec104`](crate::iec104) target (which models the `IEC104`
//! project, a different implementation of the same protocol), this server
//! mimics the internal structure of lib60870: ASDUs are wrapped in a
//! `CS101_ASDU` object whose accessors read fixed offsets of the raw buffer.
//! Three **SEGV** faults are planted, matching the lib60870 row of Table I:
//!
//! 1. `CS101_ASDU_getCOT` reads `asdu[2] & 0x3f` without verifying the ASDU
//!    is long enough (Listing 1/2 of the paper) — reachable with a truncated
//!    ASDU that still passes APCI length checks;
//! 2. `CS101_ASDU_getElement` trusts the VSQ element count and walks past
//!    the end of the buffer when decoding a short-float measurement;
//! 3. `CP56Time2a_getEncodedValue` reads a 7-byte timestamp that a clock
//!    synchronisation command fails to carry.

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    BlockBuilder, BytesSpec, DataModelBuilder, DataModelSet, NumberSpec, Relation,
};

use crate::common::{read_u16_le, read_u24_le, PointDatabase};
use crate::{Fault, FaultKind, Outcome, SessionPacket, SessionTemplate, Target};

/// ASDU type identifiers relevant to this target.
mod type_id {
    pub const M_ME_NC_1: u8 = 13; // measured value, short float
    pub const C_SC_NA_1: u8 = 45; // single command
    pub const C_SE_NB_1: u8 = 49; // set point, scaled
    pub const C_IC_NA_1: u8 = 100; // interrogation
    pub const C_CS_NA_1: u8 = 103; // clock synchronisation
    pub const C_TS_TA_1: u8 = 107; // test command with CP56 timestamp
}

/// Minimum ASDU length the *original* code should have enforced before
/// calling `CS101_ASDU_getCOT`: type, VSQ and COT.
const MIN_ASDU_WITH_COT: usize = 3;

/// The lib60870 controlled station.
#[derive(Debug)]
pub struct Lib60870Server {
    db: PointDatabase,
    started: bool,
    common_address: u16,
    activations_seen: u64,
}

impl Lib60870Server {
    /// Creates a station with common address 1.
    #[must_use]
    pub fn new() -> Self {
        Self {
            db: PointDatabase::default(),
            started: false,
            common_address: 1,
            activations_seen: 0,
        }
    }

    /// Number of command activations processed so far.
    #[must_use]
    pub fn activations_seen(&self) -> u64 {
        self.activations_seen
    }

    /// `CS101_ASDU_getCOT` — the function of Listing 1 in the paper. The
    /// original reads `self->asdu[2]` unconditionally; the planted fault
    /// fires whenever the ASDU is too short for that access.
    fn asdu_cot(asdu: &[u8], ctx: &mut TraceContext) -> Result<u8, Fault> {
        cov_edge!(ctx);
        if asdu.len() < MIN_ASDU_WITH_COT {
            cov_edge!(ctx);
            // Planted bug 1 (Table I, lib60870, SEGV).
            return Err(Fault::new(
                FaultKind::Segv,
                "cs101_asdu.c:CS101_ASDU_getCOT",
            ));
        }
        Ok(asdu[2] & 0x3f)
    }

    /// `CS101_ASDU_getElement` for short-float measurements: trusts the VSQ
    /// element count.
    fn decode_float_elements(
        objects: &[u8],
        element_count: usize,
        ctx: &mut TraceContext,
    ) -> Result<Vec<f32>, Fault> {
        cov_edge!(ctx);
        const ELEMENT_SIZE: usize = 3 + 4 + 1; // IOA + float + quality
        let mut values = Vec::with_capacity(element_count);
        for index in 0..element_count {
            let offset = index * ELEMENT_SIZE;
            // The original computes the element pointer from the VSQ count
            // without checking the payload length.
            if offset + ELEMENT_SIZE > objects.len() {
                cov_edge!(ctx);
                // Planted bug 2 (Table I, lib60870, SEGV).
                return Err(Fault::new(
                    FaultKind::Segv,
                    "cs101_asdu.c:CS101_ASDU_getElement",
                ));
            }
            cov_edge!(ctx);
            let raw = u32::from_le_bytes([
                objects[offset + 3],
                objects[offset + 4],
                objects[offset + 5],
                objects[offset + 6],
            ]);
            values.push(f32::from_bits(raw));
        }
        Ok(values)
    }

    /// `CP56Time2a_getEncodedValue`: reads a 7-byte timestamp.
    fn decode_cp56(objects: &[u8], offset: usize, ctx: &mut TraceContext) -> Result<[u8; 7], Fault> {
        cov_edge!(ctx);
        if objects.len() < offset + 7 {
            cov_edge!(ctx);
            // Planted bug 3 (Table I, lib60870, SEGV).
            return Err(Fault::new(
                FaultKind::Segv,
                "cp56time2a.c:CP56Time2a_getEncodedValue",
            ));
        }
        let mut time = [0u8; 7];
        time.copy_from_slice(&objects[offset..offset + 7]);
        Ok(time)
    }

    /// Decodes one ASDU. Every accepted ASDU is answered with a
    /// confirmation, negative (the P/N bit) for an unknown address or type.
    #[allow(clippy::too_many_lines)]
    fn handle_asdu(&mut self, asdu: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // The original parser reads type and VSQ before COT, and only checks
        // that *those two* bytes exist.
        if asdu.len() < 2 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let type_identifier = asdu[0];
        let vsq = asdu[1];
        let element_count = usize::from(vsq & 0x7f);

        // Listing 1: the COT accessor runs before any further length check.
        let cot = match Self::asdu_cot(asdu, ctx) {
            Ok(cot) => cot,
            Err(fault) => return Outcome::Fault(fault),
        };

        if asdu.len() < 6 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let common_address = read_u16_le(asdu, 4).expect("length checked");
        if common_address != self.common_address && common_address != 0xffff {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        if element_count == 0 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let objects = &asdu[6..];

        match type_identifier {
            type_id::C_SC_NA_1 => {
                cov_edge!(ctx);
                if cot != 6 && cot != 8 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let Some(ioa) = read_u24_le(objects, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some(&sco) = objects.get(3) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let address = ioa as usize;
                if address >= self.db.coil_count() {
                    cov_edge!(ctx);
                    return Outcome::Response;
                }
                cov_edge!(ctx);
                self.activations_seen += 1;
                // Per-point dispatch of the original interlock handlers.
                cov_edge!(ctx, address);
                cov_edge!(ctx, sco & 0x03);
                if sco & 0x80 == 0 {
                    cov_edge!(ctx);
                    self.db.set_coil(address, sco & 0x01 != 0);
                }
                Outcome::Response
            }
            type_id::C_SE_NB_1 => {
                cov_edge!(ctx);
                let Some(ioa) = read_u24_le(objects, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some(value) = read_u16_le(objects, 3) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let address = ioa as usize;
                if address >= self.db.register_count() {
                    cov_edge!(ctx);
                    return Outcome::Response;
                }
                cov_edge!(ctx);
                cov_edge!(ctx, address / 2);
                cov_edge!(ctx, value >> 12);
                self.activations_seen += 1;
                self.db.set_register(address, value);
                Outcome::Response
            }
            type_id::C_IC_NA_1 => {
                cov_edge!(ctx);
                if objects.len() < 4 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                cov_edge!(ctx);
                self.activations_seen += 1;
                Outcome::Response
            }
            type_id::C_CS_NA_1 | type_id::C_TS_TA_1 => {
                cov_edge!(ctx);
                // Clock synchronisation / test command: IOA then CP56Time2a.
                if objects.len() < 3 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let time = match Self::decode_cp56(objects, 3, ctx) {
                    Ok(time) => time,
                    Err(fault) => return Outcome::Fault(fault),
                };
                let minute = time[2] & 0x3f;
                let hour = time[4] & 0x1f;
                if minute >= 60 || hour >= 24 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                cov_edge!(ctx);
                cov_edge!(ctx, minute / 10);
                cov_edge!(ctx, hour / 4);
                self.activations_seen += 1;
                Outcome::Response
            }
            type_id::M_ME_NC_1 => {
                cov_edge!(ctx);
                match Self::decode_float_elements(objects, element_count, ctx) {
                    Ok(values) => {
                        cov_edge!(ctx);
                        cov_edge!(ctx, values.len());
                        for (index, value) in values.iter().enumerate() {
                            let address = index % self.db.register_count().max(1);
                            self.db.set_register(address, *value as u16);
                        }
                        Outcome::Response
                    }
                    Err(fault) => Outcome::Fault(fault),
                }
            }
            _ => {
                cov_edge!(ctx);
                Outcome::Response
            }
        }
    }
}

impl Default for Lib60870Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for Lib60870Server {
    fn name(&self) -> &'static str {
        "lib60870"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        if packet.len() < 6 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        if packet[0] != 0x68 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let length = usize::from(packet[1]);
        if length < 4 || length != packet.len() - 2 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let control = packet[2];
        if control & 0x03 == 0x03 {
            cov_edge!(ctx);
            return match control {
                // STARTDT, STOPDT and TESTFR act, each answered by its con.
                0x07 => {
                    cov_edge!(ctx);
                    self.started = true;
                    Outcome::Response
                }
                0x13 => {
                    cov_edge!(ctx);
                    self.started = false;
                    Outcome::Response
                }
                0x43 => {
                    cov_edge!(ctx);
                    Outcome::Response
                }
                _ => {
                    cov_edge!(ctx);
                    Outcome::ProtocolError
                }
            };
        }
        if control & 0x03 == 0x01 {
            cov_edge!(ctx);
            return Outcome::Response;
        }
        cov_edge!(ctx);
        if !self.started {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        // Unlike the IEC104 target, lib60870 accepts an I-frame whose APCI
        // length covers only part of the ASDU header — which is exactly what
        // lets the truncated-ASDU bug fire.
        let asdu = &packet[6..];
        if asdu.is_empty() {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        self.handle_asdu(asdu, ctx)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        // Same CS 104 link layer as the IEC104 target: I-frames (and with
        // them every planted ASDU bug) are reachable only between STARTDT
        // act and STOPDT act.
        Some(SessionTemplate::new(
            vec![SessionPacket::new(
                vec![0x68, 0x04, 0x07, 0x00, 0x00, 0x00],
                "STARTDT act",
            )],
            vec![SessionPacket::new(
                vec![0x68, 0x04, 0x13, 0x00, 0x00, 0x00],
                "STOPDT act",
            )],
        ))
    }
}

/// The format specification of the lib60870 (CS104) packets the fuzzer
/// generates.
///
/// The ASDU header rules are shared with the [`iec104`](crate::iec104)
/// models (same explicit rule names), reflecting that the two projects
/// implement the same wire format.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("lib60870");

    set.push(
        DataModelBuilder::new("startdt_act")
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule("length", NumberSpec::u8().fixed_value(4), "apci-length")
            .number("control1", NumberSpec::u8().fixed_value(0x07))
            .number("control2", NumberSpec::u8().fixed_value(0x00))
            .number("control3", NumberSpec::u8().fixed_value(0x00))
            .number("control4", NumberSpec::u8().fixed_value(0x00))
            .build()
            .expect("startdt model is statically valid"),
    );

    let i_frame = |name: &str, type_identifier: u64, body: BlockBuilder| {
        DataModelBuilder::new(name)
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule(
                "length",
                NumberSpec::u8().relation(Relation::size_of("apdu")),
                "apci-length",
            )
            .block(
                BlockBuilder::new("apdu")
                    .number_with_rule("send_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .number_with_rule("recv_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .block(
                        BlockBuilder::new("asdu")
                            .rule("asdu")
                            .number("type_id", NumberSpec::u8().fixed_value(type_identifier))
                            .number_with_rule("vsq", NumberSpec::u8().default_value(1), "asdu-vsq")
                            .number_with_rule("cot", NumberSpec::u8().default_value(6), "asdu-cot")
                            .number_with_rule("originator", NumberSpec::u8(), "asdu-originator")
                            .number_with_rule(
                                "common_address",
                                NumberSpec::u16_le().default_value(1),
                                "asdu-common-address",
                            )
                            .block(body),
                    ),
            )
            .build()
            .expect("lib60870 I-frame model is statically valid")
    };

    set.push(i_frame(
        "single_command_cs104",
        u64::from(type_id::C_SC_NA_1),
        BlockBuilder::new("object_sc104")
            .bytes_with_rule(
                "ioa_sc104",
                BytesSpec::fixed(3).default_content(vec![0x01, 0x00, 0x00]),
                "information-object-address",
            )
            .number("sco104", NumberSpec::u8().default_value(0x01)),
    ));

    set.push(i_frame(
        "setpoint_scaled",
        u64::from(type_id::C_SE_NB_1),
        BlockBuilder::new("object_senb")
            .bytes_with_rule(
                "ioa_senb",
                BytesSpec::fixed(3).default_content(vec![0x04, 0x00, 0x00]),
                "information-object-address",
            )
            .number_with_rule("value_senb", NumberSpec::u16_le().default_value(0x0102), "setpoint-value")
            .number("qos_senb", NumberSpec::u8()),
    ));

    set.push(i_frame(
        "interrogation_cs104",
        u64::from(type_id::C_IC_NA_1),
        BlockBuilder::new("object_ic104")
            .bytes_with_rule(
                "ioa_ic104",
                BytesSpec::fixed(3).default_content(vec![0x00, 0x00, 0x00]),
                "information-object-address",
            )
            .number("qoi104", NumberSpec::u8().default_value(20)),
    ));

    set.push(i_frame(
        "clock_sync_cs104",
        u64::from(type_id::C_CS_NA_1),
        BlockBuilder::new("object_cs104")
            .bytes_with_rule(
                "ioa_cs104",
                BytesSpec::fixed(3).default_content(vec![0x00, 0x00, 0x00]),
                "information-object-address",
            )
            .bytes(
                // Coarse-grained: the pit does not pin the timestamp length,
                // so generated packets may truncate it (which is exactly how
                // the CP56Time2a bug is reached).
                "cp56_cs104",
                BytesSpec::remainder()
                    .default_content(vec![0x10, 0x20, 0x1e, 0x0a, 0x0f, 0x06, 0x14]),
            ),
    ));

    // A coarse-grained catch-all model: an I-frame whose ASDU is a single
    // opaque blob. Real Peach pits often describe rarely-used packet types
    // this way; it is also what allows severely truncated ASDUs (the
    // CS101_ASDU_getCOT packet of Listing 1) to be generated at all.
    set.push(
        DataModelBuilder::new("raw_asdu")
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule(
                "length",
                NumberSpec::u8().relation(Relation::size_of("apdu")),
                "apci-length",
            )
            .block(
                BlockBuilder::new("apdu")
                    .number_with_rule("send_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .number_with_rule("recv_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .bytes_with_rule(
                        // Default: a read command (C_RD_NA_1, type 102) —
                        // a packet type no fine-grained model describes, so
                        // the default instantiation of this model is distinct
                        // from every other model's and donates fresh puzzles.
                        "asdu_raw",
                        BytesSpec::remainder().default_content(vec![102, 1, 5, 0, 1, 0, 2, 0, 0]),
                        "asdu",
                    ),
            )
            .build()
            .expect("raw asdu model is statically valid"),
    );

    set.push(i_frame(
        "measurement_float",
        u64::from(type_id::M_ME_NC_1),
        BlockBuilder::new("object_float")
            .bytes_with_rule(
                "ioa_float",
                BytesSpec::fixed(3).default_content(vec![0x09, 0x00, 0x00]),
                "information-object-address",
            )
            .bytes("float_value", BytesSpec::fixed(4).default_content(vec![0x00, 0x00, 0x80, 0x3f]))
            .number("quality_float", NumberSpec::u8()),
    ));

    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;

    fn run(server: &mut Lib60870Server, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        server.process(packet, &mut ctx)
    }

    fn startdt(server: &mut Lib60870Server) {
        assert_eq!(run(server, &[0x68, 0x04, 0x07, 0x00, 0x00, 0x00]), Outcome::Response);
        assert!(server.started);
    }

    fn i_frame(asdu: &[u8]) -> Vec<u8> {
        let mut frame = vec![0x68, (4 + asdu.len()) as u8, 0x00, 0x00, 0x00, 0x00];
        frame.extend_from_slice(asdu);
        frame
    }

    #[test]
    fn single_command_activation_is_confirmed() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        let asdu = [45, 1, 6, 0, 1, 0, 0x04, 0x00, 0x00, 0x01];
        assert_eq!(server.db.coil(4), Some(false));
        let outcome = run(&mut server, &i_frame(&asdu));
        assert_eq!(outcome, Outcome::Response, "activation confirmation");
        assert_eq!(server.activations_seen(), 1);
        assert_eq!(server.db.coil(4), Some(true));
    }

    #[test]
    fn listing1_truncated_asdu_triggers_getcot_segv() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        // An I-frame whose ASDU carries only type id and VSQ — exactly the
        // malformed packet the paper describes for CS101_ASDU_getCOT.
        let outcome = run(&mut server, &i_frame(&[45, 1]));
        let fault = outcome.fault().expect("SEGV in getCOT");
        assert_eq!(fault.kind, FaultKind::Segv);
        assert_eq!(fault.site, "cs101_asdu.c:CS101_ASDU_getCOT");
    }

    #[test]
    fn overclaimed_float_elements_trigger_getelement_segv() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        // M_ME_NC_1 with VSQ claiming 4 elements but only one present.
        let asdu = [13, 4, 3, 0, 1, 0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00];
        let outcome = run(&mut server, &i_frame(&asdu));
        let fault = outcome.fault().expect("SEGV in getElement");
        assert_eq!(fault.site, "cs101_asdu.c:CS101_ASDU_getElement");
    }

    #[test]
    fn short_clock_sync_triggers_cp56_segv() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        // C_CS_NA_1 with an IOA but only 3 of the 7 timestamp bytes.
        let asdu = [103, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 0x10, 0x20, 0x1e];
        let outcome = run(&mut server, &i_frame(&asdu));
        let fault = outcome.fault().expect("SEGV in CP56Time2a");
        assert_eq!(fault.site, "cp56time2a.c:CP56Time2a_getEncodedValue");
    }

    #[test]
    fn well_formed_clock_sync_is_confirmed() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        let asdu = [
            103, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 0x10, 0x20, 0x1e, 0x0a, 0x0f, 0x06, 0x14,
        ];
        let outcome = run(&mut server, &i_frame(&asdu));
        assert_eq!(outcome, Outcome::Response);
        assert_eq!(server.activations_seen(), 1);
        // A minute of 60 is no timestamp.
        let asdu = [
            103, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 0x10, 0x20, 0x3c, 0x0a, 0x0f, 0x06, 0x14,
        ];
        assert_eq!(run(&mut server, &i_frame(&asdu)), Outcome::ProtocolError);
    }

    #[test]
    fn well_formed_float_measurements_update_registers() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        // One element: IOA(3) + float 2.0 + quality.
        let asdu = [13, 1, 3, 0, 1, 0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00];
        let outcome = run(&mut server, &i_frame(&asdu));
        assert_eq!(outcome, Outcome::Response);
        assert_eq!(server.db.register(0), Some(2));
    }

    #[test]
    fn faults_require_the_link_to_be_started() {
        let mut server = Lib60870Server::new();
        // Without STARTDT the truncated ASDU never reaches the parser.
        let outcome = run(&mut server, &i_frame(&[45, 1]));
        assert!(!outcome.is_fault());
    }

    #[test]
    fn all_three_planted_bug_sites_are_distinct() {
        let mut sites = std::collections::HashSet::new();
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        for asdu in [
            vec![45u8, 1],
            vec![13, 4, 3, 0, 1, 0, 0x01, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00],
            vec![103, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 0x10, 0x20, 0x1e],
        ] {
            if let Some(fault) = run(&mut server, &i_frame(&asdu)).fault() {
                sites.insert(fault.site);
            }
        }
        assert_eq!(sites.len(), 3, "three distinct lib60870 SEGV sites");
    }

    #[test]
    fn default_model_packets_do_not_fault() {
        let mut server = Lib60870Server::new();
        startdt(&mut server);
        for model in data_models().models() {
            let packet = emit_default(model).unwrap();
            let outcome = run(&mut server, &packet);
            assert!(
                !outcome.is_fault(),
                "{}: default packet must not fault: {outcome:?}",
                model.name()
            );
        }
    }

    #[test]
    fn shares_asdu_rules_with_the_iec104_models() {
        let ours = data_models();
        let theirs = crate::iec104::data_models();
        let our_cot = ours
            .find("single_command_cs104")
            .unwrap()
            .find("cot")
            .unwrap()
            .rule_id();
        let their_cot = theirs
            .find("single_command")
            .unwrap()
            .find("cot")
            .unwrap()
            .rule_id();
        assert_eq!(our_cot, their_cot, "asdu-cot rule is shared across projects");
    }
}

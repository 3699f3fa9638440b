//! The IEC 60870-5-104 server target (stand-in for the `IEC104` project used
//! in the paper).
//!
//! Implements APCI framing (start byte `0x68`, length, four control-field
//! octets distinguishing I/S/U frames), U-frame link management (STARTDT /
//! STOPDT / TESTFR), sequence-number handling for I/S frames and an ASDU
//! decoder for the common monitoring and control type identifiers. This
//! target has no Table I bugs planted — in the paper the bugs were found in
//! lib60870, libmodbus and libiec_iccp_mod — but its decoder is deliberately
//! deep so that coverage growth has room to differ between fuzzers.

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    BlockBuilder, BytesSpec, DataModelBuilder, DataModelSet, NumberSpec, Relation,
};

use crate::common::{read_u16_le, read_u24_le, PointDatabase};
use crate::{Outcome, SessionPacket, SessionTemplate, Target};

/// ASDU type identifiers understood by the server.
mod type_id {
    pub const M_SP_NA_1: u8 = 1; // single point information
    pub const M_DP_NA_1: u8 = 3; // double point information
    pub const M_ME_NA_1: u8 = 9; // measured value, normalised
    pub const M_ME_NC_1: u8 = 13; // measured value, short float
    pub const C_SC_NA_1: u8 = 45; // single command
    pub const C_DC_NA_1: u8 = 46; // double command
    pub const C_SE_NA_1: u8 = 48; // set point command, normalised
    pub const C_IC_NA_1: u8 = 100; // interrogation command
    pub const C_CI_NA_1: u8 = 101; // counter interrogation
    pub const C_RD_NA_1: u8 = 102; // read command
    pub const C_CS_NA_1: u8 = 103; // clock synchronisation
}

/// Connection state of the 104 link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// Connection established, data transfer not yet started.
    Idle,
    /// STARTDT confirmed; I-frames are accepted.
    Started,
}

/// The IEC 60870-5-104 server.
#[derive(Debug)]
pub struct Iec104Server {
    db: PointDatabase,
    state: LinkState,
    receive_sequence: u16,
    send_sequence: u16,
    common_address: u16,
}

impl Iec104Server {
    /// Creates a server with common address 1.
    #[must_use]
    pub fn new() -> Self {
        Self {
            db: PointDatabase::default(),
            state: LinkState::Idle,
            receive_sequence: 0,
            send_sequence: 0,
            common_address: 1,
        }
    }

    /// The receive sequence number (number of I-frames accepted).
    #[must_use]
    pub fn receive_sequence(&self) -> u16 {
        self.receive_sequence
    }

    fn u_frame_response(control: u8) -> Outcome {
        crate::sink::response_array([0x68, 0x04, control, 0x00, 0x00, 0x00])
    }

    fn s_frame(&self) -> Outcome {
        let ack = self.receive_sequence << 1;
        crate::sink::response_array([
            0x68,
            0x04,
            0x01,
            0x00,
            (ack & 0xff) as u8,
            (ack >> 8) as u8,
        ])
    }

    fn i_frame_response(&mut self, asdu: Vec<u8>) -> Outcome {
        let send = self.send_sequence << 1;
        let receive = self.receive_sequence << 1;
        // The sequence number advances under both sinks (a state mutation,
        // not output); only the frame assembly below is sink-elidable.
        self.send_sequence = self.send_sequence.wrapping_add(1) & 0x7fff;
        crate::sink::response_with(6 + asdu.len(), |frame| {
            frame.push(0x68);
            frame.push((4 + asdu.len()) as u8);
            frame.extend_from_slice(&[(send & 0xff) as u8, (send >> 8) as u8]);
            frame.extend_from_slice(&[(receive & 0xff) as u8, (receive >> 8) as u8]);
            frame.extend_from_slice(&asdu);
        })
    }

    /// Builds a mirrored confirmation ASDU with the given cause of
    /// transmission.
    fn confirmation(asdu: &[u8], cot: u8) -> Vec<u8> {
        let mut reply = asdu.to_vec();
        if reply.len() > 2 {
            reply[2] = cot;
        }
        reply
    }

    #[allow(clippy::too_many_lines)]
    fn handle_asdu(&mut self, asdu: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // ASDU header: type(1) vsq(1) cot(1) originator(1) common-address(2).
        if asdu.len() < 6 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("ASDU shorter than its header");
        }
        let type_identifier = asdu[0];
        let vsq = asdu[1];
        let element_count = usize::from(vsq & 0x7f);
        let sequence = vsq & 0x80 != 0;
        let cot = asdu[2] & 0x3f;
        let common_address = read_u16_le(asdu, 4).expect("length checked");
        if common_address != self.common_address && common_address != 0xffff {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!("unknown common address {common_address}"));
        }
        if element_count == 0 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("ASDU with zero information objects");
        }
        let objects = &asdu[6..];
        match type_identifier {
            type_id::C_IC_NA_1 => {
                cov_edge!(ctx);
                // Interrogation: QOI in the single information object.
                let Some(ioa) = read_u24_le(objects, 0) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("interrogation without IOA");
                };
                if ioa != 0 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("interrogation IOA must be zero");
                }
                let qoi = objects.get(3).copied().unwrap_or(20);
                cov_edge!(ctx);
                // Activation confirmation followed by a burst of M_SP_NA_1
                // points; we only return the confirmation frame here.
                let mut confirmation = Self::confirmation(asdu, 7);
                confirmation[1] = 1;
                if (20..=36).contains(&qoi) {
                    cov_edge!(ctx);
                    // Per-group interrogation handlers of the original server.
                    cov_edge!(ctx, qoi - 20);
                    self.i_frame_response(confirmation)
                } else {
                    cov_edge!(ctx);
                    // Unknown qualifier: negative confirmation (P/N bit).
                    confirmation[2] |= 0x40;
                    self.i_frame_response(confirmation)
                }
            }
            type_id::C_CI_NA_1 | type_id::C_CS_NA_1 | type_id::C_RD_NA_1 => {
                cov_edge!(ctx);
                if objects.len() < 3 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("command without information object");
                }
                cov_edge!(ctx);
                self.i_frame_response(Self::confirmation(asdu, 7))
            }
            type_id::C_SC_NA_1 | type_id::C_DC_NA_1 => {
                cov_edge!(ctx);
                if cot != 6 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error_fmt(format_args!(
                        "command with unexpected cause of transmission {cot}"
                    ));
                }
                let Some(ioa) = read_u24_le(objects, 0) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("command without IOA");
                };
                let Some(&qualifier) = objects.get(3) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("command without qualifier");
                };
                let select = qualifier & 0x80 != 0;
                let state = qualifier & 0x01 != 0;
                let address = ioa as usize;
                if address >= self.db.coil_count() {
                    cov_edge!(ctx);
                    // Unknown information object address: negative confirmation.
                    let mut reply = Self::confirmation(asdu, 47);
                    reply[2] |= 0x40;
                    return self.i_frame_response(reply);
                }
                cov_edge!(ctx);
                // Per-information-object dispatch of the original server.
                cov_edge!(ctx, address);
                cov_edge!(ctx, qualifier & 0x03);
                if !select {
                    cov_edge!(ctx);
                    self.db.set_coil(address, state);
                }
                self.i_frame_response(Self::confirmation(asdu, 7))
            }
            type_id::C_SE_NA_1 => {
                cov_edge!(ctx);
                let Some(ioa) = read_u24_le(objects, 0) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("set point without IOA");
                };
                let Some(value) = read_u16_le(objects, 3) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("set point without value");
                };
                let address = ioa as usize;
                if address >= self.db.register_count() {
                    cov_edge!(ctx);
                    let mut reply = Self::confirmation(asdu, 47);
                    reply[2] |= 0x40;
                    return self.i_frame_response(reply);
                }
                cov_edge!(ctx);
                cov_edge!(ctx, address / 2);
                cov_edge!(ctx, value >> 12);
                self.db.set_register(address, value);
                self.i_frame_response(Self::confirmation(asdu, 7))
            }
            type_id::M_SP_NA_1 | type_id::M_DP_NA_1 | type_id::M_ME_NA_1 | type_id::M_ME_NC_1 => {
                cov_edge!(ctx);
                // Monitoring ASDUs arriving at the controlled station are
                // mirrored back with COT 44 (unknown type id in this
                // direction) — but only after walking the element list, which
                // is where the branchy per-element decode happens.
                let element_size = match type_identifier {
                    type_id::M_SP_NA_1 => 1,
                    type_id::M_DP_NA_1 => 1,
                    type_id::M_ME_NA_1 => 3,
                    _ => 5,
                };
                let mut offset = 0usize;
                for index in 0..element_count {
                    cov_edge!(ctx);
                    if sequence && index > 0 {
                        // In sequence mode only the first element carries an
                        // IOA.
                        offset += element_size;
                    } else {
                        offset += 3 + element_size;
                    }
                    if offset > objects.len() {
                        cov_edge!(ctx);
                        return crate::sink::protocol_error_fmt(format_args!(
                            "information object {index} truncated"
                        ));
                    }
                }
                cov_edge!(ctx);
                cov_edge!(ctx, element_count.min(8));
                self.i_frame_response(Self::confirmation(asdu, 44))
            }
            _ => {
                cov_edge!(ctx);
                // Unknown type identification: COT 44 negative confirmation.
                let mut reply = Self::confirmation(asdu, 44);
                reply[2] |= 0x40;
                self.i_frame_response(reply)
            }
        }
    }
}

impl Default for Iec104Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for Iec104Server {
    fn name(&self) -> &'static str {
        "IEC104"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        if packet.len() < 6 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("frame shorter than APCI");
        }
        if packet[0] != 0x68 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("missing start byte 0x68");
        }
        let length = usize::from(packet[1]);
        if length < 4 || length != packet.len() - 2 {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!(
                "APCI length {length} does not match frame length {}",
                packet.len() - 2
            ));
        }
        let control = &packet[2..6];
        // U-frame: bits 0..1 of the first control octet are 11.
        if control[0] & 0x03 == 0x03 {
            cov_edge!(ctx);
            return match control[0] {
                0x07 => {
                    cov_edge!(ctx);
                    self.state = LinkState::Started;
                    Self::u_frame_response(0x0b) // STARTDT con
                }
                0x13 => {
                    cov_edge!(ctx);
                    self.state = LinkState::Idle;
                    Self::u_frame_response(0x23) // STOPDT con
                }
                0x43 => {
                    cov_edge!(ctx);
                    Self::u_frame_response(0x83) // TESTFR con
                }
                other => {
                    cov_edge!(ctx);
                    crate::sink::protocol_error_fmt(format_args!("unknown U-frame control {other:#04x}"))
                }
            };
        }
        // S-frame: bits 0..1 are 01.
        if control[0] & 0x03 == 0x01 {
            cov_edge!(ctx);
            return self.s_frame();
        }
        // I-frame: bit 0 is 0.
        cov_edge!(ctx);
        if self.state != LinkState::Started {
            cov_edge!(ctx);
            return crate::sink::protocol_error("I-frame before STARTDT");
        }
        if length == 4 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("I-frame without ASDU");
        }
        self.receive_sequence = self.receive_sequence.wrapping_add(1) & 0x7fff;
        let asdu = &packet[6..];
        self.handle_asdu(asdu, ctx)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        // The 104 link layer only accepts I-frames between STARTDT act and
        // STOPDT act (IEC 60870-5-104 §5.3), so a session brackets its
        // mutated ASDUs with exactly that U-frame pair.
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

/// The format specification of the IEC 104 packets the fuzzer generates.
///
/// One model per frame type (STARTDT, TESTFR, plus the common command
/// ASDUs), sharing APCI and information-object-address rules.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("iec104");

    set.push(
        DataModelBuilder::new("startdt")
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule("length", NumberSpec::u8().fixed_value(4), "apci-length")
            .number("control1", NumberSpec::u8().fixed_value(0x07))
            .number("control2", NumberSpec::u8().fixed_value(0x00))
            .number("control3", NumberSpec::u8().fixed_value(0x00))
            .number("control4", NumberSpec::u8().fixed_value(0x00))
            .build()
            .expect("startdt model is statically valid"),
    );

    set.push(
        DataModelBuilder::new("testfr")
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule("length", NumberSpec::u8().fixed_value(4), "apci-length")
            .number("control1", NumberSpec::u8().fixed_value(0x43))
            .number("control2", NumberSpec::u8().fixed_value(0x00))
            .number("control3", NumberSpec::u8().fixed_value(0x00))
            .number("control4", NumberSpec::u8().fixed_value(0x00))
            .build()
            .expect("testfr model is statically valid"),
    );

    // An I-frame with one command ASDU. Shared rule names let the single
    // command, double command and set point models donate chunks to each
    // other, and the ASDU header rules are shared with the lib60870 models.
    let i_frame = |name: &str, type_identifier: u64, object: BlockBuilder| {
        DataModelBuilder::new(name)
            .number_with_rule("start", NumberSpec::u8().fixed_value(0x68), "apci-start")
            .number_with_rule(
                "length",
                NumberSpec::u8().relation(Relation::SizeOf {
                    of: "apdu".into(),
                    adjust: 0,
                    scale: 1,
                }),
                "apci-length",
            )
            .block(
                BlockBuilder::new("apdu")
                    .number_with_rule("send_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .number_with_rule("recv_seq", NumberSpec::u16_le(), "iframe-sequence")
                    .block(
                        BlockBuilder::new("asdu")
                            .rule("asdu")
                            .number(
                                "type_id",
                                NumberSpec::u8().fixed_value(type_identifier),
                            )
                            .number_with_rule("vsq", NumberSpec::u8().default_value(1), "asdu-vsq")
                            .number_with_rule(
                                "cot",
                                NumberSpec::u8().default_value(6),
                                "asdu-cot",
                            )
                            .number_with_rule("originator", NumberSpec::u8(), "asdu-originator")
                            .number_with_rule(
                                "common_address",
                                NumberSpec::u16_le().default_value(1),
                                "asdu-common-address",
                            )
                            .block(object),
                    ),
            )
            .build()
            .expect("iec104 I-frame model is statically valid")
    };

    set.push(i_frame(
        "single_command",
        u64::from(type_id::C_SC_NA_1),
        BlockBuilder::new("object_sc")
            .bytes_with_rule(
                "ioa_sc",
                BytesSpec::fixed(3).default_content(vec![0x01, 0x00, 0x00]),
                "information-object-address",
            )
            .number("sco", NumberSpec::u8().default_value(0x01)),
    ));

    set.push(i_frame(
        "double_command",
        u64::from(type_id::C_DC_NA_1),
        BlockBuilder::new("object_dc")
            .bytes_with_rule(
                "ioa_dc",
                BytesSpec::fixed(3).default_content(vec![0x02, 0x00, 0x00]),
                "information-object-address",
            )
            .number("dco", NumberSpec::u8().default_value(0x02)),
    ));

    set.push(i_frame(
        "set_point",
        u64::from(type_id::C_SE_NA_1),
        BlockBuilder::new("object_se")
            .bytes_with_rule(
                "ioa_se",
                BytesSpec::fixed(3).default_content(vec![0x03, 0x00, 0x00]),
                "information-object-address",
            )
            .number_with_rule("value_se", NumberSpec::u16_le().default_value(0x1234), "setpoint-value")
            .number("qos", NumberSpec::u8()),
    ));

    set.push(i_frame(
        "interrogation",
        u64::from(type_id::C_IC_NA_1),
        BlockBuilder::new("object_ic")
            .bytes_with_rule(
                "ioa_ic",
                BytesSpec::fixed(3).default_content(vec![0x00, 0x00, 0x00]),
                "information-object-address",
            )
            .number("qoi", NumberSpec::u8().default_value(20)),
    ));

    set.push(i_frame(
        "clock_sync",
        u64::from(type_id::C_CS_NA_1),
        BlockBuilder::new("object_cs")
            .bytes_with_rule(
                "ioa_cs",
                BytesSpec::fixed(3).default_content(vec![0x00, 0x00, 0x00]),
                "information-object-address",
            )
            .bytes("cp56time", BytesSpec::fixed(7).default_content(vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07])),
    ));

    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;

    fn run(server: &mut Iec104Server, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        server.process(packet, &mut ctx)
    }

    fn startdt(server: &mut Iec104Server) {
        let outcome = run(server, &[0x68, 0x04, 0x07, 0x00, 0x00, 0x00]);
        assert_eq!(
            outcome.response().unwrap(),
            &[0x68, 0x04, 0x0b, 0x00, 0x00, 0x00]
        );
    }

    fn i_frame(asdu: &[u8]) -> Vec<u8> {
        let mut frame = vec![0x68, (4 + asdu.len()) as u8, 0x00, 0x00, 0x00, 0x00];
        frame.extend_from_slice(asdu);
        frame
    }

    #[test]
    fn u_frames_manage_the_link() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        let testfr = run(&mut server, &[0x68, 0x04, 0x43, 0x00, 0x00, 0x00]);
        assert_eq!(testfr.response().unwrap()[2], 0x83);
        let stopdt = run(&mut server, &[0x68, 0x04, 0x13, 0x00, 0x00, 0x00]);
        assert_eq!(stopdt.response().unwrap()[2], 0x23);
    }

    #[test]
    fn i_frame_before_startdt_is_rejected() {
        let mut server = Iec104Server::new();
        let asdu = [45, 1, 6, 0, 1, 0, 0x01, 0x00, 0x00, 0x01];
        assert!(matches!(
            run(&mut server, &i_frame(&asdu)),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn single_command_is_confirmed_and_updates_a_coil() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        // C_SC_NA_1, one object, COT=activation, CA=1, IOA=5, execute ON.
        let asdu = [45, 1, 6, 0, 1, 0, 0x05, 0x00, 0x00, 0x01];
        let outcome = run(&mut server, &i_frame(&asdu));
        let response = outcome.response().expect("activation confirmation");
        assert_eq!(response[6], 45);
        assert_eq!(response[8] & 0x3f, 7, "COT becomes activation confirmation");
        assert_eq!(server.receive_sequence(), 1);
    }

    #[test]
    fn interrogation_with_bad_qoi_gets_negative_confirmation() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        let good = [100, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 20];
        let response = run(&mut server, &i_frame(&good));
        assert_eq!(response.response().unwrap()[8] & 0x40, 0);

        let bad = [100, 1, 6, 0, 1, 0, 0x00, 0x00, 0x00, 99];
        let response = run(&mut server, &i_frame(&bad));
        assert_ne!(response.response().unwrap()[8] & 0x40, 0, "P/N bit set");
    }

    #[test]
    fn set_point_updates_register() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        let asdu = [48, 1, 6, 0, 1, 0, 0x07, 0x00, 0x00, 0xCD, 0xAB, 0x00];
        let outcome = run(&mut server, &i_frame(&asdu));
        assert!(outcome.response().is_some());
        assert_eq!(server.db.register(7), Some(0xABCD));
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        assert!(matches!(run(&mut server, &[]), Outcome::ProtocolError(_)));
        assert!(matches!(
            run(&mut server, &[0x67, 0x04, 0x07, 0, 0, 0]),
            Outcome::ProtocolError(_)
        ));
        assert!(matches!(
            run(&mut server, &[0x68, 0x10, 0x07, 0, 0, 0]),
            Outcome::ProtocolError(_)
        ));
        // ASDU with zero elements.
        let asdu = [45, 0, 6, 0, 1, 0, 0x05, 0x00, 0x00, 0x01];
        assert!(matches!(
            run(&mut server, &i_frame(&asdu)),
            Outcome::ProtocolError(_)
        ));
        // Wrong common address.
        let asdu = [45, 1, 6, 0, 9, 0, 0x05, 0x00, 0x00, 0x01];
        assert!(matches!(
            run(&mut server, &i_frame(&asdu)),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn truncated_measurement_sequence_is_detected() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        // M_ME_NA_1 claiming 5 elements but carrying far fewer bytes.
        let asdu = [9, 5, 3, 0, 1, 0, 0x01, 0x00, 0x00, 0x11, 0x22, 0x00];
        assert!(matches!(
            run(&mut server, &i_frame(&asdu)),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn s_frame_acknowledges_received_count() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        let asdu = [45, 1, 6, 0, 1, 0, 0x05, 0x00, 0x00, 0x01];
        run(&mut server, &i_frame(&asdu));
        let outcome = run(&mut server, &[0x68, 0x04, 0x01, 0x00, 0x00, 0x00]);
        let response = outcome.response().unwrap();
        assert_eq!(response[4], 2, "receive sequence 1 encoded as <<1");
    }

    #[test]
    fn default_model_packets_are_accepted_after_startdt() {
        let mut server = Iec104Server::new();
        startdt(&mut server);
        for model in data_models().models() {
            let packet = emit_default(model).unwrap();
            let outcome = run(&mut server, &packet);
            assert!(
                !outcome.is_fault(),
                "{}: default packet must not fault",
                model.name()
            );
            assert!(
                outcome.response().is_some(),
                "{}: default packet should elicit a response, got {outcome:?}",
                model.name()
            );
        }
    }

    #[test]
    fn models_share_rules_with_each_other() {
        let set = data_models();
        assert!(set.len() >= 6);
        assert!(set.rule_overlap() > 0.3, "overlap: {}", set.rule_overlap());
    }
}

//! The DNP3 outstation target (stand-in for opendnp3).
//!
//! Implements the three DNP3 layers the real library exposes to incoming
//! traffic: the link layer (0x0564 start bytes, length, control, destination
//! and source addresses, per-block CRC-16/DNP), the transport layer
//! (FIR/FIN/sequence octet) and the application layer (function codes READ,
//! WRITE, SELECT, OPERATE, DIRECT_OPERATE, COLD_RESTART, DELAY_MEASURE and
//! ENABLE/DISABLE_UNSOLICITED with group/variation object headers). No
//! Table I faults are planted here; the target exists to provide a sixth
//! coverage landscape with yet another framing style (little-endian
//! addresses, CRC-protected blocks).

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    checksum::crc16_dnp, BlockBuilder, BytesSpec, DataModelBuilder, DataModelSet, Fixup,
    NumberSpec, Relation,
};

use crate::common::{read_u16_le, PointDatabase};
use crate::{Outcome, Target};

/// Application-layer function codes handled by the outstation.
mod function {
    pub const CONFIRM: u8 = 0x00;
    pub const READ: u8 = 0x01;
    pub const WRITE: u8 = 0x02;
    pub const SELECT: u8 = 0x03;
    pub const OPERATE: u8 = 0x04;
    pub const DIRECT_OPERATE: u8 = 0x05;
    pub const COLD_RESTART: u8 = 0x0d;
    pub const DELAY_MEASURE: u8 = 0x17;
    pub const ENABLE_UNSOLICITED: u8 = 0x14;
    pub const DISABLE_UNSOLICITED: u8 = 0x15;
}

/// The DNP3 outstation.
#[derive(Debug)]
pub struct Dnp3Outstation {
    db: PointDatabase,
    address: u16,
    selected_point: Option<u16>,
    unsolicited_enabled: bool,
    application_sequence: u8,
    restarts: u32,
}

impl Dnp3Outstation {
    /// Creates an outstation with link address 1024.
    #[must_use]
    pub fn new() -> Self {
        Self {
            db: PointDatabase::default(),
            address: 1024,
            selected_point: None,
            unsolicited_enabled: false,
            application_sequence: 0,
            restarts: 0,
        }
    }

    /// Number of cold restarts requested so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Whether unsolicited responses are currently enabled.
    #[must_use]
    pub fn unsolicited_enabled(&self) -> bool {
        self.unsolicited_enabled
    }

    /// Validates the link header CRC and the per-block body CRCs, returning
    /// the reassembled user data.
    fn strip_link_layer(packet: &[u8], ctx: &mut TraceContext) -> Result<(u8, Vec<u8>), String> {
        cov_edge!(ctx);
        if packet.len() < 10 {
            return Err(crate::sink::reject_str("frame shorter than the link header"));
        }
        if packet[0] != 0x05 || packet[1] != 0x64 {
            return Err(crate::sink::reject_str("bad start bytes"));
        }
        let length = usize::from(packet[2]);
        if length < 5 {
            return Err(crate::sink::reject_str("link length too small"));
        }
        let control = packet[3];
        let header_crc = read_u16_le(packet, 8).expect("length checked");
        if crc16_dnp(&packet[0..8]) != header_crc {
            cov_edge!(ctx);
            return Err(crate::sink::reject_str("link header CRC mismatch"));
        }
        cov_edge!(ctx);
        // `length` counts control, dest, src and user data (not CRCs).
        let user_data_len = length - 5;
        let mut user_data = Vec::with_capacity(user_data_len);
        let mut remaining = user_data_len;
        let mut offset = 10usize;
        while remaining > 0 {
            cov_edge!(ctx);
            let block_len = remaining.min(16);
            let Some(block) = packet.get(offset..offset + block_len) else {
                return Err(crate::sink::reject_str("user data truncated"));
            };
            let Some(crc) = read_u16_le(packet, offset + block_len) else {
                return Err(crate::sink::reject_str("block CRC missing"));
            };
            if crc16_dnp(block) != crc {
                cov_edge!(ctx);
                return Err(crate::sink::reject_str("block CRC mismatch"));
            }
            user_data.extend_from_slice(block);
            offset += block_len + 2;
            remaining -= block_len;
        }
        if offset != packet.len() {
            cov_edge!(ctx);
            return Err(crate::sink::reject_fmt(format_args!("{} trailing bytes after link frame", packet.len() - offset)));
        }
        Ok((control, user_data))
    }

    fn response_frame(&mut self, function: u8, payload: &[u8]) -> Vec<u8> {
        // Minimal response: we return the application fragment without
        // re-framing the link layer (the fuzzer only inspects outcomes).
        // The sequence advances whether or not the bytes get built.
        let sequence = self.application_sequence;
        self.application_sequence = self.application_sequence.wrapping_add(1);
        crate::sink::bytes_with(5 + payload.len(), |fragment| {
            fragment.push(0xC0 | (sequence & 0x3f)); // transport header
            fragment.push(0xC0 | (sequence & 0x0f));
            fragment.push(function);
            fragment.push(if self.restarts > 0 { 0x80 } else { 0x00 }); // IIN: restart flag
            fragment.push(0x00);
            fragment.extend_from_slice(payload);
        })
    }

    #[allow(clippy::too_many_lines)]
    fn handle_application(&mut self, fragment: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // Application header: control(1) function(1), then object headers.
        if fragment.len() < 2 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("application fragment too short");
        }
        let function = fragment[1];
        let objects = &fragment[2..];
        match function {
            function::CONFIRM => {
                cov_edge!(ctx);
                Outcome::Response(Vec::new())
            }
            function::READ => {
                cov_edge!(ctx);
                // Object header: group(1) variation(1) qualifier(1) [range].
                if objects.len() < 3 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("read without object header");
                }
                let group = objects[0];
                let qualifier = objects[2];
                let payload = match (group, qualifier) {
                    // Class data or binary inputs with all-objects qualifier.
                    (60, 0x06) | (1, 0x06) => {
                        cov_edge!(ctx);
                        let mut data = vec![1, 2, 0x00];
                        for index in 0..8usize {
                            if self.db.coil(index) == Some(true) {
                                data.push(0x81);
                            } else {
                                data.push(0x01);
                            }
                        }
                        data
                    }
                    // Analog inputs, 8-bit start/stop range.
                    (30, 0x00) => {
                        cov_edge!(ctx);
                        if objects.len() < 5 {
                            cov_edge!(ctx);
                            return crate::sink::protocol_error("read range truncated");
                        }
                        let start = usize::from(objects[3]);
                        let stop = usize::from(objects[4]);
                        if stop < start || stop >= self.db.register_count() {
                            cov_edge!(ctx);
                            return crate::sink::protocol_error("read range out of bounds");
                        }
                        // Per-range handlers of the original outstation.
                        cov_edge!(ctx, start / 4);
                        cov_edge!(ctx, stop - start);
                        let mut data = vec![30, 2, 0x00, objects[3], objects[4]];
                        for index in start..=stop {
                            cov_edge!(ctx);
                            let value = self.db.register(index).unwrap_or(0);
                            data.push(0x01);
                            data.extend_from_slice(&value.to_le_bytes());
                        }
                        data
                    }
                    _ => {
                        cov_edge!(ctx);
                        vec![group, 0, qualifier]
                    }
                };
                Outcome::Response(self.response_frame(0x81, &payload))
            }
            function::WRITE => {
                cov_edge!(ctx);
                if objects.len() < 3 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("write without object header");
                }
                // Group 34: analog deadband write with 8-bit index prefix.
                if objects[0] == 34 && objects.len() >= 7 {
                    cov_edge!(ctx);
                    cov_edge!(ctx, objects[4] / 4);
                    let index = usize::from(objects[4]);
                    let value = read_u16_le(objects, 5).unwrap_or(0);
                    if !self.db.set_register(index, value) {
                        cov_edge!(ctx);
                        return crate::sink::protocol_error("write index out of range");
                    }
                }
                Outcome::Response(self.response_frame(0x81, &[]))
            }
            function::SELECT => {
                cov_edge!(ctx);
                if objects.len() < 5 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("select without CROB");
                }
                let index = read_u16_le(objects, 3).unwrap_or(0);
                if usize::from(index) >= self.db.coil_count() {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("select point out of range");
                }
                cov_edge!(ctx);
                cov_edge!(ctx, index);
                self.selected_point = Some(index);
                Outcome::Response(self.response_frame(0x81, objects))
            }
            function::OPERATE => {
                cov_edge!(ctx);
                if objects.len() < 5 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("operate without CROB");
                }
                let index = read_u16_le(objects, 3).unwrap_or(0);
                match self.selected_point {
                    Some(selected) if selected == index => {
                        cov_edge!(ctx);
                        self.selected_point = None;
                        let address = usize::from(index) % self.db.coil_count().max(1);
                        let current = self.db.coil(address).unwrap_or(false);
                        self.db.set_coil(address, !current);
                        Outcome::Response(self.response_frame(0x81, objects))
                    }
                    _ => {
                        cov_edge!(ctx);
                        // Status code 2: no previous matching select.
                        let mut status = objects.to_vec();
                        if let Some(last) = status.last_mut() {
                            *last = 0x02;
                        }
                        Outcome::Response(self.response_frame(0x81, &status))
                    }
                }
            }
            function::DIRECT_OPERATE => {
                cov_edge!(ctx);
                if objects.len() < 5 {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("direct operate without CROB");
                }
                let index = read_u16_le(objects, 3).unwrap_or(0);
                let address = usize::from(index);
                let Some(current) = self.db.coil(address) else {
                    cov_edge!(ctx);
                    return crate::sink::protocol_error("control point out of range");
                };
                cov_edge!(ctx);
                cov_edge!(ctx, address);
                self.db.set_coil(address, !current);
                Outcome::Response(self.response_frame(0x81, objects))
            }
            function::COLD_RESTART => {
                cov_edge!(ctx);
                self.restarts += 1;
                self.selected_point = None;
                // Time delay fine object (group 52 var 2): 5000 ms.
                Outcome::Response(self.response_frame(0x81, &[52, 2, 0x07, 0x88, 0x13]))
            }
            function::DELAY_MEASURE => {
                cov_edge!(ctx);
                Outcome::Response(self.response_frame(0x81, &[52, 2, 0x07, 0x0a, 0x00]))
            }
            function::ENABLE_UNSOLICITED => {
                cov_edge!(ctx);
                self.unsolicited_enabled = true;
                Outcome::Response(self.response_frame(0x81, &[]))
            }
            function::DISABLE_UNSOLICITED => {
                cov_edge!(ctx);
                self.unsolicited_enabled = false;
                Outcome::Response(self.response_frame(0x81, &[]))
            }
            other => {
                cov_edge!(ctx);
                crate::sink::protocol_error_fmt(format_args!("unsupported function code {other:#04x}"))
            }
        }
    }
}

impl Default for Dnp3Outstation {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for Dnp3Outstation {
    fn name(&self) -> &'static str {
        "opendnp3"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        let (control, user_data) = match Self::strip_link_layer(packet, ctx) {
            Ok(parts) => parts,
            Err(reason) => {
                cov_edge!(ctx);
                return Outcome::ProtocolError(reason);
            }
        };
        // Only primary user-data frames carry application fragments.
        if control & 0x40 == 0 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("secondary frame ignored");
        }
        let destination = read_u16_le(packet, 4).expect("header length checked");
        if destination != self.address && destination != 0xffff {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!("frame for other outstation {destination}"));
        }
        if user_data.is_empty() {
            cov_edge!(ctx);
            return crate::sink::protocol_error("link frame without user data");
        }
        // Transport octet: FIR/FIN/sequence. Multi-fragment reassembly is not
        // modelled; FIR and FIN must both be set.
        let transport = user_data[0];
        if transport & 0xC0 != 0xC0 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("multi-fragment messages unsupported");
        }
        cov_edge!(ctx);
        self.handle_application(&user_data[1..], ctx)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }
}

/// The format specification of the DNP3 request frames the fuzzer generates.
///
/// All models share the link-header rules (start bytes, length, addresses,
/// header CRC) and the transport/application control rules; only the
/// function code and object payload differ.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("dnp3");

    let request = |name: &str, function: u64, objects: Vec<u8>| {
        DataModelBuilder::new(name)
            .block(
                BlockBuilder::new("link_header")
                    .rule("dnp3-link-header")
                    .number("start1", NumberSpec::u8().fixed_value(0x05))
                    .number("start2", NumberSpec::u8().fixed_value(0x64))
                    .number(
                        "length",
                        NumberSpec::u8().relation(Relation::SizeOf {
                            of: "user_data".into(),
                            adjust: 5,
                            scale: 1,
                        }),
                    )
                    .number("control", NumberSpec::u8().fixed_value(0xC4))
                    .number_with_rule(
                        "destination",
                        NumberSpec::u16_le().default_value(1024),
                        "dnp3-address",
                    )
                    .number_with_rule(
                        "source",
                        NumberSpec::u16_le().default_value(1),
                        "dnp3-address",
                    ),
            )
            .number(
                "header_crc",
                NumberSpec::u16_le().fixup(Fixup::new(
                    peachstar_datamodel::ChecksumKind::Crc16Dnp,
                    vec!["link_header".into()],
                )),
            )
            .block(
                BlockBuilder::new("user_data")
                    .number_with_rule(
                        "transport",
                        NumberSpec::u8().default_value(0xC0),
                        "dnp3-transport",
                    )
                    .number_with_rule(
                        "app_control",
                        NumberSpec::u8().default_value(0xC0),
                        "dnp3-app-control",
                    )
                    .number("function", NumberSpec::u8().fixed_value(function))
                    .bytes_with_rule(
                        "objects",
                        BytesSpec::remainder().default_content(objects),
                        "dnp3-objects",
                    ),
            )
            .number(
                "body_crc",
                NumberSpec::u16_le().fixup(Fixup::new(
                    peachstar_datamodel::ChecksumKind::Crc16Dnp,
                    vec!["user_data".into()],
                )),
            )
            .build()
            .expect("dnp3 data model is statically valid")
    };

    set.push(request(
        "read_class_data",
        u64::from(function::READ),
        vec![60, 2, 0x06],
    ));
    set.push(request(
        "read_analog_range",
        u64::from(function::READ),
        vec![30, 2, 0x00, 0x00, 0x03],
    ));
    set.push(request(
        "write_deadband",
        u64::from(function::WRITE),
        vec![34, 1, 0x17, 0x01, 0x05, 0x64, 0x00],
    ));
    set.push(request(
        "select_crob",
        u64::from(function::SELECT),
        vec![12, 1, 0x17, 0x03, 0x00, 0x03, 0x01, 0x00],
    ));
    set.push(request(
        "operate_crob",
        u64::from(function::OPERATE),
        vec![12, 1, 0x17, 0x03, 0x00, 0x03, 0x01, 0x00],
    ));
    set.push(request(
        "direct_operate_crob",
        u64::from(function::DIRECT_OPERATE),
        vec![12, 1, 0x17, 0x05, 0x00, 0x03, 0x01, 0x00],
    ));
    set.push(request(
        "cold_restart",
        u64::from(function::COLD_RESTART),
        Vec::new(),
    ));
    set.push(request(
        "delay_measure",
        u64::from(function::DELAY_MEASURE),
        Vec::new(),
    ));
    set.push(request(
        "enable_unsolicited",
        u64::from(function::ENABLE_UNSOLICITED),
        vec![60, 2, 0x06],
    ));

    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;

    fn run(outstation: &mut Dnp3Outstation, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        outstation.process(packet, &mut ctx)
    }

    /// Builds a fully framed request with correct CRCs.
    fn framed(function: u8, objects: &[u8]) -> Vec<u8> {
        let mut user_data = vec![0xC0, 0xC0, function];
        user_data.extend_from_slice(objects);

        let mut header = vec![0x05, 0x64, (user_data.len() + 5) as u8, 0xC4];
        header.extend_from_slice(&1024u16.to_le_bytes());
        header.extend_from_slice(&1u16.to_le_bytes());

        let mut packet = header.clone();
        packet.extend_from_slice(&crc16_dnp(&header).to_le_bytes());
        for block in user_data.chunks(16) {
            packet.extend_from_slice(block);
            packet.extend_from_slice(&crc16_dnp(block).to_le_bytes());
        }
        packet
    }

    #[test]
    fn class_read_returns_binary_inputs() {
        let mut outstation = Dnp3Outstation::new();
        let outcome = run(&mut outstation, &framed(function::READ, &[60, 2, 0x06]));
        let response = outcome.response().unwrap();
        assert_eq!(response[2], 0x81, "response function code");
        assert!(response.len() > 8);
    }

    #[test]
    fn analog_range_read_returns_values() {
        let mut outstation = Dnp3Outstation::new();
        let outcome = run(
            &mut outstation,
            &framed(function::READ, &[30, 2, 0x00, 0x01, 0x03]),
        );
        let response = outcome.response().unwrap();
        // Values for registers 1..=3 with the ramp pattern 3, 6, 9.
        assert!(response.windows(2).any(|w| w == 3u16.to_le_bytes()));
        assert!(response.windows(2).any(|w| w == 9u16.to_le_bytes()));
    }

    #[test]
    fn out_of_bounds_range_is_rejected() {
        let mut outstation = Dnp3Outstation::new();
        let outcome = run(
            &mut outstation,
            &framed(function::READ, &[30, 2, 0x00, 0x05, 0x01]),
        );
        assert!(matches!(outcome, Outcome::ProtocolError(_)));
    }

    #[test]
    fn select_before_operate_protocol() {
        let mut outstation = Dnp3Outstation::new();
        let crob = [12, 1, 0x17, 0x03, 0x00, 0x03, 0x01, 0x00];
        // Operate without select → status code 2 in the echoed CROB.
        let outcome = run(&mut outstation, &framed(function::OPERATE, &crob));
        let response = outcome.response().unwrap();
        assert_eq!(*response.last().unwrap(), 0x02);
        // Select then operate toggles the coil.
        let before = outstation.db.coil(3).unwrap();
        run(&mut outstation, &framed(function::SELECT, &crob));
        run(&mut outstation, &framed(function::OPERATE, &crob));
        assert_ne!(outstation.db.coil(3).unwrap(), before);
    }

    #[test]
    fn direct_operate_skips_select() {
        let mut outstation = Dnp3Outstation::new();
        let crob = [12, 1, 0x17, 0x05, 0x00, 0x05, 0x01, 0x00];
        let before = outstation.db.coil(5).unwrap();
        run(&mut outstation, &framed(function::DIRECT_OPERATE, &crob));
        assert_ne!(outstation.db.coil(5).unwrap(), before);
    }

    #[test]
    fn cold_restart_sets_iin_flag() {
        let mut outstation = Dnp3Outstation::new();
        run(&mut outstation, &framed(function::COLD_RESTART, &[]));
        assert_eq!(outstation.restarts(), 1);
        let outcome = run(&mut outstation, &framed(function::DELAY_MEASURE, &[]));
        let response = outcome.response().unwrap();
        assert_eq!(response[3] & 0x80, 0x80, "device restart IIN bit");
    }

    #[test]
    fn unsolicited_enable_disable() {
        let mut outstation = Dnp3Outstation::new();
        run(
            &mut outstation,
            &framed(function::ENABLE_UNSOLICITED, &[60, 2, 0x06]),
        );
        assert!(outstation.unsolicited_enabled());
        run(
            &mut outstation,
            &framed(function::DISABLE_UNSOLICITED, &[60, 2, 0x06]),
        );
        assert!(!outstation.unsolicited_enabled());
    }

    #[test]
    fn corrupted_crcs_are_rejected() {
        let mut outstation = Dnp3Outstation::new();
        let mut packet = framed(function::READ, &[60, 2, 0x06]);
        // Flip a bit in the header CRC.
        packet[8] ^= 0x01;
        assert!(matches!(
            run(&mut outstation, &packet),
            Outcome::ProtocolError(_)
        ));
        // Flip a bit inside the body block.
        let mut packet = framed(function::READ, &[60, 2, 0x06]);
        let last = packet.len() - 3;
        packet[last] ^= 0x10;
        assert!(matches!(
            run(&mut outstation, &packet),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn wrong_destination_is_ignored() {
        let mut outstation = Dnp3Outstation::new();
        let mut header = vec![0x05, 0x64, 8u8, 0xC4];
        header.extend_from_slice(&99u16.to_le_bytes());
        header.extend_from_slice(&1u16.to_le_bytes());
        let user_data = [0xC0, 0xC0, function::READ];
        let mut packet = header.clone();
        packet.extend_from_slice(&crc16_dnp(&header).to_le_bytes());
        packet.extend_from_slice(&user_data);
        packet.extend_from_slice(&crc16_dnp(&user_data).to_le_bytes());
        assert!(matches!(
            run(&mut outstation, &packet),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn malformed_link_frames_are_rejected() {
        let mut outstation = Dnp3Outstation::new();
        assert!(matches!(run(&mut outstation, &[]), Outcome::ProtocolError(_)));
        assert!(matches!(
            run(&mut outstation, &[0x05, 0x65, 5, 0xC4, 0, 4, 1, 0, 0, 0]),
            Outcome::ProtocolError(_)
        ));
    }

    #[test]
    fn default_model_packets_are_processed() {
        let mut outstation = Dnp3Outstation::new();
        for model in data_models().models() {
            let packet = emit_default(model).unwrap();
            let outcome = run(&mut outstation, &packet);
            assert!(
                !outcome.is_fault(),
                "{}: default packet must not fault",
                model.name()
            );
            assert!(
                outcome.response().is_some(),
                "{}: default packet should get a response, got {outcome:?}",
                model.name()
            );
        }
    }

    #[test]
    fn models_share_link_layer_rules() {
        let set = data_models();
        assert!(set.len() >= 9);
        assert!(set.rule_overlap() > 0.4, "overlap: {}", set.rule_overlap());
    }
}

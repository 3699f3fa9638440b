//! The ICCP / TASE.2 server target (stand-in for `libiec_iccp_mod`).
//!
//! ICCP (Inter-Control Center Communications Protocol, IEC 60870-6 / TASE.2)
//! runs on top of MMS. This target models the library the paper fuzzed: an
//! association handshake, bilateral-table lookups, data-value (indication
//! point) reads/writes, data-set creation and transfer-set reporting — with
//! four planted faults matching the `libiec_iccp_mod` row of Table I:
//!
//! 1. **SEGV** in the association handler: the peer's AP title is copied via
//!    an index derived from an unvalidated length octet;
//! 2. **SEGV** in the data-set handler: a data-set referencing more entries
//!    than the request carries walks past the element array;
//! 3. **SEGV** in the transfer-set report builder: a report interval of zero
//!    makes the scheduler divide and index with a wrapped value;
//! 4. **heap buffer overflow** in the information-message handler: the
//!    `InfoReference` copy trusts the 16-bit size field and overflows the
//!    fixed 64-byte buffer of the original implementation.

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    BlockBuilder, BytesSpec, DataModelBuilder, DataModelSet, NumberSpec, Relation, StrSpec,
};

use crate::common::{read_u16_be, PointDatabase};
use crate::{Fault, FaultKind, Outcome, SessionPacket, SessionTemplate, Target};

/// ICCP message opcodes (simplified from the real library's MMS mapping).
mod opcode {
    pub const ASSOCIATE: u8 = 0x01;
    pub const CONCLUDE: u8 = 0x02;
    pub const GET_DATA_VALUE: u8 = 0x10;
    pub const SET_DATA_VALUE: u8 = 0x11;
    pub const CREATE_DATA_SET: u8 = 0x20;
    pub const READ_DATA_SET: u8 = 0x21;
    pub const START_TRANSFER_SET: u8 = 0x30;
    pub const INFORMATION_MESSAGE: u8 = 0x40;
}

/// Size of the fixed InfoReference buffer in the original C implementation.
const INFO_REFERENCE_BUFFER: usize = 64;

/// Maximum number of entries a data set may hold.
const MAX_DATA_SET_ENTRIES: usize = 32;

/// The ICCP / TASE.2 server.
#[derive(Debug)]
pub struct IccpServer {
    db: PointDatabase,
    associated: bool,
    /// Data sets created: each one's references are parsed and checked,
    /// but only the count is ever read back.
    data_sets: usize,
    transfer_sets_started: u32,
}

impl IccpServer {
    /// Creates a server with a small bilateral table of indication points.
    #[must_use]
    pub fn new() -> Self {
        let mut db = PointDatabase::default();
        db.set_named_point("icc1/VoltageA", 230.1);
        db.set_named_point("icc1/VoltageB", 229.8);
        db.set_named_point("icc1/BreakerState", 1.0);
        db.set_named_point("icc1/Frequency", 50.02);
        Self {
            db,
            associated: false,
            data_sets: 0,
            transfer_sets_started: 0,
        }
    }

    /// Number of transfer sets started so far.
    #[must_use]
    pub fn transfer_sets_started(&self) -> u32 {
        self.transfer_sets_started
    }

    /// Number of data sets created so far.
    #[must_use]
    pub fn data_set_count(&self) -> usize {
        self.data_sets
    }

    fn read_reference(body: &[u8], offset: usize) -> Option<(&str, usize)> {
        let length = usize::from(*body.get(offset)?);
        let bytes = body.get(offset + 1..offset + 1 + length)?;
        let text = std::str::from_utf8(bytes).ok()?;
        Some((text, offset + 1 + length))
    }

    /// Serves one message. A lookup that finds no point or data set is
    /// still answered (with an error code), so it is a [`Outcome::Response`].
    #[allow(clippy::too_many_lines)]
    fn handle_message(&mut self, opcode: u8, body: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        match opcode {
            opcode::ASSOCIATE => {
                cov_edge!(ctx);
                // Body: version(2) ap-title-length(1) ap-title(n) bltable-id…
                if body.len() < 3 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let version = read_u16_be(body, 0).expect("length checked");
                if version != 0x0001 && version != 0x0002 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let ap_title_length = usize::from(body[2]);
                // Planted bug 1 (Table I, libiec_iccp_mod, SEGV): the length
                // octet is used to index the receive buffer without checking
                // it against the actual message size.
                if ap_title_length > body.len().saturating_sub(3) {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::Segv,
                        "acse.c:parseApTitle",
                    ));
                }
                cov_edge!(ctx);
                self.associated = true;
                Outcome::Response
            }
            opcode::CONCLUDE => {
                cov_edge!(ctx);
                self.associated = false;
                Outcome::Response
            }
            opcode::GET_DATA_VALUE => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let Some((reference, _)) = Self::read_reference(body, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                cov_edge!(ctx);
                if self.db.named_point(reference).is_some() {
                    cov_edge!(ctx);
                    // Per-point handlers of the original bilateral table.
                    cov_edge!(ctx, reference.bytes().map(u32::from).sum::<u32>());
                } else {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            opcode::SET_DATA_VALUE => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let Some((reference, next)) = Self::read_reference(body, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some(raw) = body.get(next..next + 4) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                cov_edge!(ctx);
                let value = f64::from(f32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]));
                if self.db.named_point(reference).is_some() {
                    cov_edge!(ctx);
                    cov_edge!(ctx, reference.bytes().map(u32::from).sum::<u32>());
                    cov_edge!(ctx, raw[0] >> 3);
                    self.db.set_named_point(reference.to_string(), value);
                } else {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            opcode::CREATE_DATA_SET => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                if body.is_empty() {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let declared_entries = usize::from(body[0]);
                if declared_entries == 0 || declared_entries > MAX_DATA_SET_ENTRIES {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let mut offset = 1usize;
                for _ in 0..declared_entries {
                    cov_edge!(ctx);
                    match Self::read_reference(body, offset) {
                        Some((_, next)) => offset = next,
                        None => {
                            cov_edge!(ctx);
                            // Planted bug 2 (Table I, SEGV): the element loop
                            // trusts the declared count and dereferences a
                            // NULL entry pointer when the request runs out of
                            // references early.
                            return Outcome::Fault(Fault::new(
                                FaultKind::Segv,
                                "data_sets.c:createDataSet",
                            ));
                        }
                    }
                }
                cov_edge!(ctx);
                cov_edge!(ctx, declared_entries);
                self.data_sets += 1;
                Outcome::Response
            }
            opcode::READ_DATA_SET => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let Some(&index) = body.first() else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                cov_edge!(ctx);
                if usize::from(index) < self.data_sets {
                    cov_edge!(ctx);
                } else {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            opcode::START_TRANSFER_SET => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                // Body: data-set index(1) report-interval(2) rbe-flag(1).
                if body.len() < 4 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                let data_set_index = usize::from(body[0]);
                let interval = read_u16_be(body, 1).expect("length checked");
                if data_set_index >= self.data_sets {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                // Planted bug 3 (Table I, SEGV): interval zero makes the
                // original scheduler compute `next_report = now % interval`
                // and index the report ring with the wrapped result.
                if interval == 0 {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::Segv,
                        "transfer_sets.c:scheduleReport",
                    ));
                }
                if interval > 3600 {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                cov_edge!(ctx);
                cov_edge!(ctx, data_set_index);
                cov_edge!(ctx, interval / 60);
                self.transfer_sets_started += 1;
                Outcome::Response
            }
            opcode::INFORMATION_MESSAGE => {
                cov_edge!(ctx);
                if !self.associated {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                // Body: info-reference-size(2) info-reference(n) message…
                let Some(size) = read_u16_be(body, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let reference = body.get(2..2 + usize::from(size));
                // Planted bug 4 (Table I, heap buffer overflow): the copy
                // into the fixed InfoReference buffer trusts the size field.
                if usize::from(size) > INFO_REFERENCE_BUFFER {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::HeapBufferOverflow,
                        "information_messages.c:copyInfoReference",
                    ));
                }
                if reference.is_none() {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                cov_edge!(ctx);
                cov_edge!(ctx, size / 4);
                Outcome::Response
            }
            _ => {
                cov_edge!(ctx);
                Outcome::ProtocolError
            }
        }
    }
}

impl Default for IccpServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for IccpServer {
    fn name(&self) -> &'static str {
        "libiec_iccp_mod"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // Header: magic "T2" (0x54 0x32), opcode(1), length(2), body.
        if packet.len() < 5 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        if packet[0] != 0x54 || packet[1] != 0x32 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let opcode = packet[2];
        let length = usize::from(read_u16_be(packet, 3).expect("length checked"));
        if length != packet.len() - 5 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        cov_edge!(ctx);
        let body = &packet[5..];
        self.handle_message(opcode, body, ctx)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        // TASE.2 services answer "not associated" until the associate
        // handshake succeeds, so a session is associate → mutated service
        // requests → conclude. Body: version 0x0001, AP title "icc1".
        Some(SessionTemplate::new(
            vec![SessionPacket::new(
                vec![
                    0x54, 0x32, // magic "T2"
                    0x01, // ASSOCIATE
                    0x00, 0x07, // body length
                    0x00, 0x01, // TASE.2 version 1
                    0x04, b'i', b'c', b'c', b'1', // AP title
                ],
                "associate",
            )],
            vec![SessionPacket::new(
                vec![0x54, 0x32, 0x02, 0x00, 0x00],
                "conclude",
            )],
        ))
    }
}

/// The format specification of the ICCP packets the fuzzer generates.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("iccp");

    let with_header = |name: &str, opcode: u64, body: BlockBuilder| {
        DataModelBuilder::new(name)
            .number_with_rule("magic1", NumberSpec::u8().fixed_value(0x54), "iccp-magic")
            .number_with_rule("magic2", NumberSpec::u8().fixed_value(0x32), "iccp-magic")
            .number("opcode", NumberSpec::u8().fixed_value(opcode))
            .number_with_rule(
                "length",
                NumberSpec::u16_be().relation(Relation::size_of("body")),
                "iccp-length",
            )
            .chunk(body.rule("iccp-body").build())
            .build()
            .expect("iccp data model is statically valid")
    };

    set.push(with_header(
        "associate",
        u64::from(opcode::ASSOCIATE),
        BlockBuilder::new("body")
            .number("version", NumberSpec::u16_be().allowed_values(vec![1, 2]))
            // Coarse-grained: the pit treats the AP-title length as an
            // ordinary byte rather than deriving it from the title, so the
            // fuzzer can produce the overclaiming packets that reach the
            // parseApTitle bug.
            .number("ap_title_length", NumberSpec::u8().default_value(8))
            .str("ap_title", StrSpec::fixed(8).default_content("ctrl-ctr"))
            .number("bilateral_table", NumberSpec::u8().default_value(1)),
    ));

    set.push(with_header(
        "get_data_value",
        u64::from(opcode::GET_DATA_VALUE),
        BlockBuilder::new("body")
            .number_with_rule(
                "reference_length",
                NumberSpec::u8().relation(Relation::size_of("reference")),
                "iccp-reference-length",
            )
            .str_with_default_rule("reference", "icc1/VoltageA", "iccp-reference"),
    ));

    set.push(with_header(
        "set_data_value",
        u64::from(opcode::SET_DATA_VALUE),
        BlockBuilder::new("body")
            .number_with_rule(
                "reference_length_set",
                NumberSpec::u8().relation(Relation::size_of("reference_set")),
                "iccp-reference-length",
            )
            .str_with_default_rule("reference_set", "icc1/VoltageB", "iccp-reference")
            .bytes(
                "value_set",
                BytesSpec::fixed(4).default_content(231.0f32.to_be_bytes().to_vec()),
            ),
    ));

    set.push(with_header(
        "create_data_set",
        u64::from(opcode::CREATE_DATA_SET),
        BlockBuilder::new("body")
            .number("entry_count", NumberSpec::u8().fixed_value(2))
            .number_with_rule(
                "entry1_length",
                NumberSpec::u8().relation(Relation::size_of("entry1")),
                "iccp-reference-length",
            )
            .str_with_default_rule("entry1", "icc1/VoltageA", "iccp-reference")
            .number_with_rule(
                "entry2_length",
                NumberSpec::u8().relation(Relation::size_of("entry2")),
                "iccp-reference-length",
            )
            .str_with_default_rule("entry2", "icc1/Frequency", "iccp-reference"),
    ));

    set.push(with_header(
        "start_transfer_set",
        u64::from(opcode::START_TRANSFER_SET),
        BlockBuilder::new("body")
            .number("data_set_index", NumberSpec::u8())
            .number("report_interval", NumberSpec::u16_be().default_value(60))
            .number("report_by_exception", NumberSpec::u8().allowed_values(vec![0, 1])),
    ));

    set.push(with_header(
        "information_message",
        u64::from(opcode::INFORMATION_MESSAGE),
        BlockBuilder::new("body")
            // Coarse-grained: the size field is not tied to the reference, so
            // oversized claims (the copyInfoReference overflow) can appear.
            .number("info_reference_size", NumberSpec::u16_be().default_value(12))
            .str("info_reference", StrSpec::fixed(12).default_content("alarm/zone-1"))
            .str("message_text", StrSpec::remainder().default_content("breaker trip")),
    ));

    set
}

/// Helper extension used by the model definitions above: a fixed-length
/// string chunk whose default content determines its length, with an
/// explicit rule name.
trait StrWithRule {
    fn str_with_default_rule(
        self,
        name: &str,
        default: &str,
        rule: &str,
    ) -> Self;
}

impl StrWithRule for BlockBuilder {
    fn str_with_default_rule(self, name: &str, default: &str, rule: &str) -> Self {
        self.chunk(
            peachstar_datamodel::Chunk::str(
                name,
                StrSpec::fixed(default.len()).default_content(default),
            )
            .with_rule(rule),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::traced;
    use peachstar_datamodel::emit::emit_default;

    fn run(server: &mut IccpServer, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        server.process(packet, &mut ctx)
    }

    fn message(opcode: u8, body: &[u8]) -> Vec<u8> {
        let mut packet = vec![0x54, 0x32, opcode];
        packet.extend_from_slice(&(body.len() as u16).to_be_bytes());
        packet.extend_from_slice(body);
        packet
    }

    fn associate(server: &mut IccpServer) {
        let mut body = vec![0x00, 0x01, 0x04];
        body.extend_from_slice(b"ctrl");
        body.push(0x01);
        assert_eq!(run(server, &message(opcode::ASSOCIATE, &body)), Outcome::Response);
        assert!(server.associated);
    }

    fn reference(text: &str) -> Vec<u8> {
        let mut out = vec![text.len() as u8];
        out.extend_from_slice(text.as_bytes());
        out
    }

    #[test]
    fn associate_then_read_point() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let (known, known_trace) = traced(
            &mut server,
            &message(opcode::GET_DATA_VALUE, &reference("icc1/VoltageA")),
        );
        assert_eq!(known, Outcome::Response);
        let (unknown, unknown_trace) = traced(
            &mut server,
            &message(opcode::GET_DATA_VALUE, &reference("icc1/VoltageZ")),
        );
        assert_eq!(unknown, Outcome::Response, "an unknown point is answered too");
        assert_ne!(known_trace, unknown_trace, "a known point has its own handler");
    }

    #[test]
    fn requests_before_association_are_rejected() {
        let mut server = IccpServer::new();
        let outcome = run(
            &mut server,
            &message(opcode::GET_DATA_VALUE, &reference("icc1/VoltageA")),
        );
        assert_eq!(outcome, Outcome::ProtocolError);
    }

    #[test]
    fn set_then_get_roundtrip() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut body = reference("icc1/Frequency");
        body.extend_from_slice(&49.95f32.to_be_bytes());
        assert_eq!(
            run(&mut server, &message(opcode::SET_DATA_VALUE, &body)),
            Outcome::Response
        );
        assert!((server.db.named_point("icc1/Frequency").unwrap() - 49.95).abs() < 0.01);
    }

    #[test]
    fn data_set_create_and_read() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut body = vec![2u8];
        body.extend(reference("icc1/VoltageA"));
        body.extend(reference("icc1/VoltageB"));
        let outcome = run(&mut server, &message(opcode::CREATE_DATA_SET, &body));
        assert_eq!(outcome, Outcome::Response);
        assert_eq!(server.data_set_count(), 1);

        let (existing, existing_trace) = traced(&mut server, &message(opcode::READ_DATA_SET, &[0]));
        assert_eq!(existing, Outcome::Response);
        let (missing, missing_trace) = traced(&mut server, &message(opcode::READ_DATA_SET, &[1]));
        assert_eq!(missing, Outcome::Response, "an unknown data set is answered too");
        assert_ne!(existing_trace, missing_trace);
    }

    #[test]
    fn planted_segv_in_associate_ap_title() {
        let mut server = IccpServer::new();
        // Version ok, but the AP title length claims more bytes than exist.
        let body = vec![0x00, 0x01, 0x30, b'x'];
        let outcome = run(&mut server, &message(opcode::ASSOCIATE, &body));
        let fault = outcome.fault().expect("SEGV in parseApTitle");
        assert_eq!(fault.site, "acse.c:parseApTitle");
        assert_eq!(fault.kind, FaultKind::Segv);
    }

    #[test]
    fn planted_segv_in_create_data_set() {
        let mut server = IccpServer::new();
        associate(&mut server);
        // Claims 4 entries but only carries one reference.
        let mut body = vec![4u8];
        body.extend(reference("icc1/VoltageA"));
        let outcome = run(&mut server, &message(opcode::CREATE_DATA_SET, &body));
        let fault = outcome.fault().expect("SEGV in createDataSet");
        assert_eq!(fault.site, "data_sets.c:createDataSet");
    }

    #[test]
    fn planted_segv_in_transfer_set_interval_zero() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut body = vec![2u8];
        body.extend(reference("icc1/VoltageA"));
        body.extend(reference("icc1/VoltageB"));
        run(&mut server, &message(opcode::CREATE_DATA_SET, &body));
        // interval = 0
        let outcome = run(
            &mut server,
            &message(opcode::START_TRANSFER_SET, &[0, 0x00, 0x00, 0x01]),
        );
        let fault = outcome.fault().expect("SEGV in scheduleReport");
        assert_eq!(fault.site, "transfer_sets.c:scheduleReport");
    }

    #[test]
    fn valid_transfer_set_starts() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut body = vec![1u8];
        body.extend(reference("icc1/VoltageA"));
        run(&mut server, &message(opcode::CREATE_DATA_SET, &body));
        let outcome = run(
            &mut server,
            &message(opcode::START_TRANSFER_SET, &[0, 0x00, 0x3c, 0x01]),
        );
        assert_eq!(outcome, Outcome::Response);
        assert_eq!(server.transfer_sets_started(), 1);
    }

    #[test]
    fn planted_heap_overflow_in_information_message() {
        let mut server = IccpServer::new();
        associate(&mut server);
        // Info reference size of 300 bytes overflows the 64-byte buffer.
        let mut body = vec![0x01, 0x2c];
        body.extend(std::iter::repeat_n(b'A', 20));
        let outcome = run(&mut server, &message(opcode::INFORMATION_MESSAGE, &body));
        let fault = outcome.fault().expect("heap overflow in copyInfoReference");
        assert_eq!(fault.kind, FaultKind::HeapBufferOverflow);
    }

    #[test]
    fn small_information_message_is_fine() {
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut body = vec![0x00, 0x05];
        body.extend_from_slice(b"alarm");
        body.extend_from_slice(b"text");
        assert_eq!(
            run(&mut server, &message(opcode::INFORMATION_MESSAGE, &body)),
            Outcome::Response
        );
    }

    #[test]
    fn four_distinct_bug_sites_exist() {
        let mut sites = std::collections::HashSet::new();
        // Bug 1 (pre-association).
        let mut server = IccpServer::new();
        if let Some(fault) = run(
            &mut server,
            &message(opcode::ASSOCIATE, &[0x00, 0x01, 0x30, b'x']),
        )
        .fault()
        {
            sites.insert(fault.site);
        }
        // Bugs 2-4 need an association.
        let mut server = IccpServer::new();
        associate(&mut server);
        let mut short_dataset = vec![4u8];
        short_dataset.extend(reference("icc1/VoltageA"));
        let mut dataset = vec![1u8];
        dataset.extend(reference("icc1/VoltageA"));
        run(&mut server, &message(opcode::CREATE_DATA_SET, &dataset));
        let probes = vec![
            message(opcode::CREATE_DATA_SET, &short_dataset),
            message(opcode::START_TRANSFER_SET, &[0, 0x00, 0x00, 0x01]),
            message(opcode::INFORMATION_MESSAGE, &[0x01, 0x2c, b'A', b'B']),
        ];
        for probe in probes {
            if let Some(fault) = run(&mut server, &probe).fault() {
                sites.insert(fault.site);
            }
        }
        assert_eq!(sites.len(), 4, "three SEGV sites plus one overflow site");
    }

    #[test]
    fn malformed_header_is_a_protocol_error() {
        let mut server = IccpServer::new();
        assert_eq!(run(&mut server, &[]), Outcome::ProtocolError);
        assert_eq!(
            run(&mut server, &[0x55, 0x32, 0x01, 0x00, 0x00]),
            Outcome::ProtocolError
        );
        assert_eq!(
            run(&mut server, &[0x54, 0x32, 0x01, 0x00, 0x09]),
            Outcome::ProtocolError
        );
    }

    #[test]
    fn default_model_packets_do_not_fault() {
        let mut server = IccpServer::new();
        // Associate first so the deeper models are reachable.
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
    fn models_share_reference_rules() {
        let set = data_models();
        assert!(set.len() >= 6);
        assert!(set.rule_overlap() > 0.2, "overlap: {}", set.rule_overlap());
    }
}

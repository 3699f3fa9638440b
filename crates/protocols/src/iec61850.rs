//! The IEC 61850 MMS server target (stand-in for libiec61850).
//!
//! Models the deepest protocol stack of the six targets: TPKT framing,
//! a minimal COTP data TPDU, then an MMS layer encoded with simplified
//! BER-style TLV records. Supported MMS services: initiate, conclude,
//! identify, getNameList, read, write and getVariableAccessAttributes.
//! The nested TLV walk gives this target by far the largest number of
//! instrumented branches, which is why the paper reports thousands of paths
//! for libiec61850 versus dozens for IEC104. No Table I faults are planted
//! here.

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    BlockBuilder, BytesSpec, DataModelBuilder, DataModelSet, NumberSpec, Relation, StrSpec,
};

use crate::common::PointDatabase;
use crate::{Outcome, SessionPacket, SessionTemplate, Target};

/// MMS PDU tags (simplified confirmed-request choice values).
mod service {
    pub const INITIATE: u8 = 0xA8;
    pub const CONCLUDE: u8 = 0x8B;
    pub const CONFIRMED_REQUEST: u8 = 0xA0;
}

/// Confirmed-service tags inside a confirmed request.
mod confirmed {
    pub const GET_NAME_LIST: u8 = 0x01;
    pub const IDENTIFY: u8 = 0x02;
    pub const READ: u8 = 0x04;
    pub const WRITE: u8 = 0x05;
    pub const GET_VARIABLE_ATTRIBUTES: u8 = 0x06;
}

/// A parsed TLV record.
#[derive(Debug, Clone, Copy)]
struct Tlv<'packet> {
    tag: u8,
    value: &'packet [u8],
}

/// Reads one TLV at `offset`; returns the record and the offset past it.
fn read_tlv(data: &[u8], offset: usize) -> Option<(Tlv<'_>, usize)> {
    let tag = *data.get(offset)?;
    let first_len = *data.get(offset + 1)?;
    let (length, header) = if first_len & 0x80 == 0 {
        (usize::from(first_len), 2)
    } else {
        let count = usize::from(first_len & 0x7f);
        if count == 0 || count > 2 {
            return None;
        }
        let mut length = 0usize;
        for i in 0..count {
            length = (length << 8) | usize::from(*data.get(offset + 2 + i)?);
        }
        (length, 2 + count)
    };
    let start = offset + header;
    let value = data.get(start..start + length)?;
    Some((Tlv { tag, value }, start + length))
}

/// Association state of the MMS server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Association {
    /// No MMS association established.
    Closed,
    /// Initiate accepted; confirmed services allowed.
    Open,
}

/// The MMS / IEC 61850 server.
#[derive(Debug)]
pub struct MmsServer {
    db: PointDatabase,
    association: Association,
    invoke_counter: u32,
}

impl MmsServer {
    /// Creates a server with a small default IED data model.
    #[must_use]
    pub fn new() -> Self {
        let mut db = PointDatabase::default();
        db.set_named_point("simpleIOGenericIO/GGIO1.AnIn1", 1.25);
        db.set_named_point("simpleIOGenericIO/GGIO1.AnIn2", 2.5);
        db.set_named_point("simpleIOGenericIO/GGIO1.SPCSO1", 0.0);
        db.set_named_point("simpleIOGenericIO/LLN0.Mod", 1.0);
        Self {
            db,
            association: Association::Closed,
            invoke_counter: 0,
        }
    }

    /// Number of confirmed requests served.
    #[must_use]
    pub fn invoke_counter(&self) -> u32 {
        self.invoke_counter
    }

    /// Serves one confirmed request. A DataAccessError (object
    /// non-existent, type inconsistent) is an answer too, so it is a
    /// [`Outcome::Response`].
    fn handle_confirmed(&mut self, body: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // Confirmed request: invokeId TLV (0x02) then service TLV.
        let Some((invoke, next)) = read_tlv(body, 0) else {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        };
        if invoke.tag != 0x02 || invoke.value.is_empty() || invoke.value.len() > 4 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        cov_edge!(ctx, invoke.value.len());
        let Some((request, _)) = read_tlv(body, next) else {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        };
        self.invoke_counter += 1;
        match request.tag & 0x1f {
            confirmed::IDENTIFY => {
                cov_edge!(ctx);
                Outcome::Response
            }
            confirmed::GET_NAME_LIST => {
                cov_edge!(ctx);
                // Object class TLV inside the request selects LD vs LN lists.
                let Some((class, _)) = read_tlv(request.value, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                cov_edge!(ctx);
                let names: &[&str] = if class.value.first() == Some(&0x09) {
                    &["simpleIOGenericIO"]
                } else {
                    &["GGIO1", "LLN0", "LPHD1"]
                };
                for _ in names {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            confirmed::READ => {
                cov_edge!(ctx);
                // Variable specification: domain name + item name strings.
                let Some((var_spec, _)) = read_tlv(request.value, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some((domain, after_domain)) = read_tlv(var_spec.value, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some((item, _)) = read_tlv(var_spec.value, after_domain) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let domain = String::from_utf8_lossy(domain.value);
                let item = String::from_utf8_lossy(item.value).replace('$', ".");
                let reference = format!("{domain}/{item}");
                cov_edge!(ctx);
                if self.db.named_point(&reference).is_some() {
                    cov_edge!(ctx);
                    // Per-object access handlers of the original stack.
                    cov_edge!(ctx, reference.len());
                    cov_edge!(ctx, reference.bytes().map(u32::from).sum::<u32>());
                } else {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            confirmed::WRITE => {
                cov_edge!(ctx);
                let Some((var_spec, after_spec)) = read_tlv(request.value, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some((domain, after_domain)) = read_tlv(var_spec.value, 0) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some((item, _)) = read_tlv(var_spec.value, after_domain) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let Some((data, _)) = read_tlv(request.value, after_spec) else {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                };
                let domain = String::from_utf8_lossy(domain.value);
                let item = String::from_utf8_lossy(item.value).replace('$', ".");
                let reference = format!("{domain}/{item}");
                cov_edge!(ctx);
                let value = match data.value.len() {
                    4 => f64::from(f32::from_be_bytes([
                        data.value[0],
                        data.value[1],
                        data.value[2],
                        data.value[3],
                    ])),
                    1 => f64::from(data.value[0]),
                    _ => {
                        cov_edge!(ctx);
                        return Outcome::Response;
                    }
                };
                if self.db.named_point(&reference).is_some() {
                    cov_edge!(ctx);
                    cov_edge!(ctx, reference.bytes().map(u32::from).sum::<u32>());
                    cov_edge!(ctx, data.value.len());
                    self.db.set_named_point(reference, value);
                } else {
                    cov_edge!(ctx);
                }
                Outcome::Response
            }
            confirmed::GET_VARIABLE_ATTRIBUTES => {
                cov_edge!(ctx);
                Outcome::Response
            }
            _ => {
                cov_edge!(ctx);
                Outcome::ProtocolError
            }
        }
    }
}

impl Default for MmsServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for MmsServer {
    fn name(&self) -> &'static str {
        "libiec61850"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        // TPKT: version 3, reserved 0, 16-bit length.
        if packet.len() < 7 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        if packet[0] != 0x03 || packet[1] != 0x00 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        let tpkt_length = usize::from(u16::from_be_bytes([packet[2], packet[3]]));
        if tpkt_length != packet.len() {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        // COTP data TPDU: length indicator, code 0xF0, EOT flag.
        let cotp_length = usize::from(packet[4]);
        if cotp_length < 2 || 5 + cotp_length > packet.len() {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        if packet[5] != 0xf0 {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        }
        cov_edge!(ctx);
        let mms = &packet[4 + 1 + cotp_length..];
        let Some((pdu, _)) = read_tlv(mms, 0) else {
            cov_edge!(ctx);
            return Outcome::ProtocolError;
        };
        match pdu.tag {
            service::INITIATE => {
                cov_edge!(ctx);
                self.association = Association::Open;
                Outcome::Response
            }
            service::CONCLUDE => {
                cov_edge!(ctx);
                self.association = Association::Closed;
                Outcome::Response
            }
            service::CONFIRMED_REQUEST => {
                cov_edge!(ctx);
                if self.association != Association::Open {
                    cov_edge!(ctx);
                    return Outcome::ProtocolError;
                }
                self.handle_confirmed(pdu.value, ctx)
            }
            _ => {
                cov_edge!(ctx);
                Outcome::ProtocolError
            }
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn session_template(&self) -> Option<SessionTemplate> {
        // MMS confirmed services are only served inside an association, so
        // a session is initiate-Request → mutated requests → conclude-Request
        // (TPKT + COTP data TPDU framing, as `process` expects).
        Some(SessionTemplate::new(
            vec![SessionPacket::new(
                vec![
                    0x03, 0x00, 0x00, 0x0d, // TPKT: version 3, length 13
                    0x02, 0xf0, 0x80, // COTP data TPDU
                    0xa8, 0x04, 0x80, 0x02, 0x00, 0x01, // initiate-RequestPDU
                ],
                "initiate-Request",
            )],
            vec![SessionPacket::new(
                vec![
                    0x03, 0x00, 0x00, 0x09, // TPKT: version 3, length 9
                    0x02, 0xf0, 0x80, // COTP data TPDU
                    0x8b, 0x00, // conclude-RequestPDU
                ],
                "conclude-Request",
            )],
        ))
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }
}

/// The format specification of the MMS packets the fuzzer generates.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("iec61850");

    let tpkt_cotp = |name: &str, mms: BlockBuilder| {
        DataModelBuilder::new(name)
            .number_with_rule("tpkt_version", NumberSpec::u8().fixed_value(0x03), "tpkt-version")
            .number_with_rule("tpkt_reserved", NumberSpec::u8().fixed_value(0x00), "tpkt-reserved")
            .number_with_rule(
                "tpkt_length",
                NumberSpec::u16_be().relation(Relation::SizeOf {
                    of: "cotp".into(),
                    adjust: 4,
                    scale: 1,
                }),
                "tpkt-length",
            )
            .block(
                BlockBuilder::new("cotp")
                    .number("cotp_length", NumberSpec::u8().fixed_value(0x02))
                    .number("cotp_code", NumberSpec::u8().fixed_value(0xf0))
                    .number("cotp_eot", NumberSpec::u8().fixed_value(0x80))
                    .block(mms),
            )
            .build()
            .expect("mms model is statically valid")
    };

    set.push(tpkt_cotp(
        "initiate",
        BlockBuilder::new("mms_initiate")
            .number("initiate_tag", NumberSpec::u8().fixed_value(0xA8))
            .number(
                "initiate_length",
                NumberSpec::u8().relation(Relation::size_of("initiate_body")),
            )
            .bytes(
                "initiate_body",
                BytesSpec::remainder().default_content(vec![0x80, 0x02, 0x00, 0x01]),
            ),
    ));

    set.push(tpkt_cotp(
        "identify",
        BlockBuilder::new("mms_identify")
            .number("request_tag", NumberSpec::u8().fixed_value(0xA0))
            .number(
                "request_length",
                NumberSpec::u8().relation(Relation::size_of("identify_body")),
            )
            .block(
                BlockBuilder::new("identify_body")
                    .number_with_rule("invoke_tag", NumberSpec::u8().fixed_value(0x02), "mms-invoke-tag")
                    .number_with_rule("invoke_length", NumberSpec::u8().fixed_value(0x01), "mms-invoke-length")
                    .number_with_rule("invoke_id", NumberSpec::u8().default_value(1), "mms-invoke-id")
                    .number("identify_service", NumberSpec::u8().fixed_value(0x82))
                    .number("identify_service_length", NumberSpec::u8().fixed_value(0x00)),
            ),
    ));

    set.push(tpkt_cotp(
        "get_name_list",
        BlockBuilder::new("mms_gnl")
            .number("request_tag_gnl", NumberSpec::u8().fixed_value(0xA0))
            .number(
                "request_length_gnl",
                NumberSpec::u8().relation(Relation::size_of("gnl_body")),
            )
            .block(
                BlockBuilder::new("gnl_body")
                    .number_with_rule("invoke_tag_gnl", NumberSpec::u8().fixed_value(0x02), "mms-invoke-tag")
                    .number_with_rule("invoke_length_gnl", NumberSpec::u8().fixed_value(0x01), "mms-invoke-length")
                    .number_with_rule("invoke_id_gnl", NumberSpec::u8().default_value(2), "mms-invoke-id")
                    .number("gnl_service", NumberSpec::u8().fixed_value(0xA1))
                    .number(
                        "gnl_service_length",
                        NumberSpec::u8().relation(Relation::size_of("gnl_args")),
                    )
                    .block(
                        BlockBuilder::new("gnl_args")
                            .number("class_tag", NumberSpec::u8().fixed_value(0x80))
                            .number("class_length", NumberSpec::u8().fixed_value(0x01))
                            .number("class_value", NumberSpec::u8().allowed_values(vec![0x09, 0x00])),
                    ),
            ),
    ));

    let named_variable_request = |name: &str, service_tag: u64, with_value: bool| {
        let mut spec_block = BlockBuilder::new(format!("{name}_spec"))
            .number_with_rule(
                format!("{name}_domain_tag"),
                NumberSpec::u8().fixed_value(0x1a),
                "mms-string-tag",
            )
            .number(
                format!("{name}_domain_length"),
                NumberSpec::u8().relation(Relation::size_of(format!("{name}_domain"))),
            )
            .str(
                format!("{name}_domain"),
                StrSpec::fixed(17).default_content("simpleIOGenericIO"),
            )
            .number_with_rule(
                format!("{name}_item_tag"),
                NumberSpec::u8().fixed_value(0x1a),
                "mms-string-tag",
            )
            .number(
                format!("{name}_item_length"),
                NumberSpec::u8().relation(Relation::size_of(format!("{name}_item"))),
            )
            .str(
                format!("{name}_item"),
                StrSpec::fixed(11).default_content("GGIO1$AnIn1"),
            );
        spec_block = spec_block.rule("mms-variable-spec");

        let mut args = BlockBuilder::new(format!("{name}_args"))
            .number(
                format!("{name}_spec_tag"),
                NumberSpec::u8().fixed_value(0xA0),
            )
            .number(
                format!("{name}_spec_length"),
                NumberSpec::u8().relation(Relation::size_of(format!("{name}_spec"))),
            )
            .block(spec_block);
        if with_value {
            args = args
                .number(format!("{name}_data_tag"), NumberSpec::u8().fixed_value(0x87))
                .number(
                    format!("{name}_data_length"),
                    NumberSpec::u8().relation(Relation::size_of(format!("{name}_data"))),
                )
                .bytes(
                    format!("{name}_data"),
                    BytesSpec::fixed(4).default_content(vec![0x40, 0x20, 0x00, 0x00]),
                );
        }

        tpkt_cotp(
            name,
            BlockBuilder::new(format!("mms_{name}"))
                .number(format!("{name}_request_tag"), NumberSpec::u8().fixed_value(0xA0))
                .number(
                    format!("{name}_request_length"),
                    NumberSpec::u8().relation(Relation::size_of(format!("{name}_body"))),
                )
                .block(
                    BlockBuilder::new(format!("{name}_body"))
                        .number_with_rule(
                            format!("{name}_invoke_tag"),
                            NumberSpec::u8().fixed_value(0x02),
                            "mms-invoke-tag",
                        )
                        .number_with_rule(
                            format!("{name}_invoke_length"),
                            NumberSpec::u8().fixed_value(0x01),
                            "mms-invoke-length",
                        )
                        .number_with_rule(
                            format!("{name}_invoke_id"),
                            NumberSpec::u8().default_value(3),
                            "mms-invoke-id",
                        )
                        .number(
                            format!("{name}_service_tag"),
                            NumberSpec::u8().fixed_value(service_tag),
                        )
                        .number(
                            format!("{name}_service_length"),
                            NumberSpec::u8().relation(Relation::size_of(format!("{name}_args"))),
                        )
                        .block(args),
                ),
        )
    };

    set.push(named_variable_request("read", 0xA4, false));
    set.push(named_variable_request("write", 0xA5, true));

    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{total_hits, traced};
    use peachstar_datamodel::emit::emit_default;

    fn run(server: &mut MmsServer, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        server.process(packet, &mut ctx)
    }

    /// One TLV record with a short-form length.
    fn tlv(tag: u8, value: &[u8]) -> Vec<u8> {
        let mut out = vec![tag, value.len() as u8];
        out.extend_from_slice(value);
        out
    }

    fn frame(mms: &[u8]) -> Vec<u8> {
        let mut out = vec![0x03, 0x00];
        out.extend_from_slice(&((mms.len() + 7) as u16).to_be_bytes());
        out.extend_from_slice(&[0x02, 0xf0, 0x80]);
        out.extend_from_slice(mms);
        out
    }

    fn initiate(server: &mut MmsServer) {
        let packet = frame(&tlv(service::INITIATE, &[0x80, 0x02, 0x00, 0x01]));
        assert_eq!(run(server, &packet), Outcome::Response);
        assert_eq!(server.association, Association::Open);
    }

    fn confirmed(invoke_id: u8, service_tag: u8, args: &[u8]) -> Vec<u8> {
        let mut body = tlv(0x02, &[invoke_id]);
        body.extend(tlv(service_tag, args));
        frame(&tlv(service::CONFIRMED_REQUEST, &body))
    }

    /// A read request for `domain`/`item`.
    fn read(invoke_id: u8, domain: &[u8], item: &[u8]) -> Vec<u8> {
        let mut spec = tlv(0x1a, domain);
        spec.extend(tlv(0x1a, item));
        confirmed(invoke_id, 0xA4, &tlv(0xA0, &spec))
    }

    #[test]
    fn initiate_opens_the_association() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        let identify = confirmed(1, 0x82, &[]);
        assert_eq!(run(&mut server, &identify), Outcome::Response);
        assert_eq!(server.invoke_counter(), 1);
    }

    #[test]
    fn confirmed_request_before_initiate_is_rejected() {
        let mut server = MmsServer::new();
        let identify = confirmed(1, 0x82, &[]);
        assert_eq!(run(&mut server, &identify), Outcome::ProtocolError);
    }

    #[test]
    fn get_name_list_walks_the_requested_class() {
        // One logical device, or three logical nodes: one hit per name.
        let mut server = MmsServer::new();
        initiate(&mut server);
        let (devices, device_trace) =
            traced(&mut server, &confirmed(2, 0xA1, &tlv(0x80, &[0x09])));
        let (nodes, node_trace) = traced(&mut server, &confirmed(2, 0xA1, &tlv(0x80, &[0x00])));
        assert_eq!((devices, nodes), (Outcome::Response, Outcome::Response));
        assert_eq!(total_hits(&node_trace), total_hits(&device_trace) + 2);
    }

    #[test]
    fn read_existing_variable_is_answered() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        let (found, found_trace) = traced(&mut server, &read(3, b"simpleIOGenericIO", b"GGIO1$AnIn1"));
        assert_eq!(found, Outcome::Response);
        let (_, missing_trace) = traced(&mut server, &read(3, b"simpleIOGenericIO", b"GGIO1$Nope"));
        assert_ne!(found_trace, missing_trace, "an existing object has its own handler");
    }

    #[test]
    fn read_missing_variable_returns_access_error() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        let outcome = run(&mut server, &read(4, b"simpleIOGenericIO", b"GGIO1$Nope"));
        assert_eq!(outcome, Outcome::Response, "a DataAccessError answers too");
        assert_eq!(server.db.named_point("simpleIOGenericIO/GGIO1.Nope"), None);
    }

    #[test]
    fn write_updates_the_point_database() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        let mut spec = tlv(0x1a, b"simpleIOGenericIO");
        spec.extend(tlv(0x1a, b"GGIO1$AnIn2"));
        let mut args = tlv(0xA0, &spec);
        args.extend(tlv(0x87, &7.5f32.to_be_bytes()));
        let packet = confirmed(5, 0xA5, &args);
        assert_eq!(run(&mut server, &packet), Outcome::Response);
        assert_eq!(
            server.db.named_point("simpleIOGenericIO/GGIO1.AnIn2"),
            Some(7.5)
        );
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        assert_eq!(run(&mut server, &[]), Outcome::ProtocolError);
        assert_eq!(
            run(&mut server, &[0x04, 0x00, 0x00, 0x07, 0x02, 0xf0, 0x80]),
            Outcome::ProtocolError
        );
        // TPKT length lies about the frame size.
        let mut bad = frame(&tlv(service::INITIATE, &[]));
        bad[3] = bad[3].wrapping_add(5);
        assert_eq!(run(&mut server, &bad), Outcome::ProtocolError);
        // Truncated TLV inside the MMS payload.
        let truncated = frame(&[0xA0, 0x20, 0x02]);
        assert_eq!(run(&mut server, &truncated), Outcome::ProtocolError);
    }

    #[test]
    fn conclude_closes_the_association() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        let conclude = frame(&tlv(service::CONCLUDE, &[]));
        assert_eq!(run(&mut server, &conclude), Outcome::Response);
        assert_eq!(server.association, Association::Closed);
        let identify = confirmed(6, 0x82, &[]);
        assert_eq!(run(&mut server, &identify), Outcome::ProtocolError);
    }

    #[test]
    fn tlv_long_form_lengths_are_supported() {
        let value = vec![0xAB; 200];
        let mut encoded = vec![0x30, 0x81, 200];
        encoded.extend_from_slice(&value);
        let (tlv, next) = read_tlv(&encoded, 0).unwrap();
        assert_eq!(tlv.value.len(), 200);
        assert_eq!(next, encoded.len());
        assert!(read_tlv(&encoded[..50], 0).is_none(), "truncated long form");
    }

    #[test]
    fn default_model_packets_are_processed() {
        let mut server = MmsServer::new();
        initiate(&mut server);
        for model in data_models().models() {
            let packet = emit_default(model).unwrap();
            let outcome = run(&mut server, &packet);
            assert!(
                !outcome.is_fault(),
                "{}: default packet must not fault",
                model.name()
            );
            assert!(
                outcome == Outcome::Response,
                "{}: default packet should get a response, got {outcome:?}",
                model.name()
            );
        }
    }

    #[test]
    fn models_share_invoke_and_string_rules() {
        let set = data_models();
        assert!(set.len() >= 5);
        assert!(set.rule_overlap() > 0.2, "overlap: {}", set.rule_overlap());
    }
}

//! The Modbus/TCP server target (stand-in for libmodbus).
//!
//! Implements MBAP framing plus the common public function codes: read
//! coils / discrete inputs / holding registers / input registers, write
//! single coil / register, write multiple coils / registers, mask write,
//! read/write multiple and a small diagnostics subset. Two faults mirroring
//! the libmodbus row of Table I are planted:
//!
//! * a **heap use-after-free** analogue on the `write_multiple_registers`
//!   path: a preceding diagnostic "restart communications option" request
//!   frees the register mapping, and the stale mapping is reused by the next
//!   deep write request;
//! * a **SEGV** analogue in the `read_write_multiple_registers` handler,
//!   which indexes the register mapping with an unvalidated combined offset.

use peachstar_coverage::{cov_edge, TraceContext};
use peachstar_datamodel::{
    BlockBuilder, DataModelBuilder, DataModelSet, NumberSpec, Relation,
};

use crate::common::{read_u16_be, PointDatabase};
use crate::{Fault, FaultKind, Outcome, Target};

/// Modbus exception codes used in error responses.
mod exception {
    pub const ILLEGAL_FUNCTION: u8 = 0x01;
    pub const ILLEGAL_DATA_ADDRESS: u8 = 0x02;
    pub const ILLEGAL_DATA_VALUE: u8 = 0x03;
}

/// Function codes implemented by the server.
mod function {
    pub const READ_COILS: u8 = 0x01;
    pub const READ_DISCRETE_INPUTS: u8 = 0x02;
    pub const READ_HOLDING_REGISTERS: u8 = 0x03;
    pub const READ_INPUT_REGISTERS: u8 = 0x04;
    pub const WRITE_SINGLE_COIL: u8 = 0x05;
    pub const WRITE_SINGLE_REGISTER: u8 = 0x06;
    pub const DIAGNOSTICS: u8 = 0x08;
    pub const WRITE_MULTIPLE_COILS: u8 = 0x0F;
    pub const WRITE_MULTIPLE_REGISTERS: u8 = 0x10;
    pub const MASK_WRITE_REGISTER: u8 = 0x16;
    pub const READ_WRITE_MULTIPLE_REGISTERS: u8 = 0x17;
}

/// The Modbus/TCP server.
///
/// See the [module documentation](self) for the planted faults.
#[derive(Debug)]
pub struct ModbusServer {
    db: PointDatabase,
    /// Set by the diagnostics "restart communications" sub-function; models
    /// the freed register mapping of the planted use-after-free.
    mapping_freed: bool,
    requests_served: u64,
}

impl ModbusServer {
    /// Creates a server with the default 128-register / 64-coil process
    /// image.
    #[must_use]
    pub fn new() -> Self {
        Self {
            db: PointDatabase::default(),
            mapping_freed: false,
            requests_served: 0,
        }
    }

    /// Number of requests processed since creation or the last reset.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    fn exception(transaction: u16, unit: u8, function: u8, code: u8) -> Outcome {
        crate::sink::response_with(9, |response| {
            response.extend_from_slice(&transaction.to_be_bytes());
            response.extend_from_slice(&[0x00, 0x00, 0x00, 0x03, unit, function | 0x80, code]);
        })
    }

    fn reply(transaction: u16, unit: u8, pdu: &[u8]) -> Outcome {
        crate::sink::response_with(7 + pdu.len(), |response| {
            response.extend_from_slice(&transaction.to_be_bytes());
            response.extend_from_slice(&[0x00, 0x00]);
            response.extend_from_slice(&((pdu.len() + 1) as u16).to_be_bytes());
            response.push(unit);
            response.extend_from_slice(pdu);
        })
    }

    #[allow(clippy::too_many_lines)]
    fn handle_pdu(
        &mut self,
        transaction: u16,
        unit: u8,
        pdu: &[u8],
        ctx: &mut TraceContext,
    ) -> Outcome {
        cov_edge!(ctx);
        let Some(&function) = pdu.first() else {
            cov_edge!(ctx);
            return crate::sink::protocol_error("empty PDU");
        };
        let body = &pdu[1..];
        match function {
            function::READ_COILS | function::READ_DISCRETE_INPUTS => {
                cov_edge!(ctx);
                let (Some(start), Some(quantity)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                if quantity == 0 || quantity > 2000 {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                let end = usize::from(start) + usize::from(quantity);
                if end > self.db.coil_count() {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                // Data-dependent dispatch: different coil zones are backed by
                // different callback blocks in the original server.
                cov_edge!(ctx, start / 8);
                cov_edge!(ctx, quantity / 8);
                let byte_count = usize::from(quantity).div_ceil(8);
                let mut data = vec![0u8; byte_count];
                for offset in 0..usize::from(quantity) {
                    if self.db.coil(usize::from(start) + offset) == Some(true) {
                        cov_edge!(ctx);
                        data[offset / 8] |= 1 << (offset % 8);
                    }
                }
                let mut reply = vec![function, byte_count as u8];
                reply.extend_from_slice(&data);
                Self::reply(transaction, unit, &reply)
            }
            function::READ_HOLDING_REGISTERS | function::READ_INPUT_REGISTERS => {
                cov_edge!(ctx);
                let (Some(start), Some(quantity)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                if quantity == 0 || quantity > 125 {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                let end = usize::from(start) + usize::from(quantity);
                if end > self.db.register_count() {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                cov_edge!(ctx, start / 8);
                cov_edge!(ctx, quantity);
                let mut reply = vec![function, (quantity * 2) as u8];
                for offset in 0..usize::from(quantity) {
                    let value = self.db.register(usize::from(start) + offset).unwrap_or(0);
                    reply.extend_from_slice(&value.to_be_bytes());
                }
                Self::reply(transaction, unit, &reply)
            }
            function::WRITE_SINGLE_COIL => {
                cov_edge!(ctx);
                let (Some(address), Some(value)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                if value != 0x0000 && value != 0xFF00 {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                if !self.db.set_coil(usize::from(address), value == 0xFF00) {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                Self::reply(transaction, unit, pdu)
            }
            function::WRITE_SINGLE_REGISTER => {
                cov_edge!(ctx);
                let (Some(address), Some(value)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                if !self.db.set_register(usize::from(address), value) {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                cov_edge!(ctx, address / 8);
                cov_edge!(ctx, value >> 12);
                Self::reply(transaction, unit, pdu)
            }
            function::DIAGNOSTICS => {
                cov_edge!(ctx);
                let (Some(sub_function), Some(data)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                match sub_function {
                    // Return query data (loopback).
                    0x0000 => {
                        cov_edge!(ctx);
                        Self::reply(transaction, unit, pdu)
                    }
                    // Restart communications option: in the original C server
                    // this tears down and re-allocates the register mapping.
                    // The planted bug models forgetting to re-allocate.
                    0x0001 => {
                        cov_edge!(ctx);
                        if data == 0xFF00 {
                            cov_edge!(ctx);
                            self.mapping_freed = true;
                        }
                        Self::reply(transaction, unit, pdu)
                    }
                    // Force listen-only mode.
                    0x0004 => {
                        cov_edge!(ctx);
                        Self::reply(transaction, unit, &[function, 0x00, 0x04, 0x00, 0x00])
                    }
                    _ => {
                        cov_edge!(ctx);
                        Self::exception(transaction, unit, function, exception::ILLEGAL_FUNCTION)
                    }
                }
            }
            function::WRITE_MULTIPLE_COILS => {
                cov_edge!(ctx);
                let (Some(start), Some(quantity)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let Some(&byte_count) = body.get(4) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let values = &body[5..];
                if quantity == 0
                    || quantity > 0x07B0
                    || usize::from(byte_count) != usize::from(quantity).div_ceil(8)
                    || values.len() < usize::from(byte_count)
                {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                if usize::from(start) + usize::from(quantity) > self.db.coil_count() {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                for offset in 0..usize::from(quantity) {
                    let bit = values[offset / 8] & (1 << (offset % 8)) != 0;
                    self.db.set_coil(usize::from(start) + offset, bit);
                }
                Self::reply(transaction, unit, &pdu[..5])
            }
            function::WRITE_MULTIPLE_REGISTERS => {
                cov_edge!(ctx);
                let (Some(start), Some(quantity)) = (read_u16_be(body, 0), read_u16_be(body, 2))
                else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let Some(&byte_count) = body.get(4) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let values = &body[5..];
                if quantity == 0
                    || quantity > 123
                    || usize::from(byte_count) != usize::from(quantity) * 2
                    || values.len() < usize::from(byte_count)
                {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                if usize::from(start) + usize::from(quantity) > self.db.register_count() {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                // Planted bug 1 (Table I, libmodbus, heap use-after-free):
                // the mapping was freed by a prior "restart communications"
                // diagnostic and is reused here without re-allocation.
                if self.mapping_freed {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::HeapUseAfterFree,
                        "modbus_reply.c:write_multiple_registers",
                    ));
                }
                cov_edge!(ctx);
                cov_edge!(ctx, start / 8);
                cov_edge!(ctx, quantity);
                for offset in 0..usize::from(quantity) {
                    let value = read_u16_be(values, offset * 2).unwrap_or(0);
                    self.db.set_register(usize::from(start) + offset, value);
                }
                Self::reply(transaction, unit, &pdu[..5])
            }
            function::MASK_WRITE_REGISTER => {
                cov_edge!(ctx);
                let (Some(address), Some(and_mask), Some(or_mask)) = (
                    read_u16_be(body, 0),
                    read_u16_be(body, 2),
                    read_u16_be(body, 4),
                ) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let Some(current) = self.db.register(usize::from(address)) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                };
                cov_edge!(ctx);
                cov_edge!(ctx, address / 8);
                cov_edge!(ctx, and_mask >> 12);
                let new_value = (current & and_mask) | (or_mask & !and_mask);
                self.db.set_register(usize::from(address), new_value);
                Self::reply(transaction, unit, pdu)
            }
            function::READ_WRITE_MULTIPLE_REGISTERS => {
                cov_edge!(ctx);
                let (Some(read_start), Some(read_quantity), Some(write_start), Some(write_quantity)) = (
                    read_u16_be(body, 0),
                    read_u16_be(body, 2),
                    read_u16_be(body, 4),
                    read_u16_be(body, 6),
                ) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let Some(&write_byte_count) = body.get(8) else {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                };
                let write_values = &body[9..];
                if read_quantity == 0
                    || read_quantity > 125
                    || write_quantity == 0
                    || write_quantity > 121
                    || usize::from(write_byte_count) != usize::from(write_quantity) * 2
                    || write_values.len() < usize::from(write_byte_count)
                {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_VALUE,
                    );
                }
                // Planted bug 2 (Table I, libmodbus, SEGV): the original code
                // validates the read range and the write range separately but
                // indexes the mapping with `write_start + read_quantity` when
                // building the combined response, so a write range that ends
                // inside the map combined with a large read start walks off
                // the end of the allocation.
                if usize::from(write_start) + usize::from(write_quantity)
                    <= self.db.register_count()
                    && usize::from(read_start) >= self.db.register_count()
                {
                    cov_edge!(ctx);
                    return Outcome::Fault(Fault::new(
                        FaultKind::Segv,
                        "modbus_reply.c:read_write_multiple_registers",
                    ));
                }
                if usize::from(read_start) + usize::from(read_quantity) > self.db.register_count()
                    || usize::from(write_start) + usize::from(write_quantity)
                        > self.db.register_count()
                {
                    cov_edge!(ctx);
                    return Self::exception(
                        transaction,
                        unit,
                        function,
                        exception::ILLEGAL_DATA_ADDRESS,
                    );
                }
                cov_edge!(ctx);
                cov_edge!(ctx, read_start / 8);
                cov_edge!(ctx, write_start / 8);
                cov_edge!(ctx, read_quantity);
                for offset in 0..usize::from(write_quantity) {
                    let value = read_u16_be(write_values, offset * 2).unwrap_or(0);
                    self.db.set_register(usize::from(write_start) + offset, value);
                }
                let mut reply = vec![function, (read_quantity * 2) as u8];
                for offset in 0..usize::from(read_quantity) {
                    let value = self.db.register(usize::from(read_start) + offset).unwrap_or(0);
                    reply.extend_from_slice(&value.to_be_bytes());
                }
                Self::reply(transaction, unit, &reply)
            }
            _ => {
                cov_edge!(ctx);
                Self::exception(transaction, unit, function, exception::ILLEGAL_FUNCTION)
            }
        }
    }
}

impl Default for ModbusServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Target for ModbusServer {
    fn name(&self) -> &'static str {
        "libmodbus"
    }

    fn data_models(&self) -> DataModelSet {
        data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        cov_edge!(ctx);
        self.requests_served += 1;
        // MBAP header: transaction(2) protocol(2) length(2) unit(1).
        if packet.len() < 8 {
            cov_edge!(ctx);
            return crate::sink::protocol_error("packet shorter than MBAP header + function");
        }
        let transaction = read_u16_be(packet, 0).expect("length checked");
        let protocol = read_u16_be(packet, 2).expect("length checked");
        let length = read_u16_be(packet, 4).expect("length checked");
        let unit = packet[6];
        if protocol != 0 {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!("unsupported protocol id {protocol}"));
        }
        if usize::from(length) != packet.len() - 6 {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!(
                "MBAP length {} does not match packet length {}",
                length,
                packet.len() - 6
            ));
        }
        if unit != 0 && unit != 1 {
            cov_edge!(ctx);
            return crate::sink::protocol_error_fmt(format_args!("request for other unit {unit}"));
        }
        cov_edge!(ctx);
        let pdu = &packet[7..];
        self.handle_pdu(transaction, unit, pdu, ctx)
    }

    fn reset(&mut self) {
        *self = Self::new();
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        Box::new(Self::new())
    }
}

/// The format specification (Peach-pit equivalent) of the Modbus/TCP
/// requests the fuzzer generates: one data model per function code, sharing
/// construction rules for the MBAP header, register addresses and
/// quantities.
#[must_use]
pub fn data_models() -> DataModelSet {
    let mut set = DataModelSet::new("modbus");

    // The MBAP header is identical across packet types; the shared rule names
    // make the header chunks donor-compatible between models.
    let mbap = |body: &str| -> Vec<(String, NumberSpec, &'static str)> {
        vec![
            (
                "transaction".into(),
                NumberSpec::u16_be().default_value(1),
                "mbap-transaction",
            ),
            (
                "protocol".into(),
                NumberSpec::u16_be().fixed_value(0),
                "mbap-protocol",
            ),
            (
                "length".into(),
                NumberSpec::u16_be().relation(Relation::SizeOf {
                    of: body.into(),
                    adjust: 1,
                    scale: 1,
                }),
                "mbap-length",
            ),
            (
                "unit".into(),
                NumberSpec::u8().default_value(1),
                "mbap-unit",
            ),
        ]
    };

    let with_mbap = |name: &str, body_name: &str, body: BlockBuilder| {
        let mut builder = DataModelBuilder::new(name);
        for (field, spec, rule) in mbap(body_name) {
            builder = builder.number_with_rule(field, spec, rule);
        }
        builder
            .block(body)
            .build()
            .expect("modbus data model is statically valid")
    };

    set.push(with_mbap(
        "read_holding_registers",
        "pdu_read",
        BlockBuilder::new("pdu_read")
            .number("fc_read", NumberSpec::u8().fixed_value(0x03))
            .number_with_rule("start_read", NumberSpec::u16_be(), "register-address")
            .number_with_rule(
                "quantity_read",
                NumberSpec::u16_be().default_value(2),
                "register-quantity",
            ),
    ));

    set.push(with_mbap(
        "read_coils",
        "pdu_coils",
        BlockBuilder::new("pdu_coils")
            .number("fc_coils", NumberSpec::u8().fixed_value(0x01))
            .number_with_rule("start_coils", NumberSpec::u16_be(), "register-address")
            .number_with_rule(
                "quantity_coils",
                NumberSpec::u16_be().default_value(8),
                "register-quantity",
            ),
    ));

    set.push(with_mbap(
        "write_single_register",
        "pdu_wsr",
        BlockBuilder::new("pdu_wsr")
            .number("fc_wsr", NumberSpec::u8().fixed_value(0x06))
            .number_with_rule("address_wsr", NumberSpec::u16_be(), "register-address")
            .number_with_rule("value_wsr", NumberSpec::u16_be(), "register-value"),
    ));

    set.push(with_mbap(
        "write_single_coil",
        "pdu_wsc",
        BlockBuilder::new("pdu_wsc")
            .number("fc_wsc", NumberSpec::u8().fixed_value(0x05))
            .number_with_rule("address_wsc", NumberSpec::u16_be(), "register-address")
            .number(
                "value_wsc",
                NumberSpec::u16_be().allowed_values(vec![0xFF00, 0x0000]),
            ),
    ));

    set.push(with_mbap(
        "diagnostics",
        "pdu_diag",
        BlockBuilder::new("pdu_diag")
            .number("fc_diag", NumberSpec::u8().fixed_value(0x08))
            .number(
                "sub_function",
                NumberSpec::u16_be().allowed_values(vec![0x0000, 0x0001, 0x0004]),
            )
            .number_with_rule(
                "diag_data",
                NumberSpec::u16_be().default_value(0xFF00),
                "register-value",
            ),
    ));

    set.push(with_mbap(
        "write_multiple_registers",
        "pdu_wmr",
        BlockBuilder::new("pdu_wmr")
            .number("fc_wmr", NumberSpec::u8().fixed_value(0x10))
            .number_with_rule("start_wmr", NumberSpec::u16_be(), "register-address")
            .number(
                "quantity_wmr",
                NumberSpec::u16_be().relation(Relation::CountOf {
                    of: "values_wmr".into(),
                    element_size: 2,
                }),
            )
            .number(
                "byte_count_wmr",
                NumberSpec::u8().relation(Relation::size_of("values_wmr")),
            )
            .bytes_with_rule(
                "values_wmr",
                peachstar_datamodel::BytesSpec::remainder()
                    .default_content(vec![0x00, 0x2a, 0x00, 0x2b]),
                "register-values",
            ),
    ));

    set.push(with_mbap(
        "mask_write_register",
        "pdu_mask",
        BlockBuilder::new("pdu_mask")
            .number("fc_mask", NumberSpec::u8().fixed_value(0x16))
            .number_with_rule("address_mask", NumberSpec::u16_be(), "register-address")
            .number_with_rule("and_mask", NumberSpec::u16_be().default_value(0xF0F0), "register-value")
            .number_with_rule("or_mask", NumberSpec::u16_be().default_value(0x0F0F), "register-value"),
    ));

    set.push(with_mbap(
        "read_write_multiple_registers",
        "pdu_rw",
        BlockBuilder::new("pdu_rw")
            .number("fc_rw", NumberSpec::u8().fixed_value(0x17))
            .number_with_rule("read_start", NumberSpec::u16_be(), "register-address")
            .number_with_rule(
                "read_quantity",
                NumberSpec::u16_be().default_value(2),
                "register-quantity",
            )
            .number_with_rule("write_start", NumberSpec::u16_be(), "register-address")
            .number(
                "write_quantity",
                NumberSpec::u16_be().relation(Relation::CountOf {
                    of: "write_values".into(),
                    element_size: 2,
                }),
            )
            .number(
                "write_byte_count",
                NumberSpec::u8().relation(Relation::size_of("write_values")),
            )
            .bytes_with_rule(
                "write_values",
                peachstar_datamodel::BytesSpec::remainder()
                    .default_content(vec![0x12, 0x34, 0x56, 0x78]),
                "register-values",
            ),
    ));

    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachstar_datamodel::emit::emit_default;

    fn run(server: &mut ModbusServer, packet: &[u8]) -> Outcome {
        let mut ctx = TraceContext::new();
        server.process(packet, &mut ctx)
    }

    fn mbap(pdu: &[u8]) -> Vec<u8> {
        let mut packet = vec![0x00, 0x01, 0x00, 0x00];
        packet.extend_from_slice(&((pdu.len() + 1) as u16).to_be_bytes());
        packet.push(0x01);
        packet.extend_from_slice(pdu);
        packet
    }

    #[test]
    fn read_holding_registers_returns_values() {
        let mut server = ModbusServer::new();
        let outcome = run(&mut server, &mbap(&[0x03, 0x00, 0x01, 0x00, 0x02]));
        let response = outcome.response().expect("valid request gets a response");
        assert_eq!(response[7], 0x03);
        assert_eq!(response[8], 4, "two registers -> four bytes");
        assert_eq!(&response[9..11], &3u16.to_be_bytes());
    }

    #[test]
    fn read_beyond_mapping_is_an_exception_not_a_fault() {
        let mut server = ModbusServer::new();
        let outcome = run(&mut server, &mbap(&[0x03, 0xFF, 0x00, 0x00, 0x10]));
        let response = outcome.response().expect("exception response");
        assert_eq!(response[7], 0x83);
        assert_eq!(response[8], exception::ILLEGAL_DATA_ADDRESS);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut server = ModbusServer::new();
        run(&mut server, &mbap(&[0x06, 0x00, 0x05, 0xAB, 0xCD]));
        let outcome = run(&mut server, &mbap(&[0x03, 0x00, 0x05, 0x00, 0x01]));
        let response = outcome.response().unwrap();
        assert_eq!(&response[9..11], &[0xAB, 0xCD]);
    }

    #[test]
    fn coil_functions_roundtrip() {
        let mut server = ModbusServer::new();
        // Force coil 3 on.
        let outcome = run(&mut server, &mbap(&[0x05, 0x00, 0x03, 0xFF, 0x00]));
        assert!(outcome.response().is_some());
        // Read coils 0..8 and check bit 3.
        let outcome = run(&mut server, &mbap(&[0x01, 0x00, 0x00, 0x00, 0x08]));
        let response = outcome.response().unwrap();
        assert_eq!(response[8], 1, "one data byte");
        assert_ne!(response[9] & 0b0000_1000, 0);
    }

    #[test]
    fn invalid_coil_value_is_rejected() {
        let mut server = ModbusServer::new();
        let outcome = run(&mut server, &mbap(&[0x05, 0x00, 0x03, 0x12, 0x34]));
        let response = outcome.response().unwrap();
        assert_eq!(response[7], 0x85);
        assert_eq!(response[8], exception::ILLEGAL_DATA_VALUE);
    }

    #[test]
    fn malformed_mbap_is_a_protocol_error() {
        let mut server = ModbusServer::new();
        assert!(matches!(run(&mut server, &[0x00; 4]), Outcome::ProtocolError(_)));
        // Wrong protocol identifier.
        let mut packet = mbap(&[0x03, 0x00, 0x00, 0x00, 0x01]);
        packet[2] = 0xFF;
        assert!(matches!(run(&mut server, &packet), Outcome::ProtocolError(_)));
        // Wrong MBAP length.
        let mut packet = mbap(&[0x03, 0x00, 0x00, 0x00, 0x01]);
        packet[5] = 0x01;
        assert!(matches!(run(&mut server, &packet), Outcome::ProtocolError(_)));
    }

    #[test]
    fn unknown_function_code_is_illegal_function() {
        let mut server = ModbusServer::new();
        let outcome = run(&mut server, &mbap(&[0x41, 0x00, 0x00]));
        let response = outcome.response().unwrap();
        assert_eq!(response[7], 0xC1);
        assert_eq!(response[8], exception::ILLEGAL_FUNCTION);
    }

    #[test]
    fn write_multiple_registers_happy_path() {
        let mut server = ModbusServer::new();
        let outcome = run(
            &mut server,
            &mbap(&[0x10, 0x00, 0x02, 0x00, 0x02, 0x04, 0x11, 0x22, 0x33, 0x44]),
        );
        assert!(outcome.response().is_some());
        let outcome = run(&mut server, &mbap(&[0x03, 0x00, 0x02, 0x00, 0x02]));
        let response = outcome.response().unwrap();
        assert_eq!(&response[9..13], &[0x11, 0x22, 0x33, 0x44]);
    }

    #[test]
    fn planted_use_after_free_needs_restart_then_write() {
        let mut server = ModbusServer::new();
        // Without the restart, the deep write succeeds.
        let write = mbap(&[0x10, 0x00, 0x00, 0x00, 0x01, 0x02, 0xAA, 0xBB]);
        assert!(!run(&mut server, &write).is_fault());
        // Restart communications (sub-function 0x0001, data 0xFF00) frees the mapping…
        let restart = mbap(&[0x08, 0x00, 0x01, 0xFF, 0x00]);
        assert!(!run(&mut server, &restart).is_fault());
        // …and the next deep write reuses it.
        let outcome = run(&mut server, &write);
        let fault = outcome.fault().expect("use-after-free fault");
        assert_eq!(fault.kind, FaultKind::HeapUseAfterFree);
    }

    #[test]
    fn planted_segv_in_read_write_multiple() {
        let mut server = ModbusServer::new();
        // Valid write range, read start beyond the mapping.
        let pdu = [
            0x17, // function
            0xFF, 0x00, // read start far out of range
            0x00, 0x02, // read quantity
            0x00, 0x00, // write start
            0x00, 0x01, // write quantity
            0x02, 0xDE, 0xAD, // byte count + values
        ];
        let outcome = run(&mut server, &mbap(&pdu));
        let fault = outcome.fault().expect("segv fault");
        assert_eq!(fault.kind, FaultKind::Segv);
    }

    #[test]
    fn reset_clears_freed_mapping_state() {
        let mut server = ModbusServer::new();
        run(&mut server, &mbap(&[0x08, 0x00, 0x01, 0xFF, 0x00]));
        server.reset();
        let write = mbap(&[0x10, 0x00, 0x00, 0x00, 0x01, 0x02, 0xAA, 0xBB]);
        assert!(!run(&mut server, &write).is_fault());
    }

    #[test]
    fn default_model_packets_are_accepted() {
        let mut server = ModbusServer::new();
        for model in data_models().models() {
            let packet = emit_default(model).unwrap();
            let outcome = run(&mut server, &packet);
            assert!(
                outcome.response().is_some(),
                "{}: default packet should be processed, got {outcome:?}",
                model.name()
            );
        }
    }

    #[test]
    fn data_models_share_rules_across_packet_types() {
        let set = data_models();
        assert!(set.len() >= 8);
        assert!(
            set.rule_overlap() > 0.3,
            "modbus packet types share MBAP and address rules: {}",
            set.rule_overlap()
        );
    }

    #[test]
    fn mask_write_applies_masks() {
        let mut server = ModbusServer::new();
        run(&mut server, &mbap(&[0x06, 0x00, 0x04, 0x12, 0x34]));
        run(&mut server, &mbap(&[0x16, 0x00, 0x04, 0xF2, 0x25, 0x00, 0x02]));
        let outcome = run(&mut server, &mbap(&[0x03, 0x00, 0x04, 0x00, 0x01]));
        let response = outcome.response().unwrap();
        let value = u16::from_be_bytes([response[9], response[10]]);
        assert_eq!(value, (0x1234 & 0xF225) | (0x0002 & !0xF225));
    }
}

//! Emission of models that use choices and empty structure. No shipped
//! protocol model has a choice, so these pin what the emitter does with one:
//! only a choice's first option is emitted, and a relation or fixup that
//! names a field of a later option has nothing to measure or write there.

use peachstar_datamodel::checksum::crc16_modbus;
use peachstar_datamodel::emit::{emit_default, emit_with, EmitScratch};
use peachstar_datamodel::{BytesSpec, ChecksumKind, Chunk, DataModel, Fixup, NumberSpec, Relation};

/// Emits `model` with `content` at leaf position `at` and the default
/// everywhere else.
fn emit_one(model: &DataModel, repair: bool, at: usize, content: &[u8]) -> Vec<u8> {
    let mut packet = Vec::new();
    emit_with(
        model,
        repair,
        &mut EmitScratch::new(),
        &mut packet,
        |index, _, out| {
            let hit = index == at;
            if hit {
                out.extend_from_slice(content);
            }
            hit
        },
    );
    packet
}

fn sum8_over(fields: &[&str]) -> Fixup {
    Fixup::new(
        ChecksumKind::Sum8,
        fields.iter().map(|&field| field.into()).collect(),
    )
}

#[test]
fn relation_targeting_a_later_option_stays_unrepaired() {
    // A size of a later option has nothing to measure: the field keeps its
    // own content.
    let model = DataModel::new(
        "later_target",
        Chunk::block(
            "p",
            vec![
                Chunk::number(
                    "len",
                    NumberSpec::u8()
                        .default_value(0x55)
                        .relation(Relation::size_of("write")),
                ),
                Chunk::choice(
                    "body",
                    vec![
                        Chunk::bytes("read", BytesSpec::fixed(2)),
                        Chunk::bytes("write", BytesSpec::fixed(3)),
                    ],
                ),
            ],
        ),
    )
    .unwrap();
    assert_eq!(emit_default(&model).unwrap(), vec![0x55, 0, 0]);
    assert_eq!(emit_one(&model, true, 0, &[0x07]), vec![0x07, 0, 0]);
}

#[test]
fn fixups_skip_fields_in_later_options() {
    // `sum` lives in a later option: its own fixup never runs, and the
    // fixup of `total` covers only the emitted fields it names.
    let model = DataModel::new(
        "later_fixup",
        Chunk::block(
            "p",
            vec![
                Chunk::number("a", NumberSpec::u8().default_value(0x11)),
                Chunk::choice(
                    "tail",
                    vec![
                        Chunk::number("plain", NumberSpec::u8().default_value(0x22)),
                        Chunk::number("sum", NumberSpec::u8().fixup(sum8_over(&["a"]))),
                    ],
                ),
                Chunk::number(
                    "total",
                    NumberSpec::u8().fixup(sum8_over(&["a", "sum", "plain"])),
                ),
            ],
        ),
    )
    .unwrap();
    assert_eq!(emit_default(&model).unwrap(), vec![0x11, 0x22, 0x33]);
}

#[test]
fn relation_and_fixup_over_a_choice_measure_its_first_option() {
    let model = DataModel::new(
        "over_choice",
        Chunk::block(
            "p",
            vec![
                Chunk::number("len", NumberSpec::u8().relation(Relation::size_of("body"))),
                Chunk::choice(
                    "body",
                    vec![
                        Chunk::bytes("short", BytesSpec::length_from("len")),
                        Chunk::bytes("long", BytesSpec::fixed(5)),
                    ],
                ),
                Chunk::number(
                    "crc",
                    NumberSpec::u16_be().fixup(Fixup::crc16_modbus("body")),
                ),
            ],
        ),
    )
    .unwrap();
    let packet = emit_one(&model, true, 1, &[9; 7]);
    let mut expected = vec![7];
    expected.extend_from_slice(&[9; 7]);
    expected.extend_from_slice(&crc16_modbus(&[9; 7]).to_be_bytes());
    assert_eq!(packet, expected);
}

#[test]
fn fixup_over_a_block_with_empty_block_and_empty_choice() {
    let model = DataModel::new(
        "empties",
        Chunk::block(
            "p",
            vec![
                Chunk::block(
                    "frame",
                    vec![
                        Chunk::number("x", NumberSpec::u8().default_value(0x01)),
                        Chunk::block("nothing", vec![]),
                        Chunk::choice("none", vec![]),
                        Chunk::number("y", NumberSpec::u8().default_value(0x02)),
                    ],
                ),
                Chunk::number(
                    "len",
                    NumberSpec::u8()
                        .default_value(0x44)
                        .relation(Relation::size_of("nothing")),
                ),
                Chunk::number(
                    "none_len",
                    NumberSpec::u8()
                        .default_value(0x44)
                        .relation(Relation::size_of("none")),
                ),
                Chunk::number(
                    "sum",
                    NumberSpec::u8().fixup(sum8_over(&["frame", "nothing", "none"])),
                ),
            ],
        ),
    )
    .unwrap();
    assert_eq!(emit_default(&model).unwrap(), vec![0x01, 0x02, 0, 0, 0x03]);
}

#[test]
fn leaf_root_with_a_relation_to_itself() {
    let model = DataModel::new(
        "self_size",
        Chunk::number(
            "len",
            NumberSpec::u16_le()
                .default_value(0xffff)
                .relation(Relation::size_of("len")),
        ),
    )
    .unwrap();
    assert_eq!(emit_default(&model).unwrap(), vec![0x02, 0x00]);
    let mut raw = Vec::new();
    emit_with(
        &model,
        false,
        &mut EmitScratch::new(),
        &mut raw,
        |_, _, _| false,
    );
    assert_eq!(raw, vec![0xff, 0xff]);
}

//! Error types for model construction, cracking, emission and Pit parsing.

use std::error::Error;
use std::fmt;

/// Error returned by data-model operations (building, cracking, emitting and
/// parsing Pit descriptions).
///
/// ```
/// use peachstar_datamodel::ModelError;
/// let err = ModelError::UnknownField { field: "crc".into() };
/// assert!(err.to_string().contains("crc"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A relation or fixup refers to a field name that does not exist in the
    /// model.
    UnknownField {
        /// The missing field name.
        field: String,
    },
    /// Two chunks in the same model share a name, which makes field
    /// references ambiguous.
    DuplicateField {
        /// The duplicated field name.
        field: String,
    },
    /// The model contains no chunks.
    EmptyModel {
        /// Name of the offending model.
        model: String,
    },
    /// Packet bytes ended before the model was fully matched.
    UnexpectedEnd {
        /// Field being parsed when input ran out.
        field: String,
        /// Bytes still required.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after the model was fully matched.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A number field constrained to a set of legal values saw something
    /// else (e.g. an unknown function code).
    IllegalValue {
        /// Field being parsed.
        field: String,
        /// The value found in the packet.
        found: u64,
    },
    /// A fixup field's stored value did not match the recomputed checksum.
    ChecksumMismatch {
        /// Field holding the checksum.
        field: String,
        /// Value present in the packet.
        found: u64,
        /// Value the fixup computes.
        expected: u64,
    },
    /// No option of a choice chunk matched the packet bytes.
    NoChoiceMatched {
        /// Name of the choice chunk.
        field: String,
    },
    /// A length taken from another field would exceed the available bytes or
    /// an internal bound.
    LengthOutOfRange {
        /// Field whose length is invalid.
        field: String,
        /// The offending length.
        length: usize,
    },
    /// Error while parsing a Pit DSL document.
    Pit {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The requested data model does not exist in the [`DataModelSet`](crate::DataModelSet).
    UnknownModel {
        /// The missing model name.
        model: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownField { field } => {
                write!(f, "reference to unknown field `{field}`")
            }
            ModelError::DuplicateField { field } => {
                write!(f, "duplicate field name `{field}` in model")
            }
            ModelError::EmptyModel { model } => {
                write!(f, "model `{model}` contains no chunks")
            }
            ModelError::UnexpectedEnd {
                field,
                needed,
                available,
            } => write!(
                f,
                "packet ended while parsing `{field}`: needed {needed} bytes, {available} available"
            ),
            ModelError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after model matched")
            }
            ModelError::IllegalValue { field, found } => {
                write!(f, "illegal value {found:#x} for field `{field}`")
            }
            ModelError::ChecksumMismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "checksum mismatch in `{field}`: packet has {found:#x}, expected {expected:#x}"
            ),
            ModelError::NoChoiceMatched { field } => {
                write!(f, "no option of choice `{field}` matched the packet")
            }
            ModelError::LengthOutOfRange { field, length } => {
                write!(f, "length {length} out of range for field `{field}`")
            }
            ModelError::Pit { line, message } => {
                write!(f, "pit parse error at line {line}: {message}")
            }
            ModelError::UnknownModel { model } => {
                write!(f, "unknown data model `{model}`")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_details() {
        let cases: Vec<(ModelError, &str)> = vec![
            (
                ModelError::UnknownField {
                    field: "size".into(),
                },
                "size",
            ),
            (
                ModelError::UnexpectedEnd {
                    field: "crc".into(),
                    needed: 4,
                    available: 1,
                },
                "crc",
            ),
            (ModelError::TrailingBytes { remaining: 3 }, "3"),
            (
                ModelError::IllegalValue {
                    field: "function".into(),
                    found: 0x99,
                },
                "function",
            ),
            (
                ModelError::Pit {
                    line: 7,
                    message: "bad keyword".into(),
                },
                "line 7",
            ),
        ];
        for (err, expected) in cases {
            assert!(
                err.to_string().contains(expected),
                "{err} should mention {expected}"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<ModelError>();
    }
}

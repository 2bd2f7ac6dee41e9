//! Raw (lazily-decoded) views over encoded values.
//!
//! The RPC server's duplicate-suppression path only needs a handful of
//! header fields ("is this a request?", "which call id?") to decide
//! whether a datagram can be answered straight from the reply cache.
//! Materializing the full `Value` tree just to read two fields wastes
//! the win. [`RawRecord`] walks the encoding in place instead: the whole
//! record is structurally validated once (every tag, varint and length
//! checked — the same grammar the real decoder enforces), then field
//! lookups scan tag/length information and skip over everything else.
//! Nothing is allocated, and UTF-8 validation is only paid for string
//! fields actually read.

use crate::codec::{tag, Reader};
use crate::error::WireError;
use crate::frame::check_frame;

fn tag_name(t: u8) -> &'static str {
    match t {
        tag::NULL => "null",
        tag::FALSE | tag::TRUE => "bool",
        tag::U64 => "u64",
        tag::I64 => "i64",
        tag::F64 => "f64",
        tag::STR => "str",
        tag::BLOB => "blob",
        tag::LIST => "list",
        tag::RECORD => "record",
        _ => "unknown",
    }
}

/// A validated, zero-allocation view over one encoded record.
///
/// Construction proves the bytes are exactly one structurally
/// well-formed record (the peek cannot be desynchronized by hostile
/// lengths); field accessors then locate values by scanning and
/// skipping, decoding only what the caller asks for.
///
/// ```
/// use wire::{encode, RawRecord, Value};
/// let enc = encode(&Value::record([
///     ("t", Value::str("req")),
///     ("id", Value::U64(7)),
///     ("args", Value::list([Value::blob(vec![0u8; 1024])])),
/// ]));
/// let raw = RawRecord::parse(&enc).unwrap();
/// assert_eq!(raw.get_str("t").unwrap(), "req");
/// assert_eq!(raw.get_u64("id").unwrap(), 7);
/// // "args" was skipped over, never decoded.
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RawRecord<'a> {
    input: &'a [u8],
    /// Number of fields (from the record's count varint).
    count: usize,
    /// Offset of the first field (just past tag + count).
    fields_at: usize,
}

impl<'a> RawRecord<'a> {
    /// Validates `input` as exactly one encoded record and wraps it.
    ///
    /// # Errors
    ///
    /// * [`WireError::WrongKind`] if the value is not a record.
    /// * [`WireError::TrailingBytes`] if input remains after the record.
    /// * any structural decode error ([`WireError::UnexpectedEof`],
    ///   [`WireError::BadTag`], [`WireError::BadVarint`], …).
    pub fn parse(input: &'a [u8]) -> Result<RawRecord<'a>, WireError> {
        let mut r = Reader::new(input);
        let t = r.read_byte()?;
        if t != tag::RECORD {
            return Err(WireError::WrongKind {
                expected: "record",
                actual: tag_name(t),
            });
        }
        let count = r.read_varint()?;
        if count > crate::MAX_LEN {
            return Err(WireError::TooLong(count));
        }
        let count = count as usize;
        let fields_at = r.pos;
        // Structural validation of every field: keys are
        // length-checked, values are walked by the same grammar the
        // decoder uses. UTF-8 of keys/strings is deliberately not
        // checked here — accessors validate what they actually read,
        // and the full decoder re-checks everything if the message is
        // decoded for real.
        for _ in 0..count {
            let klen = r.read_varint()?;
            if klen > crate::MAX_LEN {
                return Err(WireError::TooLong(klen));
            }
            r.skip_bytes(klen as usize)?;
            r.skip_value(1)?;
        }
        if r.pos != input.len() {
            return Err(WireError::TrailingBytes(input.len() - r.pos));
        }
        Ok(RawRecord {
            input,
            count,
            fields_at,
        })
    }

    /// Number of fields in the record.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Locates a field by name, returning a reader positioned at its
    /// value. First match wins, like [`crate::Value::get`]. Infallible walking:
    /// `parse` already validated the structure.
    fn seek(&self, name: &str) -> Option<Reader<'a>> {
        let mut r = Reader::new(self.input);
        r.pos = self.fields_at;
        for _ in 0..self.count {
            let klen = r.read_varint().ok()? as usize;
            let start = r.pos;
            r.skip_bytes(klen).ok()?;
            if &self.input[start..r.pos] == name.as_bytes() {
                return Some(r);
            }
            r.skip_value(1).ok()?;
        }
        None
    }

    /// Whether a field with this name exists.
    pub fn has(&self, name: &str) -> bool {
        self.seek(name).is_some()
    }

    /// Reads a string field without allocating (UTF-8 is validated for
    /// this field only).
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind, [`WireError::BadUtf8`] if invalid.
    pub fn get_str(&self, name: &'static str) -> Result<&'a str, WireError> {
        let mut r = self.seek(name).ok_or(WireError::MissingField(name))?;
        let t = r.read_byte()?;
        if t != tag::STR {
            return Err(WireError::WrongKind {
                expected: "str",
                actual: tag_name(t),
            });
        }
        r.str_borrowed()
    }

    /// Reads a `u64` field.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_u64(&self, name: &'static str) -> Result<u64, WireError> {
        let mut r = self.seek(name).ok_or(WireError::MissingField(name))?;
        let t = r.read_byte()?;
        if t != tag::U64 {
            return Err(WireError::WrongKind {
                expected: "u64",
                actual: tag_name(t),
            });
        }
        r.read_varint()
    }

    /// Reads an `i64` field.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_i64(&self, name: &'static str) -> Result<i64, WireError> {
        let mut r = self.seek(name).ok_or(WireError::MissingField(name))?;
        let t = r.read_byte()?;
        if t != tag::I64 {
            return Err(WireError::WrongKind {
                expected: "i64",
                actual: tag_name(t),
            });
        }
        Ok(Reader::unzigzag64(r.read_varint()?))
    }

    /// Views a nested record field as another [`RawRecord`] — still
    /// zero-allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::MissingField`] if absent, [`WireError::WrongKind`] if
    /// present with another kind.
    pub fn get_record(&self, name: &'static str) -> Result<RawRecord<'a>, WireError> {
        let mut r = self.seek(name).ok_or(WireError::MissingField(name))?;
        let start = r.pos;
        r.skip_value(1)?;
        RawRecord::parse(&self.input[start..r.pos])
    }
}

/// Validates a frame's envelope (magic, version, length, CRC) and
/// returns a [`RawRecord`] view of its payload — the zero-allocation
/// receive path for peeking at message headers before deciding whether
/// to decode in full.
///
/// ```
/// use wire::{frame, peek_frame, Value};
/// let f = frame(&Value::record([("t", Value::str("req")), ("id", Value::U64(3))]));
/// let raw = peek_frame(&f).unwrap();
/// assert_eq!(raw.get_str("t").unwrap(), "req");
/// ```
///
/// # Errors
///
/// Envelope errors as for [`crate::unframe`], plus
/// [`WireError::WrongKind`] if the payload is not a record.
pub fn peek_frame(input: &[u8]) -> Result<RawRecord<'_>, WireError> {
    RawRecord::parse(check_frame(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;
    use crate::frame::frame;
    use crate::value::Value;

    fn sample() -> Value {
        Value::record([
            ("t", Value::str("req")),
            ("id", Value::U64(4242)),
            ("neg", Value::I64(-17)),
            (
                "args",
                Value::list([Value::blob(vec![1u8; 64]), Value::str("x")]),
            ),
            ("nested", Value::record([("deep", Value::Bool(true))])),
        ])
    }

    #[test]
    fn peek_reads_fields_without_decoding() {
        let enc = encode(&sample());
        let raw = RawRecord::parse(&enc).unwrap();
        assert_eq!(raw.len(), 5);
        assert!(!raw.is_empty());
        assert_eq!(raw.get_str("t").unwrap(), "req");
        assert_eq!(raw.get_u64("id").unwrap(), 4242);
        assert_eq!(raw.get_i64("neg").unwrap(), -17);
        assert!(raw.has("args"));
        assert!(!raw.has("absent"));
        assert_eq!(
            raw.get_u64("absent"),
            Err(WireError::MissingField("absent"))
        );
        assert_eq!(
            raw.get_u64("t"),
            Err(WireError::WrongKind {
                expected: "u64",
                actual: "str"
            })
        );
        assert_eq!(
            raw.get_str("id"),
            Err(WireError::WrongKind {
                expected: "str",
                actual: "u64"
            })
        );
    }

    #[test]
    fn get_record_views_nested_record_in_place() {
        let enc = encode(&sample());
        let raw = RawRecord::parse(&enc).unwrap();
        let nested = raw.get_record("nested").unwrap();
        assert_eq!(nested.len(), 1);
        assert!(nested.has("deep"));
        assert_eq!(
            raw.get_record("args").unwrap_err(),
            WireError::WrongKind {
                expected: "record",
                actual: "list"
            }
        );
        assert_eq!(
            raw.get_record("absent").unwrap_err(),
            WireError::MissingField("absent")
        );
    }

    #[test]
    fn non_record_rejected() {
        let enc = encode(&Value::U64(1));
        assert_eq!(
            RawRecord::parse(&enc).unwrap_err(),
            WireError::WrongKind {
                expected: "record",
                actual: "u64"
            }
        );
    }

    #[test]
    fn structural_damage_is_caught_at_parse() {
        let enc = encode(&sample()).to_vec();
        // Truncations anywhere must be rejected at parse time, so the
        // accessors can never read out of bounds.
        for cut in 0..enc.len() {
            assert!(RawRecord::parse(&enc[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage likewise.
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(
            RawRecord::parse(&extra).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn peek_agrees_with_full_decoder_on_acceptance() {
        // A corpus of malformed payloads: the peek must reject exactly
        // what decode rejects (structure-wise; UTF-8 of unread strings
        // excepted by design).
        let bad: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xEE],                               // unknown tag
            vec![crate::codec::tag::RECORD],          // missing count
            vec![crate::codec::tag::RECORD, 1],       // missing field
            vec![crate::codec::tag::U64, 0x80, 0x00], // non-canonical varint
        ];
        for raw in &bad {
            assert!(crate::decode(raw).is_err());
            assert!(RawRecord::parse(raw).is_err());
        }
    }

    #[test]
    fn duplicate_keys_first_match_wins() {
        let v = Value::Record(vec![
            ("k".into(), Value::U64(1)),
            ("k".into(), Value::U64(2)),
        ]);
        let enc = encode(&v);
        let raw = RawRecord::parse(&enc).unwrap();
        assert_eq!(raw.get_u64("k").unwrap(), 1);
    }

    #[test]
    fn peek_frame_checks_the_envelope() {
        let f = frame(&sample());
        let raw = peek_frame(&f).unwrap();
        assert_eq!(raw.get_str("t").unwrap(), "req");
        let mut corrupt = f.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        assert!(matches!(
            peek_frame(&corrupt),
            Err(WireError::BadChecksum { .. })
        ));
    }
}

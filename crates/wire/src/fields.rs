//! A forward-only field reader: the one-pass receive path for protocol
//! envelopes.
//!
//! An RPC envelope is a record of a dozen small header fields around
//! one payload. Decoding it as a [`Value`] tree and then looking the
//! fields up by name builds a `Vec` and a refcount per field only to
//! drop them again. [`FieldReader`] walks the encoding once instead: the
//! caller opens the record, reads each key in place, and for each field
//! either reads a scalar in place, materializes it as a zero-copy
//! [`Value`], or skips it. Every byte is validated exactly as the tree
//! decoder validates it — tags, canonical varints, lengths, UTF-8 and
//! depth — so a protocol built on the reader accepts exactly the bytes a
//! tree-based one would.

use bytes::Bytes;

use crate::codec::{tag, Reader, MAX_DEPTH};
use crate::error::WireError;
use crate::frame::{check_frame, HEADER_LEN};
use crate::value::Value;

/// A forward-only reader over one encoded value in a refcounted buffer.
///
/// Depths count as in the tree decoder: the outermost value is at depth
/// 0 and each record field or list item sits one deeper than its
/// container. Every read takes the depth of the value it reads and
/// rejects one past [`MAX_DEPTH`] with [`WireError::TooDeep`].
///
/// The typed reads ([`FieldReader::str`], [`FieldReader::blob`],
/// [`FieldReader::u64`], [`FieldReader::record`], [`FieldReader::list`])
/// return `None` when the next value is of another kind, after
/// validating and skipping it.
///
/// ```
/// use wire::{frame, FieldReader, Value};
/// let f = frame(&Value::record([
///     ("op", Value::str("get")),
///     ("args", Value::list([Value::blob(vec![7u8; 64])])),
/// ]));
/// let mut r = FieldReader::from_frame(&f)?;
/// let mut op = None;
/// for _ in 0..r.record(0)?.expect("a record") {
///     match r.key()? {
///         "op" => op = r.str(1)?,
///         _ => drop(r.value(1)?),
///     }
/// }
/// r.finish()?;
/// assert_eq!(op, Some("get"));
/// # Ok::<(), wire::WireError>(())
/// ```
pub struct FieldReader<'a> {
    r: Reader<'a>,
}

impl<'a> FieldReader<'a> {
    /// A reader over `input`, one encoded value.
    pub fn new(input: &'a Bytes) -> FieldReader<'a> {
        FieldReader {
            r: Reader::new_shared(input, 0),
        }
    }

    /// Validates a frame's envelope (magic, version, length, CRC) and
    /// returns a reader over its payload.
    ///
    /// # Errors
    ///
    /// Envelope errors as for [`crate::unframe`].
    pub fn from_frame(frame: &'a Bytes) -> Result<FieldReader<'a>, WireError> {
        check_frame(frame)?;
        Ok(FieldReader {
            r: Reader::new_shared(frame, HEADER_LEN),
        })
    }

    /// Consumes the next value's tag if it is `t`; otherwise validates
    /// and skips the whole value.
    fn next_is(&mut self, t: u8, depth: usize) -> Result<bool, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        if self.r.input.get(self.r.pos) == Some(&t) {
            self.r.pos += 1;
            return Ok(true);
        }
        self.skip(depth)?;
        Ok(false)
    }

    /// Opens a record: returns its field count, after which the caller
    /// reads that many [`FieldReader::key`]-value pairs, each value one
    /// level deeper.
    ///
    /// # Errors
    ///
    /// Any decode error in the count, or in the value if it is no record.
    pub fn record(&mut self, depth: usize) -> Result<Option<usize>, WireError> {
        Ok(if self.next_is(tag::RECORD, depth)? {
            Some(self.r.length()?)
        } else {
            None
        })
    }

    /// Opens a list: returns its item count, after which the caller reads
    /// that many values, each one level deeper.
    ///
    /// # Errors
    ///
    /// Any decode error in the count, or in the value if it is no list.
    pub fn list(&mut self, depth: usize) -> Result<Option<usize>, WireError> {
        Ok(if self.next_is(tag::LIST, depth)? {
            Some(self.r.length()?)
        } else {
            None
        })
    }

    /// Reads the next record key, UTF-8 checked, borrowed from the input.
    ///
    /// # Errors
    ///
    /// A bad length, truncation or [`WireError::BadUtf8`].
    pub fn key(&mut self) -> Result<&'a str, WireError> {
        self.r.str_borrowed()
    }

    /// Reads a string in place, UTF-8 checked, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Any decode error in the value.
    pub fn str(&mut self, depth: usize) -> Result<Option<&'a str>, WireError> {
        Ok(if self.next_is(tag::STR, depth)? {
            Some(self.r.str_borrowed()?)
        } else {
            None
        })
    }

    /// Reads a blob in place, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Any decode error in the value.
    pub fn blob(&mut self, depth: usize) -> Result<Option<&'a [u8]>, WireError> {
        Ok(if self.next_is(tag::BLOB, depth)? {
            Some(self.r.blob_borrowed()?)
        } else {
            None
        })
    }

    /// Reads a `u64` in place.
    ///
    /// # Errors
    ///
    /// Any decode error in the value.
    pub fn u64(&mut self, depth: usize) -> Result<Option<u64>, WireError> {
        Ok(if self.next_is(tag::U64, depth)? {
            Some(self.r.read_varint()?)
        } else {
            None
        })
    }

    /// Decodes the next value zero-copy, as [`crate::decode_bytes`] would:
    /// its strings, blobs and keys slice the input buffer.
    ///
    /// # Errors
    ///
    /// Any decode error in the value.
    pub fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        self.r.value(depth)
    }

    /// Validates the next value as fully as [`FieldReader::value`] does,
    /// UTF-8 included, and discards it.
    ///
    /// # Errors
    ///
    /// Any decode error in the value.
    pub fn skip(&mut self, depth: usize) -> Result<(), WireError> {
        self.r.value(depth).map(drop)
    }

    /// Ends the read: the input must hold nothing past the last value.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if input remains.
    pub fn finish(self) -> Result<(), WireError> {
        match self.r.input.len() - self.r.pos {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

impl std::fmt::Debug for FieldReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldReader")
            .field("pos", &self.r.pos)
            .field("len", &self.r.input.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_bytes, encode};
    use crate::frame::frame;

    fn sample() -> Value {
        Value::record([
            ("t", Value::str("req")),
            ("id", Value::U64(4242)),
            (
                "args",
                Value::list([Value::blob(vec![1u8; 64]), Value::str("x")]),
            ),
            ("nested", Value::record([("deep", Value::Bool(true))])),
        ])
    }

    #[test]
    fn reads_each_field_in_one_pass() {
        let enc = encode(&sample());
        let mut r = FieldReader::new(&enc);
        assert_eq!(r.record(0), Ok(Some(4)));
        assert_eq!(r.key(), Ok("t"));
        assert_eq!(r.str(1), Ok(Some("req")));
        assert_eq!(r.key(), Ok("id"));
        assert_eq!(r.u64(1), Ok(Some(4242)));
        assert_eq!(r.key(), Ok("args"));
        assert_eq!(r.list(1), Ok(Some(2)));
        assert_eq!(r.blob(2), Ok(Some(&[1u8; 64][..])));
        assert_eq!(r.str(2), Ok(Some("x")));
        assert_eq!(r.key(), Ok("nested"));
        r.skip(1).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn other_kinds_are_skipped_and_read_as_none() {
        let enc = encode(&sample());
        let mut r = FieldReader::new(&enc);
        r.record(0).unwrap();
        r.key().unwrap();
        assert_eq!(r.u64(1), Ok(None), "a str is no u64");
        r.key().unwrap();
        assert_eq!(r.str(1), Ok(None), "a u64 is no str");
        r.key().unwrap();
        assert_eq!(r.record(1), Ok(None), "a list is no record");
        r.key().unwrap();
        assert_eq!(r.list(1), Ok(None), "a record is no list");
        r.finish().unwrap();
    }

    #[test]
    fn value_materializes_one_field_zero_copy() {
        let enc = encode(&sample());
        let mut r = FieldReader::new(&enc);
        r.record(0).unwrap();
        for _ in 0..2 {
            r.key().unwrap();
            r.skip(1).unwrap();
        }
        assert_eq!(r.key(), Ok("args"));
        let args = r.value(1).unwrap();
        assert_eq!(&args, sample().get("args").unwrap());
        let blob = &args.as_list().unwrap()[0];
        let p = blob.as_blob().unwrap().as_ptr() as usize;
        let base = enc.as_ptr() as usize;
        assert!(
            p >= base && p + 64 <= base + enc.len(),
            "blob aliases input"
        );
        assert_eq!(r.key(), Ok("nested"));
        assert_eq!(r.value(1).unwrap().get("deep"), Some(&Value::Bool(true)));
        r.finish().unwrap();
    }

    #[test]
    fn skip_checks_utf8_and_depth_like_the_tree_decoder() {
        let bad = Bytes::from(vec![tag::LIST, 1, tag::STR, 2, 0xFF, 0xFE]);
        assert_eq!(FieldReader::new(&bad).skip(0), Err(WireError::BadUtf8));
        assert_eq!(FieldReader::new(&bad).list(0), Ok(Some(1)));
        let mut deep = Value::Null;
        for _ in 0..=MAX_DEPTH {
            deep = Value::List(vec![deep]);
        }
        let enc = encode(&deep);
        assert_eq!(decode_bytes(&enc), Err(WireError::TooDeep));
        assert_eq!(FieldReader::new(&enc).skip(0), Err(WireError::TooDeep));
        assert_eq!(FieldReader::new(&enc).str(0), Err(WireError::TooDeep));
        assert_eq!(
            FieldReader::new(&encode(&Value::Null)).u64(MAX_DEPTH + 1),
            Err(WireError::TooDeep)
        );
    }

    #[test]
    fn trailing_bytes_and_truncation_rejected() {
        let mut raw = encode(&Value::U64(5)).to_vec();
        raw.push(0);
        let raw = Bytes::from(raw);
        let mut r = FieldReader::new(&raw);
        assert_eq!(r.u64(0), Ok(Some(5)));
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
        let cut = encode(&Value::str("hello")).slice(0..4);
        assert!(matches!(
            FieldReader::new(&cut).str(0),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn from_frame_checks_the_envelope() {
        let f = frame(&sample());
        let mut r = FieldReader::from_frame(&f).unwrap();
        assert_eq!(r.record(0), Ok(Some(4)));
        let mut corrupt = f.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        assert!(matches!(
            FieldReader::from_frame(&Bytes::from(corrupt)),
            Err(WireError::BadChecksum { .. })
        ));
    }
}

//! Canonical binary encoding of [`Value`].
//!
//! The format is a compact tag-length-value scheme:
//!
//! | tag | kind   | payload |
//! |-----|--------|---------|
//! | 0   | null   | —       |
//! | 1   | false  | —       |
//! | 2   | true   | —       |
//! | 3   | u64    | varint  |
//! | 4   | i64    | zigzag varint |
//! | 5   | f64    | 8 bytes little-endian |
//! | 6   | str    | varint length + UTF-8 |
//! | 7   | blob   | varint length + bytes |
//! | 8   | list   | varint count + items  |
//! | 9   | record | varint count + (str key, value) pairs |
//! | 10  | ref    | store str + key str + varint payload length + 4-byte CRC-32 |
//!
//! Encoding is canonical: a given `Value` always produces the same bytes,
//! so checksums and duplicate-suppression can operate on the encoding.
//! Canonicality cuts both ways: the decoder rejects overlong varints
//! (continuation bytes followed by a redundant `0x00` terminator), so no
//! two distinct byte strings decode to the same value.
//!
//! Two decoders share one grammar:
//!
//! * [`decode`] — the *tree* decoder: works on any `&[u8]` and copies
//!   string/blob payloads into fresh buffers.
//! * [`decode_bytes`] — the *zero-copy* decoder: works on a refcounted
//!   [`Bytes`] frame and returns `Value`s whose `Str`/`Blob` payloads
//!   (and record keys) are cheap slices of the input, sharing its
//!   allocation.
//!
//! Encoding offers a matching pair: the [`encode`] convenience and the
//! pooled [`Encoder`], which reuses one scratch buffer across messages
//! and exposes a borrow-based [`ValueWriter`] so protocol layers can
//! marshal straight from their own fields without building an
//! intermediate `Value` tree.

use bytes::Bytes;

use crate::error::WireError;
use crate::value::{BlobRef, Value};
use crate::wstr::WStr;

/// Maximum nesting depth accepted by the decoder (guards against stack
/// exhaustion from hostile input).
pub const MAX_DEPTH: usize = 32;

/// Maximum declared length of any string/blob/list/record (guards against
/// allocation bombs from hostile input).
pub const MAX_LEN: u64 = 1 << 28;

/// Maximum payload length a [`Value::Ref`] may declare, and the ceiling a
/// blob store enforces on chunked uploads. A ref's bytes live out-of-band
/// so they may legitimately exceed [`MAX_LEN`], but a decoder still
/// refuses absurd declared lengths outright ([`WireError::TooLong`],
/// before any resolver allocates reassembly buffers for them).
pub const MAX_BULK_LEN: u64 = 1 << 32;

pub(crate) mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const U64: u8 = 3;
    pub const I64: u8 = 4;
    pub const F64: u8 = 5;
    pub const STR: u8 = 6;
    pub const BLOB: u8 = 7;
    pub const LIST: u8 = 8;
    pub const RECORD: u8 = 9;
    pub const REF: u8 = 10;
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

pub(crate) fn encode_into(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(tag::NULL),
        Value::Bool(false) => buf.push(tag::FALSE),
        Value::Bool(true) => buf.push(tag::TRUE),
        Value::U64(n) => {
            buf.push(tag::U64);
            put_varint(buf, *n);
        }
        Value::I64(n) => {
            buf.push(tag::I64);
            put_varint(buf, zigzag(*n));
        }
        Value::F64(x) => {
            buf.push(tag::F64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(tag::STR);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            buf.push(tag::BLOB);
            put_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
        Value::List(items) => {
            buf.push(tag::LIST);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_into(item, buf);
            }
        }
        Value::Record(fields) => {
            buf.push(tag::RECORD);
            put_varint(buf, fields.len() as u64);
            for (k, v) in fields {
                put_varint(buf, k.len() as u64);
                buf.extend_from_slice(k.as_bytes());
                encode_into(v, buf);
            }
        }
        Value::Ref(r) => {
            buf.push(tag::REF);
            put_varint(buf, r.store.len() as u64);
            buf.extend_from_slice(r.store.as_bytes());
            put_varint(buf, r.key.len() as u64);
            buf.extend_from_slice(r.key.as_bytes());
            put_varint(buf, r.len);
            buf.extend_from_slice(&r.crc.to_le_bytes());
        }
    }
}

/// Encodes a value to its canonical byte representation.
///
/// One-shot convenience; hot paths that encode many messages should hold
/// an [`Encoder`] and reuse its buffer.
///
/// ```
/// use wire::{encode, decode, Value};
/// let v = Value::record([("n", Value::U64(300))]);
/// assert_eq!(decode(&encode(&v)).unwrap(), v);
/// ```
pub fn encode(v: &Value) -> Bytes {
    let mut buf = Vec::with_capacity(64);
    encode_into(v, &mut buf);
    Bytes::from(buf)
}

/// A streaming value writer over a borrowed buffer.
///
/// Protocol layers use this to marshal straight from their own fields —
/// no intermediate `Value` tree, no cloning of operation names or
/// arguments. Obtain one from [`Encoder::encode_with`] or
/// [`Encoder::frame_with`][crate::Encoder::frame_with].
///
/// The writer is *trusted*: the element counts passed to
/// [`ValueWriter::begin_list`] / [`ValueWriter::begin_record`] must match
/// the number of items actually written, and every record entry must be a
/// key followed by exactly one value. A miscounted message is not unsafe
/// — it simply produces bytes the decoder will reject.
#[derive(Debug)]
pub struct ValueWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> ValueWriter<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> ValueWriter<'a> {
        ValueWriter { buf }
    }

    /// Writes a null.
    pub fn null(&mut self) {
        self.buf.push(tag::NULL);
    }

    /// Writes a bool.
    pub fn bool(&mut self, b: bool) {
        self.buf.push(if b { tag::TRUE } else { tag::FALSE });
    }

    /// Writes a u64.
    pub fn u64(&mut self, n: u64) {
        self.buf.push(tag::U64);
        put_varint(self.buf, n);
    }

    /// Writes an i64.
    pub fn i64(&mut self, n: i64) {
        self.buf.push(tag::I64);
        put_varint(self.buf, zigzag(n));
    }

    /// Writes an f64.
    pub fn f64(&mut self, x: f64) {
        self.buf.push(tag::F64);
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a string by reference.
    pub fn str(&mut self, s: &str) {
        self.buf.push(tag::STR);
        put_varint(self.buf, s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a blob by reference.
    pub fn blob(&mut self, b: &[u8]) {
        self.buf.push(tag::BLOB);
        put_varint(self.buf, b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Opens a list of exactly `count` items; write each one next.
    pub fn begin_list(&mut self, count: usize) {
        self.buf.push(tag::LIST);
        put_varint(self.buf, count as u64);
    }

    /// Opens a record of exactly `count` fields; write each as a
    /// [`ValueWriter::key`] followed by one value.
    pub fn begin_record(&mut self, count: usize) {
        self.buf.push(tag::RECORD);
        put_varint(self.buf, count as u64);
    }

    /// Writes a record field key (inside [`ValueWriter::begin_record`]).
    pub fn key(&mut self, k: &str) {
        put_varint(self.buf, k.len() as u64);
        self.buf.extend_from_slice(k.as_bytes());
    }

    /// Writes a whole [`Value`] tree by reference.
    pub fn value(&mut self, v: &Value) {
        encode_into(v, self.buf);
    }

    /// Writes an out-of-band blob reference ([`Value::Ref`]).
    pub fn blob_ref(&mut self, store: &str, key: &str, len: u64, crc: u32) {
        self.buf.push(tag::REF);
        put_varint(self.buf, store.len() as u64);
        self.buf.extend_from_slice(store.as_bytes());
        put_varint(self.buf, key.len() as u64);
        self.buf.extend_from_slice(key.as_bytes());
        put_varint(self.buf, len);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }
}

/// A reusable encoder with a pooled scratch buffer.
///
/// The one-shot [`encode`] / [`frame`][crate::frame] helpers allocate a
/// fresh buffer (and grow it) per message; an `Encoder` amortizes that by
/// encoding into one retained scratch buffer and copying out a
/// right-sized [`Bytes`] at the end — steady-state, one exact-size
/// allocation per message and zero growth reallocations.
///
/// ```
/// use wire::{decode, Encoder, Value};
/// let mut enc = Encoder::new();
/// let v = Value::record([("n", Value::U64(300))]);
/// let a = enc.encode(&v);
/// let b = enc.encode(&v); // reuses the same scratch buffer
/// assert_eq!(a, b);
/// assert_eq!(decode(&a).unwrap(), v);
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    scratch: Vec<u8>,
}

impl Encoder {
    /// An encoder with an empty scratch buffer (it warms up after the
    /// first message).
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An encoder pre-sized for messages of about `cap` bytes.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            scratch: Vec::with_capacity(cap),
        }
    }

    /// Encodes one value, reusing the scratch buffer.
    pub fn encode(&mut self, v: &Value) -> Bytes {
        self.scratch.clear();
        encode_into(v, &mut self.scratch);
        Bytes::copy_from_slice(&self.scratch)
    }

    /// Encodes one value written through a [`ValueWriter`] (borrow-based:
    /// no intermediate tree).
    pub fn encode_with(&mut self, f: impl FnOnce(&mut ValueWriter<'_>)) -> Bytes {
        Bytes::copy_from_slice(self.encode_borrowed(f))
    }

    /// Encodes one value written through a [`ValueWriter`] and lends the
    /// scratch buffer that holds it: for bytes that are only compared,
    /// hashed or copied once (a cache key), with no allocation here.
    pub fn encode_borrowed(&mut self, f: impl FnOnce(&mut ValueWriter<'_>)) -> &[u8] {
        self.scratch.clear();
        f(&mut ValueWriter::new(&mut self.scratch));
        &self.scratch
    }

    /// Frames one value (checksummed envelope), reusing the scratch
    /// buffer. Equivalent to [`frame`][crate::frame] but pooled.
    pub fn frame(&mut self, v: &Value) -> Bytes {
        self.frame_with(|w| w.value(v))
    }

    /// Frames one value written through a [`ValueWriter`]. The closure
    /// must write exactly one value; the encoder prepends the
    /// magic/version/CRC-32/length header over whatever was written.
    pub fn frame_with(&mut self, f: impl FnOnce(&mut ValueWriter<'_>)) -> Bytes {
        self.scratch.clear();
        self.scratch.resize(crate::frame::HEADER_LEN, 0);
        f(&mut ValueWriter::new(&mut self.scratch));
        crate::frame::finish_frame(&mut self.scratch);
        Bytes::copy_from_slice(&self.scratch)
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) input: &'a [u8],
    pub(crate) pos: usize,
    /// When decoding from a refcounted frame, the buffer `input` borrows
    /// from (`input == &shared[base..]`): str/blob payloads become
    /// zero-copy slices of it instead of fresh allocations.
    shared: Option<(&'a Bytes, usize)>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(input: &'a [u8]) -> Reader<'a> {
        Reader {
            input,
            pos: 0,
            shared: None,
        }
    }

    fn new_shared(input: &'a Bytes) -> Reader<'a> {
        Reader {
            input,
            pos: 0,
            shared: Some((input, 0)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::UnexpectedEof { needed: n })?;
        if end > self.input.len() {
            return Err(WireError::UnexpectedEof {
                needed: end - self.input.len(),
            });
        }
        let s = &self.input[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut n: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            n |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                // Canonicality: a continuation byte followed by a 0x00
                // terminator encodes the same value in more bytes — e.g.
                // [0x80, 0x00] is an overlong encoding of 0. Reject it so
                // a value has exactly one encoding (checksums and
                // duplicate-suppression rely on that). A lone 0x00 first
                // byte is the canonical zero and stays legal.
                if shift > 0 && b == 0 {
                    return Err(WireError::BadVarint);
                }
                // Reject non-canonical over-wide encodings of small values
                // in the final (10th) byte position.
                if shift == 63 && b > 1 {
                    return Err(WireError::BadVarint);
                }
                return Ok(n);
            }
        }
        Err(WireError::BadVarint)
    }

    fn length(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(WireError::TooLong(n));
        }
        Ok(n as usize)
    }

    /// Reads a [`Value::Ref`] declared payload length. Bulk payloads live
    /// out-of-band so the ceiling is [`MAX_BULK_LEN`], not [`MAX_LEN`] —
    /// but a hostile declared length is still rejected cleanly here,
    /// before any resolver trusts it enough to allocate.
    fn bulk_length(&mut self) -> Result<u64, WireError> {
        let n = self.varint()?;
        if n > MAX_BULK_LEN {
            return Err(WireError::TooLong(n));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string: a zero-copy slice of the
    /// shared buffer when one is attached, a fresh copy otherwise.
    fn string(&mut self) -> Result<WStr, WireError> {
        let len = self.length()?;
        let start = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
        match self.shared {
            // SAFETY: just validated as UTF-8 above.
            Some((buf, base)) => {
                Ok(unsafe { WStr::from_utf8_unchecked(buf.slice(base + start..base + self.pos)) })
            }
            None => Ok(unsafe { WStr::from_utf8_unchecked(Bytes::copy_from_slice(bytes)) }),
        }
    }

    fn blob(&mut self) -> Result<Bytes, WireError> {
        let len = self.length()?;
        let start = self.pos;
        let bytes = self.take(len)?;
        match self.shared {
            Some((buf, base)) => Ok(buf.slice(base + start..base + self.pos)),
            None => Ok(Bytes::copy_from_slice(bytes)),
        }
    }

    pub(crate) fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        let t = self.byte()?;
        match t {
            tag::NULL => Ok(Value::Null),
            tag::FALSE => Ok(Value::Bool(false)),
            tag::TRUE => Ok(Value::Bool(true)),
            tag::U64 => Ok(Value::U64(self.varint()?)),
            tag::I64 => Ok(Value::I64(unzigzag(self.varint()?))),
            tag::F64 => {
                let raw = self.take(8)?;
                Ok(Value::F64(f64::from_le_bytes(raw.try_into().unwrap())))
            }
            tag::STR => Ok(Value::Str(self.string()?)),
            tag::BLOB => Ok(Value::Blob(self.blob()?)),
            tag::LIST => {
                let count = self.length()?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::List(items))
            }
            tag::RECORD => {
                let count = self.length()?;
                let mut fields = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let k = self.string()?;
                    let v = self.value(depth + 1)?;
                    fields.push((k, v));
                }
                Ok(Value::Record(fields))
            }
            tag::REF => {
                let store = self.string()?;
                let key = self.string()?;
                let len = self.bulk_length()?;
                let raw = self.take(4)?;
                let crc = u32::from_le_bytes(raw.try_into().unwrap());
                Ok(Value::Ref(BlobRef {
                    store,
                    key,
                    len,
                    crc,
                }))
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Walks over exactly one encoded value without materializing it:
    /// every tag, varint and length is still validated, but nothing is
    /// allocated and UTF-8 is not checked. The raw-view API uses this to
    /// find field extents.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        let t = self.byte()?;
        match t {
            tag::NULL | tag::FALSE | tag::TRUE => Ok(()),
            tag::U64 | tag::I64 => self.varint().map(drop),
            tag::F64 => self.take(8).map(drop),
            tag::STR | tag::BLOB => {
                let len = self.length()?;
                self.take(len).map(drop)
            }
            tag::LIST => {
                let count = self.length()?;
                for _ in 0..count {
                    self.skip_value(depth + 1)?;
                }
                Ok(())
            }
            tag::RECORD => {
                let count = self.length()?;
                for _ in 0..count {
                    let klen = self.length()?;
                    self.take(klen)?;
                    self.skip_value(depth + 1)?;
                }
                Ok(())
            }
            tag::REF => {
                let slen = self.length()?;
                self.take(slen)?;
                let klen = self.length()?;
                self.take(klen)?;
                self.bulk_length()?;
                self.take(4).map(drop)
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Skips `n` raw bytes (raw-view API).
    pub(crate) fn skip_bytes(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(drop)
    }

    /// Reads a length-prefixed string, borrowing from the input (used by
    /// the raw-view API; does validate UTF-8).
    pub(crate) fn str_borrowed(&mut self) -> Result<&'a str, WireError> {
        let len = self.length()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// Reads one varint (raw-view API).
    pub(crate) fn read_varint(&mut self) -> Result<u64, WireError> {
        self.varint()
    }

    /// Reads one tag byte (raw-view API).
    pub(crate) fn read_byte(&mut self) -> Result<u8, WireError> {
        self.byte()
    }

    /// Un-zigzags (raw-view API).
    pub(crate) fn unzigzag64(n: u64) -> i64 {
        unzigzag(n)
    }
}

/// Decodes a value, requiring the input to be exactly one encoded value.
///
/// This is the *tree* decoder: string and blob payloads are copied into
/// fresh buffers. When the input is an owned [`Bytes`] frame, prefer
/// [`decode_bytes`], which slices instead of copying.
///
/// # Errors
///
/// Any [`WireError`] describing the malformation, including
/// [`WireError::TrailingBytes`] if input remains after the value.
pub fn decode(input: &[u8]) -> Result<Value, WireError> {
    let mut r = Reader::new(input);
    let v = r.value(0)?;
    if r.pos != input.len() {
        return Err(WireError::TrailingBytes(input.len() - r.pos));
    }
    Ok(v)
}

/// Decodes a value zero-copy: `Str`/`Blob` payloads (and record keys) in
/// the result are cheap slices of `input`, sharing its refcounted
/// allocation instead of copying.
///
/// Accepts exactly the same byte strings as [`decode`] and produces equal
/// `Value`s — only the backing of the leaves differs. The input buffer
/// stays alive as long as any decoded leaf does.
///
/// ```
/// use wire::{decode, decode_bytes, encode, Value};
/// let v = Value::record([("s", Value::str("zero-copy"))]);
/// let enc = encode(&v);
/// assert_eq!(decode_bytes(&enc).unwrap(), decode(&enc).unwrap());
/// ```
///
/// # Errors
///
/// Any [`WireError`] describing the malformation, including
/// [`WireError::TrailingBytes`] if input remains after the value.
pub fn decode_bytes(input: &Bytes) -> Result<Value, WireError> {
    let mut r = Reader::new_shared(input);
    let v = r.value(0)?;
    if r.pos != input.len() {
        return Err(WireError::TrailingBytes(input.len() - r.pos));
    }
    Ok(v)
}

/// Decodes a value from the front of `input`, returning it along with the
/// number of bytes consumed. Useful when concatenating encodings.
///
/// # Errors
///
/// Any [`WireError`] describing the malformation.
pub fn decode_prefix(input: &[u8]) -> Result<(Value, usize), WireError> {
    let mut r = Reader::new(input);
    let v = r.value(0)?;
    Ok((v, r.pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = encode(&v);
        let dec = decode(&enc).unwrap();
        assert_eq!(dec, v);
        // The zero-copy decoder must agree exactly.
        assert_eq!(decode_bytes(&enc).unwrap(), v);
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::U64(0));
        roundtrip(Value::U64(127));
        roundtrip(Value::U64(128));
        roundtrip(Value::U64(u64::MAX));
        roundtrip(Value::I64(0));
        roundtrip(Value::I64(-1));
        roundtrip(Value::I64(i64::MIN));
        roundtrip(Value::I64(i64::MAX));
        roundtrip(Value::F64(0.0));
        roundtrip(Value::F64(-123.456));
        roundtrip(Value::F64(f64::INFINITY));
    }

    #[test]
    fn roundtrip_compound() {
        roundtrip(Value::str(""));
        roundtrip(Value::str("héllo wörld"));
        roundtrip(Value::blob(vec![0u8, 255, 1, 2]));
        roundtrip(Value::list([Value::U64(1), Value::str("two"), Value::Null]));
        roundtrip(Value::record([
            (
                "nested",
                Value::record([("deep", Value::list([Value::Bool(true)]))]),
            ),
            ("blob", Value::blob(vec![9u8; 300])),
        ]));
    }

    #[test]
    fn canonical_encoding_is_stable() {
        let v = Value::record([("a", Value::U64(1)), ("b", Value::str("x"))]);
        assert_eq!(encode(&v), encode(&v.clone()));
    }

    #[test]
    fn varint_boundaries() {
        for n in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(Value::U64(n));
        }
    }

    #[test]
    fn truncated_input_reports_eof() {
        let enc = encode(&Value::str("hello"));
        for cut in 0..enc.len() {
            let err = decode(&enc[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::UnexpectedEof { .. }),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode(&Value::U64(5)).to_vec();
        enc.push(0);
        assert_eq!(decode(&enc), Err(WireError::TrailingBytes(1)));
        let enc = Bytes::from(enc);
        assert_eq!(decode_bytes(&enc), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0xEE]), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // STR tag, length 2, invalid UTF-8 bytes.
        let raw = [super::tag::STR, 2, 0xFF, 0xFE];
        assert_eq!(decode(&raw), Err(WireError::BadUtf8));
        assert_eq!(
            decode_bytes(&Bytes::copy_from_slice(&raw)),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = vec![super::tag::BLOB];
        put_varint(&mut buf, MAX_LEN + 1);
        assert_eq!(decode(&buf), Err(WireError::TooLong(MAX_LEN + 1)));
    }

    #[test]
    fn excessive_depth_rejected() {
        let mut v = Value::Null;
        for _ in 0..(MAX_DEPTH + 2) {
            v = Value::List(vec![v]);
        }
        let enc = encode(&v);
        assert_eq!(decode(&enc), Err(WireError::TooDeep));
        assert_eq!(decode_bytes(&enc), Err(WireError::TooDeep));
    }

    #[test]
    fn depth_at_limit_accepted() {
        let mut v = Value::U64(7);
        for _ in 0..MAX_DEPTH {
            v = Value::List(vec![v]);
        }
        roundtrip(v);
    }

    #[test]
    fn batch_shaped_wide_nesting_roundtrips() {
        // The RPC layer coalesces pipelined requests into one datagram:
        // a record holding a *wide* list of per-call request records.
        // Width must cost no depth — only the envelope's three levels
        // (record → list → record) plus whatever the deepest args use.
        let call = |id: u64, deep_args: Value| {
            Value::record([
                ("op", Value::str("work")),
                ("id", Value::U64(id)),
                ("args", deep_args),
            ])
        };
        let mut deep = Value::U64(7);
        // Envelope: batch record (depth 0) + call list (1) + call
        // record (2) puts the args value at depth 3, so the args may
        // nest MAX_DEPTH - 3 levels before the limit bites.
        for _ in 0..(MAX_DEPTH - 3) {
            deep = Value::List(vec![deep]);
        }
        let calls: Vec<Value> = (0..64)
            .map(|i| call(i, if i == 63 { deep.clone() } else { Value::Null }))
            .collect();
        let batch = Value::record([("batch", Value::List(calls))]);
        roundtrip(batch.clone());

        // One level deeper in the args and the whole batch is rejected.
        let over = Value::record([("batch", Value::List(vec![call(0, Value::List(vec![deep]))]))]);
        assert_eq!(decode(&encode(&over)), Err(WireError::TooDeep));
    }

    #[test]
    fn decode_prefix_reports_consumed() {
        let a = encode(&Value::U64(300));
        let b = encode(&Value::str("tail"));
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let (v, used) = decode_prefix(&joined).unwrap();
        assert_eq!(v, Value::U64(300));
        assert_eq!(used, a.len());
        let (v2, used2) = decode_prefix(&joined[used..]).unwrap();
        assert_eq!(v2, Value::str("tail"));
        assert_eq!(used + used2, joined.len());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes is over the maximum 10-byte varint.
        let raw = [
            super::tag::U64,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x01,
        ];
        assert_eq!(decode(&raw), Err(WireError::BadVarint));
    }

    #[test]
    fn noncanonical_varint_rejected() {
        // [0x80, 0x00] is an overlong encoding of 0: the continuation
        // bit promises more significant bits, then delivers none.
        assert_eq!(
            decode(&[super::tag::U64, 0x80, 0x00]),
            Err(WireError::BadVarint)
        );
        // [0xFF, 0x00] is an overlong encoding of 127.
        assert_eq!(
            decode(&[super::tag::U64, 0xFF, 0x00]),
            Err(WireError::BadVarint)
        );
        // Redundant zero terminator deeper in: overlong encoding of
        // 0x3FFF (two meaningful bytes + 0x00).
        assert_eq!(
            decode(&[super::tag::U64, 0xFF, 0xFF, 0x00]),
            Err(WireError::BadVarint)
        );
        // The canonical encodings of the same values still decode.
        assert_eq!(decode(&[super::tag::U64, 0x00]), Ok(Value::U64(0)));
        assert_eq!(decode(&[super::tag::U64, 0x7F]), Ok(Value::U64(127)));
        // The zero-copy decoder applies the same rule (shared grammar).
        assert_eq!(
            decode_bytes(&Bytes::copy_from_slice(&[super::tag::U64, 0x80, 0x00])),
            Err(WireError::BadVarint)
        );
        // Lengths are varints too: an overlong string length is rejected
        // even though the canonical form would be in range.
        assert_eq!(
            decode(&[super::tag::STR, 0x80, 0x00]),
            Err(WireError::BadVarint)
        );
    }

    #[test]
    fn ten_byte_varint_boundary() {
        // u64::MAX: nine 0xFF continuation bytes + final 0x01 — exactly
        // ten bytes, canonical, accepted.
        let mut raw = vec![super::tag::U64];
        raw.extend_from_slice(&[0xFF; 9]);
        raw.push(0x01);
        assert_eq!(decode(&raw), Ok(Value::U64(u64::MAX)));
        // Final byte 0x00 in the 10th position is the overlong form.
        let mut raw = vec![super::tag::U64];
        raw.extend_from_slice(&[0xFF; 9]);
        raw.push(0x00);
        assert_eq!(decode(&raw), Err(WireError::BadVarint));
        // Final byte > 1 in the 10th position overflows 64 bits.
        let mut raw = vec![super::tag::U64];
        raw.extend_from_slice(&[0xFF; 9]);
        raw.push(0x02);
        assert_eq!(decode(&raw), Err(WireError::BadVarint));
    }

    #[test]
    fn hostile_length_near_usize_max_is_eof_not_overflow() {
        // A declared string length that would overflow `pos + n` must
        // error as UnexpectedEof (checked_add), not wrap around. Use a
        // length just under MAX_LEN so the TooLong guard doesn't mask
        // the take() path, then one near u64::MAX to exercise length().
        let mut raw = vec![super::tag::STR];
        put_varint(&mut raw, MAX_LEN);
        assert!(matches!(decode(&raw), Err(WireError::UnexpectedEof { .. })));
        let mut raw = vec![super::tag::STR];
        put_varint(&mut raw, u64::MAX - 1);
        assert_eq!(decode(&raw), Err(WireError::TooLong(u64::MAX - 1)));
    }

    #[test]
    fn zero_copy_decode_shares_the_input_allocation() {
        let v = Value::record([
            ("key", Value::str("some/key")),
            ("blob", Value::blob(vec![0xA5u8; 64])),
        ]);
        let enc = encode(&v);
        let dec = decode_bytes(&enc).unwrap();
        // The decoded blob is a sub-slice of the encoding, not a copy.
        let blob = dec.get_blob("blob").unwrap();
        let enc_ptr = enc.as_ref().as_ptr() as usize;
        let blob_ptr = blob.as_ref().as_ptr() as usize;
        assert!(
            blob_ptr >= enc_ptr && blob_ptr + blob.len() <= enc_ptr + enc.len(),
            "blob should alias the input frame"
        );
        let s = dec.get("key").unwrap().as_wstr().unwrap();
        let s_ptr = s.as_bytes().as_ptr() as usize;
        assert!(
            s_ptr >= enc_ptr && s_ptr + s.len() <= enc_ptr + enc.len(),
            "str should alias the input frame"
        );
    }

    #[test]
    fn pooled_encoder_matches_oneshot() {
        let mut enc = Encoder::new();
        let values = [
            Value::Null,
            Value::str("pooled"),
            Value::record([("k", Value::blob(vec![1u8; 200]))]),
            Value::U64(42),
        ];
        for v in &values {
            assert_eq!(enc.encode(v), encode(v), "pooled != one-shot for {v}");
        }
    }

    #[test]
    fn writer_matches_tree_encoding() {
        let v = Value::record([
            ("op", Value::str("put")),
            ("id", Value::U64(300)),
            ("neg", Value::I64(-5)),
            ("pi", Value::F64(3.5)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("raw", Value::blob(vec![1u8, 2, 3])),
            ("tags", Value::list([Value::str("a"), Value::str("b")])),
        ]);
        let mut enc = Encoder::new();
        let streamed = enc.encode_with(|w| {
            w.begin_record(8);
            w.key("op");
            w.str("put");
            w.key("id");
            w.u64(300);
            w.key("neg");
            w.i64(-5);
            w.key("pi");
            w.f64(3.5);
            w.key("ok");
            w.bool(true);
            w.key("none");
            w.null();
            w.key("raw");
            w.blob(&[1, 2, 3]);
            w.key("tags");
            w.begin_list(2);
            w.str("a");
            w.str("b");
        });
        assert_eq!(streamed, encode(&v), "writer must be byte-identical");
    }

    #[test]
    fn zigzag_roundtrip() {
        for n in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    #[test]
    fn roundtrip_blob_ref() {
        roundtrip(Value::blob_ref("blob-origin", "spill/7", 0, 0));
        roundtrip(Value::blob_ref("b", "", MAX_BULK_LEN, u32::MAX));
        // Refs nest like any other value.
        roundtrip(Value::record([
            ("op", Value::str("put")),
            ("v", Value::blob_ref("store", "k", 1 << 20, 0xABCD_EF01)),
            ("tail", Value::list([Value::blob_ref("s", "k2", 9, 1)])),
        ]));
    }

    #[test]
    fn blob_ref_writer_matches_tree_encoding() {
        let v = Value::blob_ref("blob-origin", "spill/42", 123_456, 0x1234_5678);
        let mut enc = Encoder::new();
        let streamed =
            enc.encode_with(|w| w.blob_ref("blob-origin", "spill/42", 123_456, 0x1234_5678));
        assert_eq!(
            streamed,
            encode(&v),
            "blob_ref writer must be byte-identical"
        );
    }

    #[test]
    fn hostile_bulk_length_rejected_without_allocation() {
        // A ref declaring an absurd payload length must fail cleanly at
        // decode (TooLong), never reach a resolver that would allocate a
        // reassembly buffer for it. Build the hostile frame by hand.
        let mut raw = vec![super::tag::REF];
        put_varint(&mut raw, 1);
        raw.push(b's');
        put_varint(&mut raw, 1);
        raw.push(b'k');
        put_varint(&mut raw, MAX_BULK_LEN + 1);
        raw.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode(&raw), Err(WireError::TooLong(MAX_BULK_LEN + 1)));
        // skip_value walks the same grammar and applies the same guard.
        let mut r = Reader::new(&raw);
        assert_eq!(r.skip_value(0), Err(WireError::TooLong(MAX_BULK_LEN + 1)));
        // A declared length at the ceiling is fine: refs may exceed the
        // inline MAX_LEN because the bytes never ride the frame.
        const { assert!(MAX_BULK_LEN > MAX_LEN) };
        roundtrip(Value::blob_ref("s", "k", MAX_BULK_LEN, 0));
        // Truncated CRC reports EOF, not garbage.
        let ok = encode(&Value::blob_ref("s", "k", 10, 7));
        assert!(matches!(
            decode(&ok[..ok.len() - 1]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn zero_copy_blob_ref_aliases_the_frame() {
        let enc = encode(&Value::blob_ref("blob-origin", "some/long/key", 99, 3));
        let dec = decode_bytes(&enc).unwrap();
        let r = dec.as_blob_ref().unwrap();
        let enc_ptr = enc.as_ref().as_ptr() as usize;
        for s in [&r.store, &r.key] {
            let p = s.as_bytes().as_ptr() as usize;
            assert!(
                p >= enc_ptr && p + s.len() <= enc_ptr + enc.len(),
                "ref strings should alias the input frame"
            );
        }
    }
}

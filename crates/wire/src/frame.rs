//! Framing: a versioned, checksummed envelope around an encoded value.
//!
//! Layout:
//!
//! ```text
//! +-------+---------+-------------+------------------+---------+
//! | magic | version | crc32 (LE)  | payload len (LE) | payload |
//! |  2 B  |   1 B   |    4 B      |       4 B        |   n B   |
//! +-------+---------+-------------+------------------+---------+
//! ```
//!
//! The checksum covers the payload only; the fixed-size header makes
//! truncation detectable before the checksum is even consulted. Protocol
//! layers (RPC) put exactly one frame in each simulated datagram.
//!
//! On the receive side, [`unframe_bytes`] pairs the envelope check with
//! the zero-copy decoder so the resulting `Value`'s string/blob leaves
//! longer than 15 bytes alias the datagram instead of copying out of it
//! (shorter ones are held inline); [`unframe`] is the copying
//! equivalent for plain slices.

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{decode, encode_into};
use crate::crc::crc32;
use crate::error::WireError;
use crate::value::Value;

/// First magic byte ('P' for proxy).
const MAGIC: [u8; 2] = [0x50, 0x58]; // "PX"

/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 2 + 1 + 4 + 4;

/// The largest payload one frame carries: the header states its length
/// as a `u32`. It is also the most bytes one [`Bytes`] holds, whose
/// offsets are `u32` for the same reason, and so the most a resolved
/// bulk payload ([`crate::MAX_BULK_LEN`]) may declare.
pub const MAX_PAYLOAD_LEN: usize = u32::MAX as usize;

/// The header's length field for a payload of `len` bytes.
///
/// # Panics
///
/// If `len` exceeds [`MAX_PAYLOAD_LEN`]: a wrapped length would frame
/// a payload the receiver reads back short.
fn payload_len_field(len: usize) -> u32 {
    assert!(
        len <= MAX_PAYLOAD_LEN,
        "frame payload of {len} bytes exceeds MAX_PAYLOAD_LEN ({MAX_PAYLOAD_LEN})"
    );
    len as u32
}

/// Fills in the frame header over a buffer whose first [`HEADER_LEN`]
/// bytes are reserved and whose remainder is the encoded payload. This
/// is the single-buffer framing path shared by [`frame`] and the pooled
/// [`crate::Encoder::frame_with`] — encode once, patch the header, no
/// second buffer.
///
/// # Panics
///
/// If the payload exceeds [`MAX_PAYLOAD_LEN`].
pub(crate) fn finish_frame(buf: &mut [u8]) {
    debug_assert!(buf.len() >= HEADER_LEN);
    let len = payload_len_field(buf.len() - HEADER_LEN);
    let crc = crc32(&buf[HEADER_LEN..]);
    buf[0..2].copy_from_slice(&MAGIC);
    buf[2] = FRAME_VERSION;
    buf[3..7].copy_from_slice(&crc.to_le_bytes());
    buf[7..11].copy_from_slice(&len.to_le_bytes());
}

/// Wraps an encoded value in a checksummed frame.
///
/// Single allocation for a payload of up to 64 bytes: the payload is
/// encoded directly after a reserved header, in the block the returned
/// [`Bytes`] holds, and the header is then patched in place. Hot paths
/// framing many messages should prefer [`crate::Encoder::frame`], which
/// also reuses the scratch buffer across messages.
///
/// # Panics
///
/// If the payload exceeds [`MAX_PAYLOAD_LEN`].
///
/// ```
/// use wire::{frame, unframe, Value};
/// let v = Value::str("payload");
/// assert_eq!(unframe(&frame(&v)).unwrap(), v);
/// ```
pub fn frame(v: &Value) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + 64);
    buf.put_slice(&[0; HEADER_LEN]);
    encode_into(v, &mut buf);
    finish_frame(&mut buf);
    buf.freeze()
}

/// Validates the envelope (magic, version, length, checksum) and returns
/// the payload slice without decoding it. Shared by [`unframe`] and
/// `FieldReader::from_frame`, which [`unframe_bytes`] and the RPC
/// envelope decoder read through.
pub(crate) fn check_frame(input: &[u8]) -> Result<&[u8], WireError> {
    if input.len() < HEADER_LEN {
        return Err(WireError::UnexpectedEof {
            needed: HEADER_LEN - input.len(),
        });
    }
    if input[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if input[2] != FRAME_VERSION {
        return Err(WireError::BadVersion(input[2]));
    }
    let expected = u32::from_le_bytes(input[3..7].try_into().unwrap());
    let len = u32::from_le_bytes(input[7..11].try_into().unwrap()) as usize;
    let body = &input[HEADER_LEN..];
    if body.len() < len {
        return Err(WireError::UnexpectedEof {
            needed: len - body.len(),
        });
    }
    if body.len() > len {
        return Err(WireError::TrailingBytes(body.len() - len));
    }
    let actual = crc32(body);
    if actual != expected {
        return Err(WireError::BadChecksum { expected, actual });
    }
    Ok(body)
}

/// Validates a frame and decodes its payload (copying decoder).
///
/// # Errors
///
/// * [`WireError::UnexpectedEof`] — shorter than the header or the
///   declared payload.
/// * [`WireError::BadMagic`] / [`WireError::BadVersion`] — wrong envelope.
/// * [`WireError::BadChecksum`] — payload corruption.
/// * [`WireError::TrailingBytes`] — bytes beyond the declared payload.
/// * any decode error from the payload itself.
pub fn unframe(input: &[u8]) -> Result<Value, WireError> {
    decode(check_frame(input)?)
}

/// Validates a frame and decodes its payload zero-copy: string and blob
/// leaves of the result longer than 15 bytes alias the frame's
/// refcounted buffer; shorter ones are held inline.
///
/// Accepts exactly the frames [`unframe`] accepts and produces equal
/// `Value`s; only the backing of the leaves differs.
///
/// ```
/// use wire::{frame, unframe_bytes, Value};
/// let v = Value::record([("key", Value::str("abc"))]);
/// assert_eq!(unframe_bytes(&frame(&v)).unwrap(), v);
/// ```
///
/// # Errors
///
/// As for [`unframe`].
pub fn unframe_bytes(input: &Bytes) -> Result<Value, WireError> {
    let mut r = crate::FieldReader::from_frame(input)?;
    let v = r.value(0)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;

    #[test]
    fn roundtrip() {
        let v = Value::record([("op", Value::str("get")), ("id", Value::U64(42))]);
        assert_eq!(unframe(&frame(&v)).unwrap(), v);
        assert_eq!(unframe_bytes(&frame(&v)).unwrap(), v);
    }

    #[test]
    fn short_header_rejected() {
        assert!(matches!(
            unframe(&[0x50]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut f = frame(&Value::Null).to_vec();
        f[0] = 0x00;
        assert_eq!(unframe(&f), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut f = frame(&Value::Null).to_vec();
        f[2] = 99;
        assert_eq!(unframe(&f), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut f = frame(&Value::str("sensitive")).to_vec();
        let last = f.len() - 1;
        f[last] ^= 0x01;
        assert!(matches!(unframe(&f), Err(WireError::BadChecksum { .. })));
        let f = Bytes::from(f);
        assert!(matches!(
            unframe_bytes(&f),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let f = frame(&Value::str("some payload"));
        assert!(matches!(
            unframe(&f[..f.len() - 3]),
            Err(WireError::UnexpectedEof { needed: 3 })
        ));
    }

    #[test]
    fn extra_bytes_rejected() {
        let mut f = frame(&Value::Null).to_vec();
        f.push(0xAA);
        assert_eq!(unframe(&f), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn payload_length_field_reaches_u32_max() {
        assert_eq!(payload_len_field(0), 0);
        assert_eq!(payload_len_field(MAX_PAYLOAD_LEN), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PAYLOAD_LEN")]
    fn payload_past_u32_max_fails_loudly() {
        // Once wrapped `as u32`, 4 GiB + 5 read as a 5-byte payload.
        payload_len_field(MAX_PAYLOAD_LEN + 6);
    }

    #[test]
    fn header_overhead_is_constant() {
        let small = frame(&Value::Null);
        let payload = encode(&Value::Null);
        assert_eq!(small.len(), HEADER_LEN + payload.len());
    }

    #[test]
    fn pooled_frame_matches_oneshot() {
        let v = Value::record([("op", Value::str("get")), ("id", Value::U64(42))]);
        let mut enc = crate::Encoder::new();
        assert_eq!(enc.frame(&v), frame(&v));
        // And the writer-based path produces an identical frame.
        let streamed = enc.frame_with(|w| {
            w.begin_record(2);
            w.key("op");
            w.str("get");
            w.key("id");
            w.u64(42);
        });
        assert_eq!(streamed, frame(&v));
    }

    #[test]
    fn zero_copy_unframe_aliases_the_datagram() {
        let v = Value::record([("payload", Value::blob(vec![0x5Au8; 128]))]);
        let f = frame(&v);
        let dec = unframe_bytes(&f).unwrap();
        let blob = dec.get_blob("payload").unwrap();
        let f_ptr = f.as_ref().as_ptr() as usize;
        let b_ptr = blob.as_ref().as_ptr() as usize;
        assert!(
            b_ptr >= f_ptr && b_ptr + blob.len() <= f_ptr + f.len(),
            "decoded blob should alias the frame"
        );
    }
}

//! # wire — the marshalling substrate
//!
//! A self-describing binary presentation layer in the spirit of the
//! Courier and Sun RPC encodings the proxy-principle paper's systems used.
//! Every protocol message in this workspace is a [`Value`] encoded via
//! [`encode`]/[`decode`] and shipped inside a checksummed [`frame`].
//!
//! * [`Value`] — the dynamic data model (null/bool/ints/float/str/blob/
//!   list/record, plus [`BlobRef`] out-of-band references). Strings are
//!   [`WStr`]: refcounted, cheaply clonable.
//! * [`encode`] / [`decode`] — canonical tag-length-value binary codec,
//!   hardened against hostile input (depth & length limits, canonical
//!   varints).
//! * [`decode_bytes`] / [`unframe_bytes`] — the zero-copy receive path:
//!   decoded `Str`/`Blob` leaves are slices of the incoming frame.
//! * [`Encoder`] / [`ValueWriter`] — pooled, borrow-based send path:
//!   one reusable scratch buffer, no intermediate `Value` trees.
//! * [`RawRecord`] / [`peek_frame`] — lazily-decoded views for reading a
//!   couple of header fields without materializing the message.
//! * [`frame`] / [`unframe`] — versioned envelope with a CRC-32 checksum.
//! * [`crc32`] / [`Crc32`] — the checksum itself (implemented here to keep
//!   the workspace dependency-minimal). One private dispatch point picks
//!   the kernel from the CPU and the input length, nothing else:
//!   carry-less multiplication for 64 bytes and up on x86-64 with
//!   `pclmulqdq` (64 being the four 16-byte blocks its fold starts
//!   from), portable slice-by-16 tables for shorter inputs, tails and
//!   every other machine; [`crc32_bytewise`] is kept as the differential
//!   oracle.
//!
//! ## Example
//!
//! ```
//! use wire::{frame, unframe, Value};
//!
//! let request = Value::record([
//!     ("op", Value::str("read")),
//!     ("block", Value::U64(17)),
//! ]);
//! let datagram = frame(&request);
//! let parsed = unframe(&datagram)?;
//! assert_eq!(parsed.get_u64("block")?, 17);
//! # Ok::<(), wire::WireError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod crc;
mod error;
mod frame;
mod raw;
mod value;
mod wstr;

pub use codec::{
    decode, decode_bytes, decode_prefix, encode, Encoder, ValueWriter, MAX_BULK_LEN, MAX_DEPTH,
    MAX_LEN,
};
pub use crc::{crc32, crc32_bytewise, Crc32};
pub use error::WireError;
pub use frame::{frame, unframe, unframe_bytes, FRAME_VERSION, HEADER_LEN};
pub use raw::{peek_frame, RawRecord};
pub use value::{BlobRef, Value};
pub use wstr::WStr;

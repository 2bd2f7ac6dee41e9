//! [`WStr`] — an immutable UTF-8 string backed by a refcounted byte
//! buffer.
//!
//! The codec stores every decoded string as a [`WStr`] so that the
//! zero-copy decoder ([`crate::decode_bytes`]) can hand out strings
//! longer than 15 bytes that are cheap slices of the incoming frame
//! instead of fresh heap copies. Comparisons, ordering and hashing all
//! delegate to the underlying `str`, so it behaves like a `String` for
//! map keys and equality checks.
//!
//! A `WStr` is a [`Bytes`], 24 bytes. A string of up to 15 bytes (most
//! record keys and names) lives in those 24 bytes and holds no heap
//! block: making one from a `&str`, a `String` or a frame copies it in,
//! and a clone copies the 24 bytes. A longer one is one heap block that
//! holds the reference counts and the text together: made from a `&str`
//! or a `String` it costs that one allocation (a copy), a slice of a
//! frame and a clone cost a reference count.

use bytes::Bytes;

use crate::error::WireError;

/// An immutable, cheaply clonable UTF-8 string.
///
/// Invariant: `bytes` is always valid UTF-8 (enforced at every
/// construction site).
///
/// ```
/// use wire::WStr;
/// let s = WStr::from("hello");
/// assert_eq!(&*s, "hello");
/// assert_eq!(s, "hello");
/// ```
#[derive(Clone, Default)]
pub struct WStr {
    bytes: Bytes,
}

impl WStr {
    /// An empty string.
    pub fn new() -> WStr {
        WStr::default()
    }

    /// Validates `bytes` as UTF-8 and wraps them without copying.
    ///
    /// # Errors
    ///
    /// [`WireError::BadUtf8`] if the bytes are not valid UTF-8.
    pub fn from_utf8(bytes: Bytes) -> Result<WStr, WireError> {
        std::str::from_utf8(&bytes).map_err(|_| WireError::BadUtf8)?;
        Ok(WStr { bytes })
    }

    /// Wraps bytes already known to be valid UTF-8.
    ///
    /// # Safety
    ///
    /// `bytes` must be valid UTF-8; constructing a `WStr` from invalid
    /// bytes makes [`WStr::as_str`] undefined behaviour.
    pub(crate) unsafe fn from_utf8_unchecked(bytes: Bytes) -> WStr {
        debug_assert!(std::str::from_utf8(&bytes).is_ok());
        WStr { bytes }
    }

    /// Borrows the string.
    pub fn as_str(&self) -> &str {
        // SAFETY: the UTF-8 invariant is upheld by every constructor.
        unsafe { std::str::from_utf8_unchecked(&self.bytes) }
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes the string, returning the underlying buffer.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Copies into an owned `String`.
    pub fn to_string_owned(&self) -> String {
        self.as_str().to_owned()
    }
}

impl std::ops::Deref for WStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for WStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for WStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Debug for WStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for WStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for WStr {
    fn eq(&self, other: &WStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for WStr {}

impl PartialOrd for WStr {
    fn partial_cmp(&self, other: &WStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WStr {
    fn cmp(&self, other: &WStr) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for WStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for WStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for WStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for WStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<WStr> for str {
    fn eq(&self, other: &WStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<WStr> for &str {
    fn eq(&self, other: &WStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<WStr> for String {
    fn eq(&self, other: &WStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl From<&str> for WStr {
    fn from(s: &str) -> WStr {
        WStr {
            bytes: Bytes::copy_from_slice(s.as_bytes()),
        }
    }
}

impl From<String> for WStr {
    fn from(s: String) -> WStr {
        WStr {
            bytes: Bytes::from(s),
        }
    }
}

impl From<&String> for WStr {
    fn from(s: &String) -> WStr {
        WStr::from(s.as_str())
    }
}

impl From<WStr> for String {
    fn from(s: WStr) -> String {
        s.as_str().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = WStr::from("héllo".to_owned());
        assert_eq!(s.as_str(), "héllo");
        assert_eq!(s.len(), "héllo".len());
        assert!(!s.is_empty());
        assert!(WStr::new().is_empty());
        assert_eq!(String::from(s.clone()), "héllo");
        assert_eq!(s.to_string_owned(), "héllo");
    }

    #[test]
    fn from_utf8_validates() {
        assert!(WStr::from_utf8(Bytes::copy_from_slice(b"ok")).is_ok());
        assert_eq!(
            WStr::from_utf8(Bytes::copy_from_slice(&[0xFF, 0xFE])),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn equality_ignores_backing_identity() {
        let frame = Bytes::copy_from_slice(b"xxhelloxx");
        let sliced = WStr::from_utf8(frame.slice(2..7)).unwrap();
        let owned = WStr::from("hello");
        assert_eq!(sliced, owned);
        assert_eq!(sliced, "hello");
        assert_eq!("hello", sliced);
        assert_eq!(sliced, "hello".to_owned());
    }

    #[test]
    fn ordering_and_hash_follow_str() {
        use std::collections::HashSet;
        let a = WStr::from("a");
        let b = WStr::from("b");
        assert!(a < b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        // Borrow<str> allows &str lookups.
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }

    #[test]
    fn display_and_debug_follow_str() {
        let s = WStr::from("hi\"there");
        assert_eq!(format!("{s}"), "hi\"there");
        assert_eq!(format!("{s:?}"), "\"hi\\\"there\"");
    }
}

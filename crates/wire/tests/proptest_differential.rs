//! Differential property tests for the hot-path rewrites.
//!
//! Each optimised implementation is checked against its simple oracle on
//! arbitrary inputs: the zero-copy decoder against the tree decoder,
//! `crc32` — the carry-less-multiply kernel on long inputs, slice-by-16
//! on short ones and tails — against the byte-at-a-time version (one-shot
//! at every alignment, and under arbitrary streaming split points), and
//! the pooled encoder against the one-shot allocation path.

use bytes::Bytes;
use proptest::prelude::*;
use wire::{
    crc32, crc32_bytewise, decode, decode_bytes, encode, frame, unframe, unframe_bytes, Crc32,
    Encoder, Value, MAX_BULK_LEN,
};

fn arb_blob_ref() -> impl Strategy<Value = Value> {
    ("[a-z-]{1,12}", ".{0,16}", 0..=MAX_BULK_LEN, any::<u32>())
        .prop_map(|(store, key, len, crc)| Value::blob_ref(store, key, len, crc))
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        // NaN breaks PartialEq-based equality assertions; use finite floats.
        (-1e300f64..1e300).prop_map(Value::F64),
        ".{0,24}".prop_map(Value::str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::blob),
        arb_blob_ref(),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{0,6}", inner), 0..6)
                .prop_map(|fields: Vec<(String, Value)>| Value::record(fields)),
        ]
    })
}

proptest! {
    /// The zero-copy decoder agrees with the tree decoder on every
    /// valid encoding.
    #[test]
    fn zero_copy_decode_matches_tree_decode(v in arb_value()) {
        let enc = encode(&v);
        let shared = Bytes::copy_from_slice(&enc);
        prop_assert_eq!(decode_bytes(&shared).unwrap(), decode(&enc).unwrap());
    }

    /// ...and on arbitrary (mostly invalid) bytes the two decoders
    /// agree on accept/reject, and on the value when both accept.
    #[test]
    fn decoders_agree_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let shared = Bytes::copy_from_slice(&bytes);
        match (decode(&bytes), decode_bytes(&shared)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "decoders disagree: tree={a:?} zero-copy={b:?}"),
        }
    }

    /// Frame verification behaves identically through the borrowed and
    /// the zero-copy entry points.
    #[test]
    fn unframe_bytes_matches_unframe(v in arb_value()) {
        let framed = frame(&v);
        prop_assert_eq!(unframe_bytes(&framed).unwrap(), unframe(&framed).unwrap());
    }

    /// `crc32` equals the byte-at-a-time oracle on any input: below and
    /// above the 64 bytes at which the carry-less-multiply kernel takes
    /// over, multi-KiB, and starting at each of the sixteen positions
    /// relative to a 16-byte boundary (the kernel's loads are unaligned;
    /// nothing may depend on where the slice begins).
    #[test]
    fn crc_slice16_matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..6144)) {
        let want = crc32_bytewise(&data);
        let mut buf = vec![0u8; data.len() + 16];
        for offset in 0..16 {
            let window = offset..offset + data.len();
            buf[window.clone()].copy_from_slice(&data);
            prop_assert_eq!(crc32(&buf[window]), want, "offset {}", offset);
        }
    }

    /// Streaming `Crc32::update` over arbitrary split points equals the
    /// one-shot value of both kernels — chunk boundaries must not be
    /// observable. Inputs run to 1 KiB so that a piece can land on either
    /// side of the 64-byte threshold (one update on the fold, the next on
    /// the tables, state handed across), and cuts are byte-granular, so
    /// they fall inside 16-byte blocks as well as between them.
    #[test]
    fn crc_streaming_split_points_match(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut streaming = Crc32::new();
        let mut prev = 0usize;
        for &cut in &cuts {
            streaming.update(&data[prev..cut]);
            prev = cut;
        }
        streaming.update(&data[prev..]);
        prop_assert_eq!(streaming.finish(), crc32(&data));
        prop_assert_eq!(streaming.finish(), crc32_bytewise(&data));
    }

    /// The pooled encoder emits byte-identical output to the one-shot
    /// path, across reuse (stale scratch contents must never leak).
    #[test]
    fn pooled_encoder_matches_oneshot(vs in proptest::collection::vec(arb_value(), 1..4)) {
        let mut enc = Encoder::new();
        for v in &vs {
            prop_assert_eq!(enc.encode(v), encode(v));
            prop_assert_eq!(enc.frame(v), frame(v));
        }
    }

    /// A blob reference survives encode/decode exactly (both decoders),
    /// for any store/key/declared-length/CRC combination in range.
    #[test]
    fn blob_ref_roundtrips(v in arb_blob_ref()) {
        let enc = encode(&v);
        prop_assert_eq!(decode(&enc).unwrap(), v.clone());
        let shared = Bytes::copy_from_slice(&enc);
        prop_assert_eq!(decode_bytes(&shared).unwrap(), v);
    }
}

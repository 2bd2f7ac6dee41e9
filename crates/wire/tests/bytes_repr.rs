//! Pins the representation every frame, string and blob sits on: a
//! [`Bytes`] of up to 15 bytes holds them inline and no heap block, a
//! longer one is one heap block, and sharing costs no allocation.
//!
//! A counting global allocator makes each count exact, so a second block
//! per buffer (a header beside the bytes, say), or a block for a short
//! one, fails here outright. It lives in this test binary alone: the
//! counts are of this thread only, so tests running in parallel on other
//! threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use wire::{Value, WStr};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(&ALLOCS);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(&ALLOCS);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_one(&FREES);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(&ALLOCS);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns how many blocks it freed.
fn frees(f: impl FnOnce()) -> u64 {
    let before = FREES.with(Cell::get);
    f();
    FREES.with(Cell::get) - before
}

/// Whether `bytes` lie inside `owner` itself: held inline, no block.
fn inline_in<T>(bytes: &[u8], owner: &T) -> bool {
    let (base, p) = (owner as *const T as usize, bytes.as_ptr() as usize);
    p >= base && p + bytes.len() <= base + size_of::<T>()
}

fn inline(b: &Bytes) -> bool {
    inline_in(b, b)
}

#[test]
fn a_copied_slice_is_one_block() {
    let (b, n) = allocs(|| Bytes::copy_from_slice(b"one block of bytes"));
    assert_eq!((&b[..], n), (&b"one block of bytes"[..], 1));
    let (s, n) = allocs(|| WStr::from("a key of 16 bytes"));
    assert_eq!((s.as_str(), n), ("a key of 16 bytes", 1));
    // A record key as short as most is held inline.
    let (s, n) = allocs(|| WStr::from("key"));
    assert_eq!((s.as_str(), n), ("key", 0));
    assert!(inline_in(s.as_bytes(), &s));
}

#[test]
fn fifteen_bytes_or_fewer_hold_no_block() {
    for len in [0, 1, 15, 16, 64] {
        let data = vec![b'x'; len];
        let blocks = u64::from(len > 15);
        let text = String::from_utf8(data.clone()).unwrap();
        let leaked: &'static [u8] = Box::leak(data.clone().into_boxed_slice());
        let vec = data.clone();
        let mut builder = BytesMut::with_capacity(len);
        builder.put_slice(&data);
        let made = [
            allocs(|| Bytes::copy_from_slice(&data)),
            allocs(|| Bytes::from_static(leaked)),
            allocs(|| Bytes::from(vec)),
            allocs(|| Bytes::from(text)),
            allocs(|| builder.freeze()),
        ];
        for (i, (b, _)) in made.iter().enumerate() {
            assert_eq!(&b[..], &data[..], "constructor {i} at {len} bytes");
            assert_eq!(inline(b), len <= 15, "constructor {i} at {len} bytes");
        }
        // `freeze` allocates nothing itself: it hands the builder's block
        // over, or copies the bytes out and frees it.
        let counts = made.map(|(_, n)| n);
        assert_eq!(counts, [blocks, blocks, blocks, blocks, 0], "{len} bytes");
    }
}

#[test]
fn an_empty_buffer_is_no_block() {
    let (_, n) = allocs(|| {
        let empties = [Bytes::new(), Bytes::default(), Bytes::copy_from_slice(&[])];
        assert!(empties.iter().all(Bytes::is_empty));
        empties
    });
    assert_eq!(n, 0);
    let (_, n) = allocs(|| (WStr::new(), WStr::from("")));
    assert_eq!(n, 0);
}

#[test]
fn clones_and_slices_share_the_block() {
    let b = Bytes::copy_from_slice(b"a shared block of thirty-one b.");
    let ((c, s, ss), n) = allocs(|| {
        let s = b.slice(2..26);
        let ss = s.slice(1..17);
        (b.clone(), s, ss)
    });
    assert_eq!(n, 0);
    assert_eq!(
        (c, &s[..], &ss[..]),
        (
            b.clone(),
            &b"shared block of thirty-o"[..],
            &b"hared block of t"[..]
        )
    );
    assert_eq!(ss.as_ptr(), b[3..].as_ptr());
    // A slice of 15 bytes or fewer is a copy held inline.
    let (short, n) = allocs(|| s.slice(1..16));
    assert_eq!((&short[..], n), (&b"hared block of "[..], 0));
    assert!(inline(&short));
}

#[test]
fn a_short_slice_pins_no_block() {
    let frame = Bytes::copy_from_slice(&[7u8; 64]);
    let short = frame.slice(3..18);
    let long = frame.slice(3..19);
    // The frame's block outlives the frame while the long slice holds it.
    assert_eq!(frees(|| drop(frame)), 0);
    assert_eq!(frees(|| drop(long)), 1);
    assert_eq!(&short[..], &[7u8; 15][..]);
    assert_eq!(frees(|| drop(short)), 0);
}

#[test]
fn a_filled_builder_freezes_into_its_one_block() {
    let (frozen, n) = allocs(|| {
        let mut m = BytesMut::with_capacity(20);
        m.put_slice(b"header");
        m.put_u8(b':');
        m.put_slice(b"a longer body");
        m.freeze()
    });
    assert_eq!((&frozen[..], n), (&b"header:a longer body"[..], 1));
    assert!(!inline(&frozen));
}

#[test]
fn sizes_are_pinned() {
    assert_eq!(size_of::<Bytes>(), 24);
    assert_eq!(size_of::<WStr>(), 24);
    assert_eq!(size_of::<Value>(), 72);
}

fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Every way of making a `Bytes` of `data` (`From<String>` only when
/// `data` is text). The builder starts at `cut` bytes of capacity and
/// grows past it.
fn constructions(data: &[u8], cut: usize) -> Vec<Bytes> {
    let mut built = BytesMut::with_capacity(cut);
    built.put_slice(&data[..cut]);
    built.put_slice(&data[cut..]);
    let padded = [b"<<", data, b">>"].concat();
    let inner = Bytes::copy_from_slice(&padded).slice(1..padded.len() - 1);
    let mut all = vec![
        Bytes::copy_from_slice(data),
        Bytes::from(data.to_vec()),
        Bytes::from_static(Box::leak(data.to_vec().into_boxed_slice())),
        built.freeze(),
        inner.slice(1..1 + data.len()),
    ];
    if let Ok(text) = String::from_utf8(data.to_vec()) {
        all.push(Bytes::from(text));
    }
    all
}

proptest! {
    /// Whichever constructor made it, a `Bytes` compares, orders and
    /// hashes as its contents do.
    #[test]
    fn every_constructor_agrees_with_the_slice(
        a in proptest::collection::vec(any::<u8>(), 0..48),
        b in proptest::collection::vec(any::<u8>(), 0..48),
        cut in 0usize..48,
    ) {
        // The lossy decodings are text, so `From<String>` joins in.
        let text = |d: &[u8]| String::from_utf8_lossy(d).into_owned().into_bytes();
        for (x, y) in [(a.clone(), b.clone()), (text(&a), text(&b))] {
            let ys = constructions(&y, cut.min(y.len()));
            for bx in constructions(&x, cut.min(x.len())) {
                prop_assert_eq!(&bx[..], &x[..]);
                prop_assert_eq!(hash_of(&bx), hash_of(&x[..]));
                for by in &ys {
                    prop_assert_eq!(&bx == by, x == y);
                    prop_assert_eq!(bx.cmp(by), x.cmp(&y));
                }
            }
        }
    }

    /// Slices of one buffer, inline or shared as their length says,
    /// compare, order and hash as the byte slices they view.
    #[test]
    fn inline_and_shared_slices_agree(
        data in proptest::collection::vec(0u8..3, 0..40),
        ends in proptest::collection::vec((0usize..40, 0usize..40), 4),
    ) {
        let whole = Bytes::copy_from_slice(&data);
        let ranges: Vec<_> = ends
            .iter()
            .map(|&(a, b)| {
                let (a, b) = (a.min(data.len()), b.min(data.len()));
                a.min(b)..a.max(b)
            })
            .collect();
        for rx in &ranges {
            let x = whole.slice(rx.clone());
            prop_assert_eq!(inline(&x), rx.len() <= 15);
            prop_assert_eq!(hash_of(&x), hash_of(&data[rx.clone()]));
            for ry in &ranges {
                let y = whole.slice(ry.clone());
                let (xs, ys) = (&data[rx.clone()], &data[ry.clone()]);
                prop_assert_eq!(x == y, xs == ys);
                prop_assert_eq!(x.cmp(&y), xs.cmp(ys));
            }
        }
    }
}

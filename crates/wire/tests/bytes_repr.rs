//! Pins the representation every frame, string and blob sits on: a
//! [`Bytes`] is one heap block, an empty one is none, and sharing costs
//! no allocation.
//!
//! A counting global allocator makes each count exact, so a second block
//! per buffer (a header beside the bytes, say) fails here outright. It
//! lives in this test binary alone: the counts are of this thread only,
//! so tests running in parallel on other threads do not disturb them.

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
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

#[test]
fn a_copied_slice_is_one_block() {
    let (b, n) = allocs(|| Bytes::copy_from_slice(b"one block"));
    assert_eq!((&b[..], n), (&b"one block"[..], 1));
    let (s, n) = allocs(|| WStr::from("key"));
    assert_eq!((s.as_str(), n), ("key", 1));
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
    let b = Bytes::copy_from_slice(b"shared block");
    let ((c, s, ss), n) = allocs(|| {
        let s = b.slice(2..10);
        let ss = s.slice(1..4);
        (b.clone(), s, ss)
    });
    assert_eq!(n, 0);
    assert_eq!(
        (c, &s[..], &ss[..]),
        (b.clone(), &b"ared blo"[..], &b"red"[..])
    );
    assert_eq!(ss.as_ptr(), b[3..].as_ptr());
}

#[test]
fn a_filled_builder_freezes_into_its_one_block() {
    let (frozen, n) = allocs(|| {
        let mut m = BytesMut::with_capacity(12);
        m.put_slice(b"header");
        m.put_u8(b':');
        m.put_slice(b"body!");
        m.freeze()
    });
    assert_eq!((&frozen[..], n), (&b"header:body!"[..], 1));
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
}

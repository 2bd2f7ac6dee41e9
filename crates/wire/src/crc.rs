//! CRC-32 (IEEE 802.3 polynomial), implemented here to keep the workspace
//! dependency-minimal. Used by the framing layer to detect corruption.
//!
//! One checksum, three ways to compute it, always the same value:
//!
//! * **Carry-less multiplication** (`clmul`, x86-64 only): inputs of
//!   64 bytes or more on a CPU that has `pclmulqdq` are folded 64 bytes
//!   per iteration in four independent 128-bit accumulators, which runs
//!   at memory speed rather than at table-lookup speed. 64 bytes is what
//!   the four-way fold needs to start; it is a property of the
//!   algorithm, not a tuning value.
//! * **Slice-by-16** (`update_portable`): sixteen 256-entry lookup
//!   tables (built at compile time) fold sixteen input bytes per
//!   iteration with no inter-byte data dependency. It runs everything
//!   the kernel above does not: short inputs, the sub-16-byte tail of a
//!   long one, other architectures, and x86-64 CPUs without the
//!   instruction.
//! * **Byte at a time** ([`crc32_bytewise`]): the classic one-table
//!   recurrence, kept as the differential oracle for the tests and the
//!   baseline in benchmarks.
//!
//! Which of the first two runs is decided in one place, `update_state`,
//! from the CPU and the input length alone; there is nothing to
//! configure and no way to ask. Both advance the same raw 32-bit state,
//! so a [`Crc32`] fed in pieces may cross from one to the other at any
//! byte and still agree with the one-shot value.

/// Reflected polynomial for CRC-32/ISO-HDLC (the "zlib" CRC).
const POLY: u32 = 0xEDB8_8320;

/// Sixteen 256-entry lookup tables, built at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is
/// the CRC contribution of byte value `i` when it sits `k` positions
/// before the end of a 16-byte block: `TABLES[k][i] =
/// (TABLES[k-1][i] >> 8) ^ TABLES[0][TABLES[k-1][i] & 0xFF]`.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances a raw (pre-inversion) CRC state over `data`. Shared by
/// [`crc32`] and the incremental [`Crc32`], and the only place a kernel
/// is chosen: the carry-less-multiply fold takes the whole 16-byte
/// blocks of an input long enough for it on a CPU that has the
/// instruction, and the portable loop takes the rest.
fn update_state(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::supported() {
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: `supported()` has just confirmed that this CPU has
        // `pclmulqdq` and `sse4.1`, the features `clmul::update` enables.
        let crc = unsafe { clmul::update(crc, blocks) };
        return update_portable(crc, tail);
    }
    update_portable(crc, data)
}

/// The slice-by-16 loop: sixteen bytes per step, then a byte-granular
/// tail, so the result is split-point independent.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        crc = TABLES[15][(a & 0xFF) as usize]
            ^ TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ TABLES[12][(a >> 24) as usize]
            ^ TABLES[11][(b & 0xFF) as usize]
            ^ TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ TABLES[8][(b >> 24) as usize]
            ^ TABLES[7][(c & 0xFF) as usize]
            ^ TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ TABLES[4][(c >> 24) as usize]
            ^ TABLES[3][(d & 0xFF) as usize]
            ^ TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ TABLES[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009), bit-reflected variant.
///
/// A 128-bit register loaded little-endian holds sixteen message bytes
/// as a reflected polynomial: bit 0 is the highest power of x. Moving
/// such a register `d` bits further from the end of the message
/// multiplies it by x^d, and modulo P that is two 64x64 carry-less
/// multiplications by constants: the low half (the higher powers) by
/// x^(d+32) mod P and the high half by x^(d-32) mod P, the ±32 being
/// where a 32-bit residue sits in its 64-bit operand. Everything here
/// works on the raw CRC state: it enters by XOR into the first four
/// message bytes, and the value returned is the state after the last
/// block, so the table loop can continue from it.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Four 16-byte blocks: what the four-way fold needs to start.
    pub(super) const MIN_LEN: usize = 64;

    /// x^n mod P as a fold constant: the reflected 32-bit residue,
    /// shifted up one bit.
    const fn x_pow(n: u32) -> i64 {
        // x^0; reflected, so bit 31 is the constant term and a multiply
        // by x is a right shift.
        let mut r = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as i64) << 1
    }

    /// floor(x^64 / P), reflected: the 33-bit Barrett constant. Long
    /// division, one quotient bit per step: the bit is the x^31
    /// coefficient of the running remainder x^k mod P, k = 32..=63.
    const fn barrett_mu() -> i64 {
        let mut r = POLY; // x^32 mod P
        let mut mu = 1i64; // the quotient's leading x^32
        let mut bit = 1;
        while bit <= 32 {
            mu |= ((r & 1) as i64) << bit;
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            bit += 1;
        }
        mu
    }

    /// Fold across 512 bits: (x^(512+32), x^(512-32)) mod P.
    const FOLD_512: (i64, i64) = (x_pow(512 + 32), x_pow(512 - 32));
    /// Fold across 128 bits: (x^(128+32), x^(128-32)) mod P.
    const FOLD_128: (i64, i64) = (x_pow(128 + 32), x_pow(128 - 32));
    /// x^64 mod P, for the 96 → 64 bit step.
    const X_64: i64 = x_pow(64);
    /// P itself, reflected, all 33 bits.
    const P_X: i64 = ((POLY as i64) << 1) | 1;
    /// floor(x^64 / P), reflected, for the Barrett step.
    const MU: i64 = barrett_mu();

    /// Whether this CPU can run [`update`] (std caches the probe).
    pub(super) fn supported() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a reference to sixteen readable bytes and
        // `_mm_loadu_si128` has no alignment requirement; SSE2 is part
        // of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` moved across the distance `k` was built for, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw state `crc` over `blocks`.
    ///
    /// # Panics
    ///
    /// If there are fewer than four blocks ([`MIN_LEN`] bytes).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("caller checked MIN_LEN");
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];

        // 64 bytes per iteration, four independent dependency chains.
        let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (acc, block) in x.iter_mut().zip(quad) {
                *acc = fold(*acc, k, load(block));
            }
        }

        // Four accumulators into one, then whatever whole blocks remain.
        let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut acc = x[0];
        for &next in &x[1..] {
            acc = fold(acc, k, next);
        }
        for block in singles {
            acc = fold(acc, k, load(block));
        }

        // 128 → 96 bits. The CRC state is the message times x^32, and
        // this step supplies it: the low half goes up 64 + 32 bits and
        // meets the high half, which `srli` brings down to it; the top
        // 32 bits of the register come out zero.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x10), _mm_srli_si128(acc, 8));
        // 96 → 64 bits: the top 32 coefficients times x^64 mod P.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, X_64), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // 64 → 32 bits, Barrett: q = floor(floor(acc / x^32) · μ / x^32)
        // is the exact quotient acc / P, so acc − q·P is the remainder.
        let pu = _mm_set_epi64x(MU, P_X);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, qp), 1) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The derived constants are the published ones for this
        /// polynomial (Intel 2009, reflected CRC-32 table; also in the
        /// Linux kernel's and zlib's PCLMULQDQ CRC-32).
        #[test]
        fn constants_match_the_published_table() {
            assert_eq!(FOLD_512, (0x1_5444_2BD4, 0x1_C6E4_1596));
            assert_eq!(FOLD_128, (0x1_7519_97D0, 0x0_CCAA_009E));
            assert_eq!(X_64, 0x1_63CD_6124);
            assert_eq!(P_X, 0x1_DB71_0641);
            assert_eq!(MU, 0x1_F701_1641);
        }
    }
}

/// Computes the CRC-32 checksum of `data`.
///
/// Long inputs run the carry-less-multiply kernel where the CPU has
/// one, everything else the slice-by-16 tables; the value is the same
/// either way (see the module docs).
///
/// ```
/// // Standard check value for the CRC-32/ISO-HDLC algorithm.
/// assert_eq!(wire::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update_state(0xFFFF_FFFF, data)
}

/// Computes the CRC-32 checksum one byte at a time.
///
/// The classic single-table recurrence, kept as a differential oracle
/// for [`crc32`]: trivially auditable against the polynomial definition,
/// and the baseline the benchmarks compare [`crc32`] to. Always returns
/// the same value as [`crc32`].
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Incremental CRC-32 state for hashing data in pieces.
///
/// ```
/// use wire::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), wire::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Finishes and returns the checksum. The state may keep being
    /// updated afterwards (finish is non-destructive).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello crc world, split me into pieces - long enough for slice16";
        for split in 0..data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn slice16_matches_bytewise_oracle() {
        // Differential check over every length 0..=96 (covers empty,
        // sub-block tails, exact blocks, and multi-block inputs) with a
        // pseudo-random fill.
        let mut data = Vec::new();
        let mut x = 0x1234_5678u32;
        for len in 0..=96usize {
            data.clear();
            for _ in 0..len {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                data.push((x >> 24) as u8);
            }
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len={len}");
        }
    }

    /// The LCG byte stream the long-input vectors below were taken from.
    fn lcg_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// Pinned answers for inputs long enough to reach the
    /// carry-less-multiply kernel, computed with `crc32_bytewise` before
    /// that kernel existed. Sender and receiver share `crc32`, so a
    /// kernel that is deterministic but wrong frames and unframes
    /// happily; only a literal catches it on every host.
    #[test]
    fn known_vectors_at_and_beyond_the_kernel_threshold() {
        const ANSWERS: [(usize, u32); 10] = [
            (64, 0xAB93_71BB),
            (65, 0xC773_51B5),
            (79, 0x9FBE_01C7),
            (80, 0xDAF0_6CA1),
            (127, 0x807C_1924),
            (128, 0xBE84_0679),
            (129, 0xE809_3A45),
            (255, 0xCB62_2054),
            (4096, 0x974C_2E4A),
            (65537, 0x9084_2716),
        ];
        for (len, want) in ANSWERS {
            let data = lcg_bytes(len);
            assert_eq!(crc32(&data), want, "len={len}");
            assert_eq!(crc32_bytewise(&data), want, "oracle, len={len}");
        }
    }

    /// The portable loop is what every host without the instruction (and
    /// every non-x86 target) runs for all lengths; drive it directly so
    /// it stays tested on hosts where `update_state` never picks it for
    /// a long input.
    #[test]
    fn portable_loop_matches_oracle_on_long_inputs() {
        let data = lcg_bytes(7 + 4096 + 15);
        for len in [64, 65, 127, 128, 129, 1000, 4096, 4096 + 15] {
            for start in [0, 1, 7] {
                let piece = &data[start..start + len];
                assert_eq!(
                    !update_portable(0xFFFF_FFFF, piece),
                    crc32_bytewise(piece),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}

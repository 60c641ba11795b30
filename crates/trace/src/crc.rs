//! CRC-32 (IEEE 802.3, the zlib polynomial), no dependencies.
//!
//! The workspace's one checksum: it guards checkpoint-v2 payloads
//! (`nn::checkpoint`), linear-model snapshots (`ml::io`) and every wire
//! frame (`serve::transport`), so all three layers detect corruption the
//! same way. It lives here because `trace` is the one crate all of them
//! already depend on.
//!
//! Two paths compute the same value:
//!
//! * **The fold** (x86-64 with `pclmulqdq` and `sse4.1`, detected once
//!   at runtime): Gopal et al.'s carry-less-multiply folding ("Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009), in the form of zlib's `crc32_simd.c`. Four 16-byte
//!   lanes absorb 64 bytes per step, fold into one lane, and a Barrett
//!   reduction leaves the 32-bit register. It takes the register in and
//!   hands it back, so [`Crc32::update`] runs it over the 16-byte-multiple
//!   prefix of any piece of at least 64 bytes and the table loop below
//!   finishes the tail.
//! * **Slice-by-8**, eight table lookups per 8 bytes: the portable path,
//!   the one for short pieces and tails, and the oracle the fold is
//!   tested against.
//!
//! The polynomial and every checksum value are the same on both paths,
//! so the files and frames they guard keep every byte.

use std::sync::OnceLock;

/// Slice-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][b]`
/// is the CRC contribution of byte `b` followed by `k` zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Folds `data` into the register `crc` with the slice-by-8 tables.
fn slice_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(not(target_arch = "x86_64"))]
fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
    (crc, data)
}

#[cfg(target_arch = "x86_64")]
use clmul::fold;

/// The carry-less-multiply fold (see the module docs).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::sync::OnceLock;

    /// Shortest piece the fold takes: its four lanes start full.
    const FOLD_MIN: usize = 64;

    // Folding constants for the bit-reflected polynomial, each
    // `(x^n mod P)` bit-reversed and shifted left once (the paper's
    // appendix; `fold_constants_are_the_powers_of_x_they_claim` derives
    // them): the 64-byte step multiplies by x^(512+32) and x^(512-32), the
    // 16-byte step by x^(128+32) and x^(128-32), the 128 → 64-bit step by
    // x^64. Then P itself with its x^32 term, and µ = x^64 div P for
    // the Barrett reduction.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    pub(super) const K3: u64 = 0x1_7519_97D0;
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    pub(super) const K5: u64 = 0x1_63CD_6124;
    pub(super) const P: u64 = 0x1_DB71_0641;
    pub(super) const MU: u64 = 0x1_F701_1641;

    fn has_clmul() -> bool {
        static CACHED: OnceLock<bool> = OnceLock::new();
        *CACHED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Runs the fold over the longest 16-byte-multiple prefix of `data`
    /// when the CPU has it and `data` holds at least [`FOLD_MIN`] bytes;
    /// returns the register and the bytes still to fold.
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        if data.len() < FOLD_MIN || !has_clmul() {
            return (crc, data);
        }
        let (head, tail) = data.split_at(data.len() & !15);
        // SAFETY: pclmulqdq and sse4.1 were detected at runtime, and
        // `head` is at least FOLD_MIN bytes and a multiple of 16 long.
        (unsafe { fold_clmul(crc, head) }, tail)
    }

    /// Folds `data` into the register `crc` with carry-less multiplies
    /// (zlib's `crc32_sse42_simd_`, step for step).
    ///
    /// # Safety
    ///
    /// Requires pclmulqdq and sse4.1, and `data.len()` must be at least
    /// [`FOLD_MIN`] and a multiple of 16: every load reads 16 bytes
    /// inside `data`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_clmul(crc: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(data.len() >= FOLD_MIN && data.len().is_multiple_of(16));
        let at = data.as_ptr();
        macro_rules! load {
            ($offset:expr) => {
                _mm_loadu_si128(at.add($offset).cast::<__m128i>())
            };
        }
        // lane·x^n: the low half times k's low half, XOR the high half
        // times k's high half; then the next 16 bytes are XORed in
        macro_rules! fold16 {
            ($lane:expr, $k:expr, $next:expr) => {{
                let lane = $lane;
                let lo = _mm_clmulepi64_si128(lane, $k, 0x00);
                let hi = _mm_clmulepi64_si128(lane, $k, 0x11);
                _mm_xor_si128(_mm_xor_si128(lo, hi), $next)
            }};
        }

        let mut x1 = _mm_xor_si128(load!(0), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load!(16);
        let mut x3 = load!(32);
        let mut x4 = load!(48);
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        let mut done = FOLD_MIN;
        while done + 64 <= data.len() {
            x1 = fold16!(x1, k1k2, load!(done));
            x2 = fold16!(x2, k1k2, load!(done + 16));
            x3 = fold16!(x3, k1k2, load!(done + 32));
            x4 = fold16!(x4, k1k2, load!(done + 48));
            done += 64;
        }

        // four lanes into one, then any 16-byte blocks left
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        x1 = fold16!(x1, k3k4, x2);
        x1 = fold16!(x1, k3k4, x3);
        x1 = fold16!(x1, k3k4, x4);
        while done < data.len() {
            x1 = fold16!(x1, k3k4, load!(done));
            done += 16;
        }

        // 128 → 64 bits, then 64 → 32 bits by Barrett reduction
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
        let k5 = _mm_set_epi64x(0, K5 as i64);
        x1 = _mm_xor_si128(
            _mm_srli_si128(x1, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
        );
        let poly = _mm_set_epi64x(MU as i64, P as i64);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x1, r), 1) as u32
    }
}

/// A running IEEE CRC-32: fold bytes in with [`update`](Self::update) as
/// they arrive, in pieces of any size, then read the checksum with
/// [`finish`](Self::finish). The pieces' boundaries never change the
/// result, so a streaming reader checks a file without holding it.
///
/// ```
/// let mut crc = trace::Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finish(), trace::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The register before the final inversion.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of zero bytes so far.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `data` in after every byte seen so far: the carry-less fold
    /// takes what it can (see the module docs), slice-by-8 the rest.
    pub fn update(&mut self, data: &[u8]) {
        let (crc, tail) = fold(self.state, data);
        self.state = slice_by_8(crc, tail);
    }

    /// The CRC-32 of every byte passed to [`update`](Self::update).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// IEEE CRC-32 of `data`: the one-shot form of [`Crc32`].
///
/// ```
/// assert_eq!(trace::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop `crc32` replaced: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = &crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Seeded test bytes (splitmix64), so this crate needs no `rand`.
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        (0..n).map(|_| splitmix(&mut state) as u8).collect()
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn crc32_matches_the_check_value_and_the_bytewise_loop() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let buf = bytes(32, 308);
        // every length 0..=300 at every start offset 0..8, so each split
        // into 8-byte words plus a remainder, and each alignment, is hit
        for start in 0..8 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        // a buffer of the served LSTM checkpoint's size
        let big = bytes(33, 5_600_003);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn running_crc_is_independent_of_how_the_bytes_are_split() {
        let buf = bytes(34, 1000);
        let whole = crc32(&buf);
        assert_eq!(Crc32::new().finish(), crc32(b""));
        // two pieces split at every point
        for cut in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..cut]);
            crc.update(&buf[cut..]);
            assert_eq!(crc.finish(), whole, "cut {cut}");
        }
        // ragged pieces of 1 to 13 bytes, empty pieces between them
        let mut crc = Crc32::default();
        let (mut at, mut step) = (0, 0);
        while at < buf.len() {
            let end = (at + step % 13 + 1).min(buf.len());
            crc.update(&buf[at..end]);
            crc.update(&[]);
            at = end;
            step += 7;
        }
        assert_eq!(crc.finish(), whole);
    }

    #[test]
    fn fold_matches_the_bytewise_loop_at_every_length_and_offset() {
        // every length 0..=2048 at 16 start offsets: lengths below 64
        // never fold, and from 64 up each 16-byte block count, each tail
        // of 0-15 bytes and each alignment of the first load is hit
        let buf = bytes(35, 2048 + 16);
        for start in 0..16 {
            for len in 0..=2048 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        let big = bytes(36, 16 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn slice_by_8_alone_matches_the_bytewise_loop() {
        // the portable path, called directly: on a CPU with the fold,
        // `update` would never send it a long piece
        let buf = bytes(37, 2048 + 8);
        for start in 0..8 {
            for len in (0..=300).chain([511, 512, 513, 2048]) {
                let data = &buf[start..start + len];
                assert_eq!(
                    !slice_by_8(0xFFFF_FFFF, data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        let big = bytes(38, 5_600_003);
        assert_eq!(!slice_by_8(0xFFFF_FFFF, &big), crc32_bytewise(&big));
    }

    #[test]
    fn pieces_of_random_size_give_the_one_shot_value() {
        // pieces of 1 B to 70 KB: half drawn up to 70,000 bytes, half up
        // to 130, so short pieces, pieces either side of the 64-byte fold
        // threshold and pieces of many 64 KB read buffers all occur, each
        // starting at whatever register the last one left
        let buf = bytes(39, 4 << 20);
        let whole = crc32_bytewise(&buf);
        let mut rng = 40;
        for round in 0..4 {
            let mut crc = Crc32::new();
            let mut at = 0;
            while at < buf.len() {
                let r = splitmix(&mut rng);
                let cap = if r & 1 == 0 { 70_000 } else { 130 };
                let end = (at + 1 + (r >> 1) as usize % cap).min(buf.len());
                crc.update(&buf[at..end]);
                at = end;
            }
            assert_eq!(crc.finish(), whole, "round {round}");
        }
    }

    /// `x^n mod P` in the usual bit order (P = 0x1_04C1_1DB7, the same
    /// polynomial unreflected).
    #[cfg(target_arch = "x86_64")]
    fn x_pow_mod_p(n: u32) -> u32 {
        let mut r: u64 = 1;
        for _ in 0..n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= 0x1_04C1_1DB7;
            }
        }
        r as u32
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_powers_of_x_they_claim() {
        use clmul::{K1, K2, K3, K4, K5, MU, P};
        let reflected = |n| u64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        assert_eq!(K1, reflected(4 * 128 + 32));
        assert_eq!(K2, reflected(4 * 128 - 32));
        assert_eq!(K3, reflected(128 + 32));
        assert_eq!(K4, reflected(128 - 32));
        assert_eq!(K5, reflected(64));
        // P with its x^32 term, and µ = x^64 div P, both over 33 bits
        assert_eq!(P, 0x1_04C1_1DB7u64.reverse_bits() >> 31);
        let mut rem: u128 = 1 << 64;
        let mut mu = 0u64;
        for bit in (32..=64).rev() {
            if rem & (1 << bit) != 0 {
                rem ^= 0x1_04C1_1DB7u128 << (bit - 32);
                mu |= 1 << (bit - 32);
            }
        }
        assert_eq!(MU, mu.reverse_bits() >> 31);
    }
}

//! CRC-32 (IEEE 802.3, the zlib polynomial): table-driven, no
//! dependencies.
//!
//! The workspace's one checksum: it guards checkpoint-v2 payloads
//! (`nn::checkpoint`), linear-model snapshots (`ml::io`) and every wire
//! frame (`serve::transport`), so all three layers detect corruption the
//! same way. It lives here because `trace` is the one crate all of them
//! already depend on.

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

    /// Folds `data` in after every byte seen so far.
    pub fn update(&mut self, data: &[u8]) {
        let t = crc32_tables();
        let mut crc = self.state;
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
        self.state = crc;
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
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
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
}

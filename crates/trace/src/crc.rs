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

/// IEEE CRC-32 of `data`.
///
/// ```
/// assert_eq!(trace::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
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
    !crc
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
}

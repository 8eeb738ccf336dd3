//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slice-by-8.
//!
//! The workspace's one CRC: it checks gom-wire frames and journal records.
//! The main loop folds eight input bytes per step through eight 256-entry
//! tables (table `k` advances a byte's contribution by `k` further zero
//! bytes), so a large reply costs roughly a quarter of the bytewise loop;
//! the tail of fewer than eight bytes takes the bytewise step. Outputs are
//! those of the plain table-driven CRC-32 (zlib / PNG / Ethernet).
//!
//! Implemented locally because the crate set for this project is
//! deliberately minimal; the tables are built at compile time.

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes` (same parameters as zlib / PNG / Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The bytewise table-driven loop: the reference the slice-by-8 loop
    /// must reproduce bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = gom_obs::SplitMix64::new(seed);
        (0..len).map(|_| rng.next() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_offset_and_length() {
        // Every alignment of the 8-byte main loop against every tail length.
        let buf = noise(8 + 64, 0xC3C3_2032);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        let big = noise(64 * 1024, 0x64_4B1B);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32(b"evolution session");
        let mut data = b"evolution session".to_vec();
        data[3] ^= 0x40;
        assert_ne!(a, crc32(&data));
    }
}

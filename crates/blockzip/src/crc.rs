//! CRC-32 (IEEE polynomial) for block integrity checks, computed eight
//! bytes at a time ("slicing-by-8").

/// Reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic bytewise table. `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so eight lookups,
/// one per table, advance the CRC over eight input bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 checksum of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(blockzip::crc::crc32(b"123456789"), 0xcbf43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte table loop slicing-by-8 replaced, kept as the
    /// reference its checksums must match.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32(b"abc"), 0x3524_41c2);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(bytewise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn slicing_matches_the_bytewise_loop() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..4_096 + 8)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for trial in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = (x >> 33) as usize % 4_096;
            let start = trial % 8;
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), bytewise(slice), "len {len} at offset {start}");
        }
        for len in 0..=64 {
            for start in 0..8 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "len {len} at offset {start}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello world".to_vec();
        let before = crc32(&data);
        data[5] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }
}

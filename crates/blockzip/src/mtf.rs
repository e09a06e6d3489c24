//! Move-to-front coding over the byte alphabet.
//!
//! After the BWT, equal bytes cluster; MTF turns those clusters into runs
//! of small values (mostly zeros), which the run-length and entropy stages
//! exploit.

/// Move-to-front encodes `data`, returning one rank byte per input byte.
///
/// # Examples
///
/// ```
/// let ranks = blockzip::mtf::encode(b"aaab");
/// assert_eq!(ranks, vec![97, 0, 0, 98]);
/// ```
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(data, &mut out);
    out
}

/// Like [`encode`], but clears and fills a caller-provided buffer so hot
/// loops can reuse the allocation across blocks.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let mut table: [u8; 256] = init_table();
    out.clear();
    out.reserve(data.len());
    for &b in data {
        let rank = rank_of(&table, b);
        out.push(rank as u8);
        // Move the byte to the front.
        table.copy_within(0..rank, 1);
        table[0] = b;
    }
}

/// `0x01` in every byte lane of a word.
const LOW_BITS: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x80` in every byte lane of a word.
const HIGH_BITS: u64 = u64::from_ne_bytes([0x80; 8]);

/// The position of `b` in `table`, found eight entries at a time: XOR
/// with `b` in every lane zeroes the lanes that hold it, and the
/// has-zero-byte test `(w - 0x01…01) & !w & 0x80…80` flags them. A borrow
/// can only flag lanes above a true zero, so the lowest flag marks the
/// first match.
fn rank_of(table: &[u8; 256], b: u8) -> usize {
    let pattern = LOW_BITS * u64::from(b);
    for (i, lanes) in table.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(lanes.try_into().expect("8-byte chunk")) ^ pattern;
        let zero = w.wrapping_sub(LOW_BITS) & !w & HIGH_BITS;
        if zero != 0 {
            return i * 8 + (zero.trailing_zeros() / 8) as usize;
        }
    }
    unreachable!("the table holds every byte value")
}

/// Inverts [`encode`].
///
/// # Examples
///
/// ```
/// let ranks = blockzip::mtf::encode(b"hello");
/// assert_eq!(blockzip::mtf::decode(&ranks), b"hello");
/// ```
pub fn decode(ranks: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    decode_into(ranks, &mut out);
    out
}

/// Like [`decode`], but clears and fills a caller-provided buffer.
pub fn decode_into(ranks: &[u8], out: &mut Vec<u8>) {
    let mut table: [u8; 256] = init_table();
    out.clear();
    out.reserve(ranks.len());
    for &rank in ranks {
        let b = table[rank as usize];
        out.push(b);
        table.copy_within(0..rank as usize, 1);
        table[0] = b;
    }
}

fn init_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    for (i, slot) in t.iter_mut().enumerate() {
        *slot = i as u8;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        assert!(encode(&[]).is_empty());
        assert!(decode(&[]).is_empty());
    }

    #[test]
    fn runs_become_zeros() {
        let enc = encode(&[5, 5, 5, 5]);
        assert_eq!(enc, vec![5, 0, 0, 0]);
    }

    #[test]
    fn alternation_becomes_ones() {
        let enc = encode(&[1, 2, 1, 2, 1, 2]);
        assert_eq!(enc, vec![1, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255).chain((0..=255).rev()).collect();
        assert_eq!(decode(&encode(&data)), data);
    }

    /// The linear search the word-at-a-time rank replaced, kept as the
    /// reference its ranks must match.
    fn linear_encode(data: &[u8]) -> Vec<u8> {
        let mut table = init_table();
        data.iter()
            .map(|&b| {
                let rank = table.iter().position(|&t| t == b).unwrap();
                table.copy_within(0..rank, 1);
                table[0] = b;
                rank as u8
            })
            .collect()
    }

    #[test]
    fn rank_finds_every_value_at_every_position() {
        // Rotation k of the identity puts value v at position v - k, so
        // the rotations together place every value at every position.
        let mut table = init_table();
        for k in 0..256usize {
            for v in 0..=255u8 {
                assert_eq!(rank_of(&table, v), (usize::from(v) + 256 - k) % 256);
            }
            table.rotate_left(1);
        }
    }

    #[test]
    fn ranks_match_the_linear_search() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let random: Vec<u8> = (0..20_000).map(|_| next() as u8).collect();
        // Long runs of a few values, as the BWT leaves them.
        let runs: Vec<u8> = (0..200)
            .flat_map(|_| {
                let (byte, len) = (next() as u8 % 4 * 60, next() % 300);
                std::iter::repeat_n(byte, len as usize)
            })
            .collect();
        // Every value, ascending then descending, so each sits deep in the
        // table when it is next searched for.
        let sweep: Vec<u8> = (0..=255).chain((0..=255).rev()).cycle().take(5_000).collect();
        for data in [&random, &runs, &sweep] {
            assert_eq!(encode(data), linear_encode(data));
        }
    }

    #[test]
    fn roundtrip_pseudorandom() {
        let mut x = 42u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(decode(&encode(&data)), data);
    }
}

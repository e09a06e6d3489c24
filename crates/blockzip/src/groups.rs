//! Multi-table Huffman coding with group selectors, as in BZIP2: the
//! symbol stream is cut into groups of 50, up to six Huffman tables are
//! refined iteratively so that different stream phases (long zero runs
//! vs. literal-heavy stretches) get differently shaped codes, and a
//! move-to-front + unary selector sequence records each group's table.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{
    canonical_codes, code_lengths, HuffmanDecoder, MAX_ALPHABET, MAX_CODE_LEN,
};
use crate::rle::EOB;

/// Symbols per selector group (BZIP2's constant).
pub const GROUP_SIZE: usize = 50;
/// Maximum number of coding tables.
pub const MAX_TABLES: usize = 6;
/// Refinement passes over the group assignment.
const PASSES: usize = 4;

/// Chooses the table count for a stream length (BZIP2's thresholds).
fn table_count(n_symbols: usize) -> usize {
    match n_symbols {
        0..=199 => 2,
        200..=599 => 3,
        600..=1199 => 4,
        1200..=2399 => 5,
        _ => MAX_TABLES,
    }
}

/// Writes the used-symbol bitmap: a coarse word of 16-symbol blocks plus
/// one fine 16-bit word per used block, as in BZIP2.
fn write_used_map(used: &[bool], w: &mut BitWriter) {
    let n_words = used.len().div_ceil(16);
    let mut coarse = 0u32;
    for (word, chunk) in used.chunks(16).enumerate() {
        if chunk.iter().any(|&u| u) {
            coarse |= 1 << word;
        }
    }
    w.write(u64::from(coarse), n_words as u32);
    for chunk in used.chunks(16) {
        if chunk.iter().any(|&u| u) {
            let mut fine = 0u16;
            for (bit, &u) in chunk.iter().enumerate() {
                if u {
                    fine |= 1 << bit;
                }
            }
            w.write(u64::from(fine), 16);
        }
    }
}

/// Reads the used-symbol bitmap written by [`write_used_map`] and returns
/// the used symbols in ascending order.
fn read_used_map(alphabet: usize, r: &mut BitReader<'_>) -> Result<Vec<u16>, String> {
    let n_words = alphabet.div_ceil(16);
    let coarse = r.read(n_words as u32)? as u32;
    let mut dense = Vec::new();
    for word in 0..n_words {
        if coarse & (1 << word) == 0 {
            continue;
        }
        let fine = r.read(16)? as u16;
        for bit in 0..16usize {
            let sym = word * 16 + bit;
            if sym < alphabet && fine & (1 << bit) != 0 {
                dense.push(sym as u16);
            }
        }
    }
    if dense.is_empty() {
        return Err("empty used-symbol map".to_string());
    }
    Ok(dense)
}

/// Writes the code lengths of the used symbols delta-coded as in BZIP2:
/// a 5-bit starting length, then per symbol a walk of `1x` steps
/// (`10` = +1, `11` = −1) ending in a `0` bit.
fn write_lengths(lengths: &[u8], w: &mut BitWriter) {
    let mut cur = lengths[0];
    w.write(u64::from(cur), 5);
    for &target in lengths {
        while cur != target {
            w.write(1, 1);
            if target > cur {
                w.write(0, 1);
                cur += 1;
            } else {
                w.write(1, 1);
                cur -= 1;
            }
        }
        w.write(0, 1);
    }
}

/// Reads lengths written by [`write_lengths`], one per used symbol.
fn read_lengths(lengths: &mut [u8], r: &mut BitReader<'_>) -> Result<(), String> {
    let mut cur = r.read(5)? as i32;
    for slot in lengths.iter_mut() {
        loop {
            if !(1..=i32::from(MAX_CODE_LEN)).contains(&cur) {
                return Err(format!("delta-coded length {cur} out of range"));
            }
            if r.read(1)? == 0 {
                break;
            }
            if r.read(1)? == 0 {
                cur += 1;
            } else {
                cur -= 1;
            }
        }
        *slot = cur as u8;
    }
    Ok(())
}

/// Bits per table in a packed group cost: a group of 50 codes of at most
/// 20 bits costs at most 1,000, so six tables' costs share one `u64`
/// without carrying into each other.
const COST_BITS: usize = 10;
const _: () = assert!(GROUP_SIZE * (MAX_CODE_LEN as usize) < 1 << COST_BITS);
const _: () = assert!(MAX_TABLES * COST_BITS <= 64);

/// Encodes `symbols` (terminated by [`EOB`]) with refined multi-table
/// Huffman coding, writing the used-symbol map, tables, selectors, and
/// payload to `w`.
///
/// Everything after the used-symbol scan works on the used symbols only:
/// the stream is renumbered densely once, and each pass counts, builds
/// and prices tables over that dense alphabet in buffers kept across
/// the passes. Unused symbols get no code in any case, so the lengths,
/// selectors and bytes are those of a build over the full alphabet.
///
/// # Panics
///
/// Panics if `symbols` is empty (the RLE stage always emits an EOB), if
/// `alphabet` exceeds [`MAX_ALPHABET`], or if a symbol is outside it.
pub fn encode_symbols(symbols: &[u16], alphabet: usize, w: &mut BitWriter) {
    assert!(!symbols.is_empty(), "symbol stream must at least hold EOB");
    assert!(alphabet <= MAX_ALPHABET, "alphabet of {alphabet} exceeds {MAX_ALPHABET}");
    let n_tables = table_count(symbols.len());
    let n_groups = symbols.len().div_ceil(GROUP_SIZE);
    let mut used = [false; MAX_ALPHABET];
    let used = &mut used[..alphabet];
    for &s in symbols {
        used[usize::from(s)] = true;
    }
    let mut dense_of = [0u16; MAX_ALPHABET];
    let mut n_used = 0;
    for (slot, _) in dense_of.iter_mut().zip(used.iter()).filter(|(_, &u)| u) {
        *slot = n_used as u16;
        n_used += 1;
    }
    let dense: Vec<u16> = symbols.iter().map(|&s| dense_of[usize::from(s)]).collect();

    // Initial assignment: contiguous frequency bands, like BZIP2 — split
    // the stream into n_tables runs of roughly equal symbol counts.
    let mut selectors: Vec<u8> =
        (0..n_groups).map(|g| ((g * n_tables) / n_groups) as u8).collect();

    // One row per table, reused by every pass.
    let mut weights = vec![0u64; n_tables * n_used];
    let mut lengths = vec![0u8; n_tables * n_used];
    let mut packed = [0u64; MAX_ALPHABET];
    let packed = &mut packed[..n_used];
    for _pass in 0..PASSES {
        // Rebuild each table from the groups currently assigned to it.
        // Every table must cover every *used* symbol so any group can be
        // assigned to any table, so each count starts at one.
        weights.fill(1);
        for (chunk, &t) in dense.chunks(GROUP_SIZE).zip(&selectors) {
            let row = &mut weights[usize::from(t) * n_used..][..n_used];
            for &d in chunk {
                row[usize::from(d)] += 1;
            }
        }
        for (row, lens) in
            weights.chunks_exact_mut(n_used).zip(lengths.chunks_exact_mut(n_used))
        {
            code_lengths(row, MAX_CODE_LEN, lens);
        }
        // Reassign every group to its cheapest table (the first on a
        // tie), pricing all tables at once: `packed` holds each symbol's
        // code lengths in `COST_BITS`-wide fields, one per table.
        packed.fill(0);
        for (t, lens) in lengths.chunks_exact(n_used).enumerate() {
            for (p, &len) in packed.iter_mut().zip(lens) {
                *p |= u64::from(len) << (COST_BITS * t);
            }
        }
        for (chunk, sel) in dense.chunks(GROUP_SIZE).zip(selectors.iter_mut()) {
            let costs: u64 = chunk.iter().map(|&d| packed[usize::from(d)]).sum();
            let mut best = 0;
            let mut best_cost = u64::MAX;
            for t in 0..n_tables {
                let cost = (costs >> (COST_BITS * t)) & ((1 << COST_BITS) - 1);
                if cost < best_cost {
                    best_cost = cost;
                    best = t;
                }
            }
            *sel = best as u8;
        }
    }

    // Header: used-symbol map, table count, group count.
    write_used_map(used, w);
    w.write(n_tables as u64, 3);
    w.write(n_groups as u64, 32);
    // Selectors, move-to-front + unary coded.
    let mut mtf: Vec<u8> = (0..n_tables as u8).collect();
    for &sel in &selectors {
        let rank = mtf.iter().position(|&t| t == sel).expect("selector in table");
        for _ in 0..rank {
            w.write(1, 1);
        }
        w.write(0, 1);
        mtf.copy_within(0..rank, 1);
        mtf[0] = sel;
    }
    // Tables, delta-coded over the used symbols only.
    for lens in lengths.chunks_exact(n_used) {
        write_lengths(lens, w);
    }
    // Payload.
    let mut codes = vec![0u32; n_tables * n_used];
    for (lens, row) in lengths.chunks_exact(n_used).zip(codes.chunks_exact_mut(n_used)) {
        canonical_codes(lens, row);
    }
    for (chunk, &t) in dense.chunks(GROUP_SIZE).zip(&selectors) {
        let base = usize::from(t) * n_used;
        let (lens, row) = (&lengths[base..base + n_used], &codes[base..base + n_used]);
        for &d in chunk {
            let d = usize::from(d);
            w.write(u64::from(row[d]), u32::from(lens[d]));
        }
    }
}

/// Decodes a stream written by [`encode_symbols`], stopping after the
/// [`EOB`] symbol.
///
/// # Errors
///
/// Returns `Err` on malformed headers, selector streams, or codes.
pub fn decode_symbols(r: &mut BitReader<'_>, alphabet: usize) -> Result<Vec<u16>, String> {
    let mut out = Vec::new();
    decode_symbols_into(r, alphabet, &mut out)?;
    Ok(out)
}

/// Like [`decode_symbols`], but clears and fills a caller-provided buffer
/// so a steady-state decode loop reuses the symbol allocation across
/// blocks.
///
/// # Errors
///
/// As for [`decode_symbols`].
pub fn decode_symbols_into(
    r: &mut BitReader<'_>,
    alphabet: usize,
    out: &mut Vec<u16>,
) -> Result<(), String> {
    let dense = read_used_map(alphabet, r)?;
    let n_tables = r.read(3)? as usize;
    if !(2..=MAX_TABLES).contains(&n_tables) {
        return Err(format!("bad table count {n_tables}"));
    }
    let n_groups = r.read(32)? as usize;
    // Every selector costs at least one bit and every group codes at
    // least one symbol, so a group count beyond the remaining payload is
    // corrupt. Checking before the reservations below keeps a forged
    // count from forcing a multi-gigabyte allocation.
    if n_groups as u64 > r.remaining_bits() {
        return Err(format!("group count {n_groups} exceeds the remaining payload"));
    }
    let mut selectors = Vec::with_capacity(n_groups);
    let mut mtf: Vec<u8> = (0..n_tables as u8).collect();
    for _ in 0..n_groups {
        let mut rank = 0usize;
        while r.read(1)? == 1 {
            rank += 1;
            if rank >= n_tables {
                return Err("selector rank out of range".to_string());
            }
        }
        let sel = mtf[rank];
        mtf.copy_within(0..rank, 1);
        mtf[0] = sel;
        selectors.push(sel);
    }
    let mut decoders = Vec::with_capacity(n_tables);
    let mut lengths = vec![0u8; dense.len()];
    for _ in 0..n_tables {
        read_lengths(&mut lengths, r)?;
        decoders.push(HuffmanDecoder::from_used(&dense, &lengths)?);
    }
    // Each decoded symbol consumes at least one payload bit, so the
    // bit budget also caps the reservation for adversarial selectors.
    let cap = (n_groups * GROUP_SIZE).min(r.remaining_bits() as usize + 1);
    out.clear();
    out.reserve(cap);
    'groups: for &sel in &selectors {
        let dec = &decoders[sel as usize];
        let mut left = GROUP_SIZE;
        while left > 0 {
            // The pair fast path decodes two symbols per lookup, but both
            // must belong to this group — the next group may use a
            // different table — so it only runs with two slots left.
            if left >= 2 {
                let (a, b) = dec.decode_pair(r, EOB)?;
                out.push(a);
                if a == EOB {
                    break 'groups;
                }
                left -= 1;
                if let Some(b) = b {
                    out.push(b);
                    if b == EOB {
                        break 'groups;
                    }
                    left -= 1;
                }
            } else {
                let sym = dec.decode_symbol(r)?;
                let done = sym == EOB;
                out.push(sym);
                if done {
                    break 'groups;
                }
                left -= 1;
            }
        }
    }
    if out.last() != Some(&EOB) {
        return Err("stream ended without EOB".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::HuffmanEncoder;
    use crate::rle::ALPHABET;

    fn roundtrip(symbols: &[u16]) {
        let mut w = BitWriter::new();
        encode_symbols(symbols, ALPHABET, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_symbols(&mut r, ALPHABET).unwrap(), symbols);
    }

    fn with_eob(mut v: Vec<u16>) -> Vec<u16> {
        v.push(EOB);
        v
    }

    #[test]
    fn minimal_stream() {
        roundtrip(&[EOB]);
        roundtrip(&with_eob(vec![0]));
    }

    #[test]
    fn single_group() {
        roundtrip(&with_eob(vec![3; 30]));
    }

    #[test]
    fn exact_group_boundary() {
        roundtrip(&with_eob(vec![5; GROUP_SIZE - 1])); // EOB lands at slot 50
        roundtrip(&with_eob(vec![5; GROUP_SIZE]));
        roundtrip(&with_eob(vec![5; GROUP_SIZE * 2 - 1]));
    }

    #[test]
    fn phase_changing_stream_uses_multiple_tables() {
        // Alternating phases: zero-run digits, then wide literals.
        let mut symbols = Vec::new();
        for phase in 0..40 {
            if phase % 2 == 0 {
                symbols.extend(std::iter::repeat_n(0u16, 120));
            } else {
                symbols.extend((2..122u16).map(|v| v % 250 + 2));
            }
        }
        roundtrip(&with_eob(symbols.clone()));

        // Multi-table coding should not be (meaningfully) worse than a
        // single table on this stream, and usually better.
        let all = with_eob(symbols);
        let mut multi = BitWriter::new();
        encode_symbols(&all, ALPHABET, &mut multi);
        let mut freqs = vec![0u64; ALPHABET];
        for &s in &all {
            freqs[s as usize] += 1;
        }
        let single = HuffmanEncoder::from_frequencies(&freqs);
        let mut sw = BitWriter::new();
        single.write_table(&mut sw);
        for &s in &all {
            single.encode_symbol(s, &mut sw);
        }
        let multi_len = multi.into_bytes().len();
        let single_len = sw.into_bytes().len();
        assert!(
            multi_len < single_len + single_len / 10,
            "multi {multi_len} vs single {single_len}"
        );
    }

    #[test]
    fn pseudorandom_symbols() {
        let mut x = 88172645463325252u64;
        let symbols: Vec<u16> = (0..5_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 257) as u16
            })
            .collect();
        roundtrip(&with_eob(symbols));
    }

    #[test]
    fn forged_group_count_rejected_before_allocating() {
        // Hand-built header claiming u32::MAX selector groups with an
        // empty payload: the bit-budget check must fire before the
        // selector and symbol buffers are reserved.
        let mut w = BitWriter::new();
        w.write(1, ALPHABET.div_ceil(16) as u32); // coarse map: word 0 used
        w.write(1, 16); // fine map: symbol 0 used
        w.write(2, 3); // n_tables
        w.write(u64::from(u32::MAX), 32); // n_groups
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let err = decode_symbols(&mut r, ALPHABET).unwrap_err();
        assert!(err.contains("group count"), "{err}");
    }

    #[test]
    fn truncated_stream_is_error() {
        let mut w = BitWriter::new();
        encode_symbols(&with_eob(vec![7; 500]), ALPHABET, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..bytes.len() / 2]);
        assert!(decode_symbols(&mut r, ALPHABET).is_err());
    }
}

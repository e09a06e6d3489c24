//! Canonical, length-limited Huffman coding over an alphabet of at most
//! [`MAX_ALPHABET`] symbols.
//!
//! Code lengths come from the two-queue Huffman construction, run on
//! fixed-capacity stack arrays: one queue holds the leaves sorted by
//! `(weight, symbol)`, the other the merged nodes in the order they were
//! made. Merged weights never decrease, so the two queue heads always
//! hold the two lightest nodes, and a leaf goes first on equal weight.
//! If the deepest code exceeds the limit, every weight `w` becomes
//! `w / 2 + 1` and the tree is rebuilt (the strategy BZIP2 uses). Codes
//! are assigned canonically by `(length, symbol)`, so only the lengths
//! are stored.
//!
//! The decoder resolves codes through one lookup table per code. Its
//! window is the code's longest length, capped at 12 bits, so a code of
//! short lengths builds a small table. Each entry holds the first
//! symbol of its prefix and, when a complete second code also fits in
//! the window, that one too. Codes longer than the window take a
//! canonical slow path.

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length accepted by the encoder and decoder.
pub const MAX_CODE_LEN: u8 = 20;

/// Most symbols an encoder can code: BZIP2's 258 (256 MTF ranks shifted
/// past the two run digits, plus the end-of-block symbol).
pub const MAX_ALPHABET: usize = 258;

/// Widest decoder lookup window, in bits.
const PEEK_BITS: u32 = 12;

/// Bits used to serialize one code length.
const LEN_BITS: u32 = 5;

/// Encoder half of a canonical Huffman code.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    lengths: Vec<u8>,
    codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Builds a length-limited code from symbol frequencies. Symbols with
    /// zero frequency receive no code.
    ///
    /// # Panics
    ///
    /// Panics if every frequency is zero (there is nothing to code) or
    /// more than [`MAX_ALPHABET`] frequencies are given.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let mut lengths = vec![0u8; freqs.len()];
        code_lengths(&mut freqs.to_vec(), MAX_CODE_LEN, &mut lengths);
        let mut codes = vec![0u32; lengths.len()];
        canonical_codes(&lengths, &mut codes);
        Self { lengths, codes }
    }

    /// Serializes the code lengths (5 bits each) to the bit stream.
    pub fn write_table(&self, w: &mut BitWriter) {
        for &len in &self.lengths {
            w.write(u64::from(len), LEN_BITS);
        }
    }

    /// Emits the code for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` had zero frequency when the code was built.
    pub fn encode_symbol(&self, sym: u16, w: &mut BitWriter) {
        let len = self.lengths[sym as usize];
        assert!(len > 0, "symbol {sym} has no code");
        w.write(u64::from(self.codes[sym as usize]), u32::from(len));
    }

    /// The code length assigned to `sym` (0 if absent).
    pub fn code_len(&self, sym: u16) -> u8 {
        self.lengths[sym as usize]
    }
}

/// One entry of the lookup table: the first symbol decoded from a
/// window-wide prefix (`len == 0` when no code that short matches) and,
/// when a complete second code also fits in the same window, that
/// symbol too (`len2 == 0` otherwise).
#[derive(Debug, Clone, Copy, Default)]
struct PairEntry {
    sym: u16,
    sym2: u16,
    len: u8,
    len2: u8,
}

/// Decoder half of a canonical Huffman code.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// Up to two symbols for every `window`-bit prefix, so the hot decode
    /// loop averages well under one peek/consume per symbol on skewed
    /// (short-code) distributions.
    table: Vec<PairEntry>,
    /// Lookup window in bits: the longest code length, capped at
    /// `PEEK_BITS`.
    window: u32,
    /// Slow path, per length L (1-indexed): first canonical code value and
    /// the index of its first symbol in `sorted`.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    first_index: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols in canonical order; empty when every code fits the window.
    sorted: Vec<u16>,
    max_len: u8,
}

impl HuffmanDecoder {
    /// Reads a table serialized by [`HuffmanEncoder::write_table`].
    ///
    /// # Errors
    ///
    /// Returns `Err` if the stream ends early or the lengths do not form a
    /// prefix-free (Kraft-valid) code.
    pub fn read_table(r: &mut BitReader<'_>, alphabet: usize) -> Result<Self, String> {
        let mut lengths = vec![0u8; alphabet];
        for slot in lengths.iter_mut() {
            let len = r.read(LEN_BITS)? as u8;
            if len > MAX_CODE_LEN {
                return Err(format!("code length {len} exceeds limit"));
            }
            *slot = len;
        }
        Self::from_lengths(&lengths)
    }

    /// Builds a decoder directly from code lengths.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the lengths over- or under-subscribe the code space
    /// (except for the degenerate one-symbol code, which is accepted).
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, String> {
        let (symbols, used): (Vec<u16>, Vec<u8>) = (0..lengths.len() as u16)
            .zip(lengths.iter().copied())
            .filter(|&(_, len)| len > 0)
            .unzip();
        Self::from_used(&symbols, &used)
    }

    /// Builds a decoder for the code giving `symbols[i]` the length
    /// `lengths[i]`. `symbols` must be ascending; a zero length is not
    /// allowed. The work scales with the symbols and the longest length,
    /// not with the alphabet.
    ///
    /// # Errors
    ///
    /// As for [`Self::from_lengths`].
    pub(crate) fn from_used(symbols: &[u16], lengths: &[u8]) -> Result<Self, String> {
        debug_assert_eq!(symbols.len(), lengths.len());
        let Some(&max_len) = lengths.iter().max() else {
            return Err("no symbols in huffman table".to_string());
        };
        // Kraft check: must be exactly 1 (complete code) or a single
        // length-1 code (degenerate one-symbol block).
        let mut kraft = 0u64;
        let unit = 1u64 << MAX_CODE_LEN;
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lengths {
            debug_assert!(l > 0, "unused symbols are left out");
            if l > MAX_CODE_LEN {
                return Err("huffman lengths are not a complete prefix code".to_string());
            }
            kraft += unit >> l;
            count[l as usize] += 1;
        }
        let degenerate = lengths.len() == 1 && max_len == 1;
        if !degenerate && kraft != unit {
            return Err("huffman lengths are not a complete prefix code".to_string());
        }

        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            first_code[len] = code;
            first_index[len] = index;
            code = (code + count[len]) << 1;
            index += count[len];
        }

        // One ascending pass places each symbol canonically: within a
        // length, canonical order is symbol order. Codes that fit the
        // window fill every table slot their prefix covers.
        let window = u32::from(max_len).min(PEEK_BITS);
        let mut table = vec![PairEntry::default(); 1 << window];
        let mut sorted =
            if u32::from(max_len) > window { vec![0u16; symbols.len()] } else { Vec::new() };
        let mut next = first_index;
        for (&sym, &len) in symbols.iter().zip(lengths) {
            let l = len as usize;
            let index = next[l];
            next[l] += 1;
            if let Some(slot) = sorted.get_mut(index as usize) {
                *slot = sym;
            }
            let len32 = u32::from(len);
            if len32 <= window {
                let code = first_code[l] + (index - first_index[l]);
                let base = (code << (window - len32)) as usize;
                table[base..base + (1 << (window - len32))].fill(PairEntry {
                    sym,
                    sym2: 0,
                    len,
                    len2: 0,
                });
            }
        }

        // Second symbols: after the first code's `len` bits, the window
        // still holds `window - len` real bits; if those start a complete
        // second code, both symbols resolve from one peek. The shifted-in
        // low bits are zero padding, which cannot influence the second
        // lookup because a complete code is identified by its top `len2`
        // bits alone and `len2 <= window - len` keeps those bits real.
        let mask = (1u32 << window) - 1;
        for p in 0..table.len() {
            let len = u32::from(table[p].len);
            if len == 0 {
                continue;
            }
            let second = table[(((p as u32) << len) & mask) as usize];
            if second.len != 0 && u32::from(second.len) <= window - len {
                table[p].sym2 = second.sym;
                table[p].len2 = second.len;
            }
        }

        Ok(Self { table, window, first_code, first_index, count, sorted, max_len })
    }

    /// Decodes one symbol from the bit stream.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a truncated stream or a prefix that matches no code.
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u16, String> {
        let e = self.table[r.peek(self.window) as usize];
        if e.len > 0 {
            r.consume(u32::from(e.len))?;
            return Ok(e.sym);
        }
        // Slow path: walk lengths beyond the window canonically.
        let long_peek = r.peek(u32::from(self.max_len)) as u32;
        for len in (self.window + 1)..=u32::from(self.max_len) {
            let l = len as usize;
            if self.count[l] == 0 {
                continue;
            }
            let code = long_peek >> (u32::from(self.max_len) - len);
            let offset = code.wrapping_sub(self.first_code[l]);
            if code >= self.first_code[l] && offset < self.count[l] {
                r.consume(len)?;
                return Ok(self.sorted[(self.first_index[l] + offset) as usize]);
            }
        }
        Err("invalid huffman prefix".to_string())
    }

    /// Decodes one symbol and, when a complete second code sits in the
    /// same lookup window, a second one — halving the peek/consume
    /// traffic on the short codes that dominate post-MTF streams.
    ///
    /// The pair path is skipped when the first symbol equals `stop` (the
    /// caller's terminator): the bits after a terminator are padding, not
    /// a code, so decoding past it would over-consume. A first symbol
    /// other than `stop` always has a real successor in the stream.
    ///
    /// # Errors
    ///
    /// Returns `Err` on a truncated stream or a prefix matching no code.
    #[inline]
    pub fn decode_pair(
        &self,
        r: &mut BitReader<'_>,
        stop: u16,
    ) -> Result<(u16, Option<u16>), String> {
        let e = self.table[r.peek(self.window) as usize];
        if e.len2 != 0 && e.sym != stop {
            r.consume(u32::from(e.len) + u32::from(e.len2))?;
            return Ok((e.sym, Some(e.sym2)));
        }
        if e.len != 0 {
            r.consume(u32::from(e.len))?;
            return Ok((e.sym, None));
        }
        self.decode_symbol(r).map(|sym| (sym, None))
    }
}

/// Computes length-limited Huffman code lengths: `lengths[i]` receives
/// the code length of the symbol weighing `weights[i]`, 0 for a zero
/// weight. A single used symbol gets length 1. When the tree is deeper
/// than `limit`, every nonzero weight `w` becomes `w / 2 + 1` in place
/// and the tree is rebuilt.
///
/// # Panics
///
/// Panics if every weight is zero or there are more than
/// [`MAX_ALPHABET`] weights.
pub(crate) fn code_lengths(weights: &mut [u64], limit: u8, lengths: &mut [u8]) {
    assert!(weights.len() <= MAX_ALPHABET, "{} symbols exceed the alphabet", weights.len());
    let mut leaves = [0u16; MAX_ALPHABET];
    let mut n = 0;
    for (sym, _) in weights.iter().enumerate().filter(|(_, &w)| w > 0) {
        leaves[n] = sym as u16;
        n += 1;
    }
    assert!(n > 0, "cannot build a code with no symbols");
    lengths.fill(0);
    if n == 1 {
        lengths[usize::from(leaves[0])] = 1;
        return;
    }
    while tree_depths(weights, &mut leaves[..n], lengths) > limit {
        for w in weights.iter_mut().filter(|w| **w > 0) {
            *w = (*w >> 1) + 1;
        }
    }
}

/// Two-queue Huffman construction over the symbols in `leaves` (at
/// least two, all of nonzero weight): writes each one's depth to
/// `depths` and returns the deepest.
///
/// Every merge takes the two nodes of least `(weight, index)`, where
/// leaves are indexed by symbol and merged nodes after every symbol in
/// the order they are made — the order a binary heap keyed that way
/// pops them.
fn tree_depths(weights: &[u64], leaves: &mut [u16], depths: &mut [u8]) -> u8 {
    let n = leaves.len();
    leaves.sort_unstable_by_key(|&sym| (weights[usize::from(sym)], sym));

    // Merged node j weighs `merged[j]`; `parent[x]` is the merged node
    // above node x, where symbol s is node s and merged node j is
    // MAX_ALPHABET + j.
    let mut merged = [0u64; MAX_ALPHABET];
    let mut parent = [0u16; 2 * MAX_ALPHABET];
    let (mut next_leaf, mut next_merged) = (0, 0);
    for j in 0..n - 1 {
        for _ in 0..2 {
            // On equal weight the leaf goes first: its index is below
            // every merged node's.
            let take_leaf = next_leaf < n
                && (next_merged == j
                    || weights[usize::from(leaves[next_leaf])] <= merged[next_merged]);
            let (node, weight) = if take_leaf {
                let sym = usize::from(leaves[next_leaf]);
                next_leaf += 1;
                (sym, weights[sym])
            } else {
                next_merged += 1;
                (MAX_ALPHABET + next_merged - 1, merged[next_merged - 1])
            };
            merged[j] += weight;
            parent[node] = j as u16;
        }
    }

    // The root, merged node n - 2, sits at depth 0. Every merged node is
    // made after the nodes below it, so a walk from the last made node
    // back to the first meets each parent before its children.
    let mut depth = [0u8; MAX_ALPHABET];
    for j in (0..n - 2).rev() {
        depth[j] = depth[usize::from(parent[MAX_ALPHABET + j])] + 1;
    }
    let mut deepest = 0;
    for &sym in leaves.iter() {
        let d = depth[usize::from(parent[usize::from(sym)])] + 1;
        depths[usize::from(sym)] = d;
        deepest = deepest.max(d);
    }
    deepest
}

/// Assigns canonical code values: `codes[i]` receives the code of the
/// symbol with length `lengths[i]` (zero lengths get no code).
pub(crate) fn canonical_codes(lengths: &[u8], codes: &mut [u32]) {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lengths {
        count[l as usize] += 1;
    }
    let mut next = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        next[len] = code;
        code = (code + count[len]) << 1;
    }
    // Within one length, canonical order is symbol order, which a single
    // ascending scan produces naturally.
    for (slot, &l) in codes.iter_mut().zip(lengths) {
        if l > 0 {
            *slot = next[l as usize];
            next[l as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn roundtrip_symbols(freqs: &[u64], stream: &[u16]) {
        let enc = HuffmanEncoder::from_frequencies(freqs);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        for &s in stream {
            enc.encode_symbol(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r, freqs.len()).unwrap();
        for &expect in stream {
            assert_eq!(dec.decode_symbol(&mut r).unwrap(), expect);
        }
    }

    fn canonical_code_vec(lengths: &[u8]) -> Vec<u32> {
        let mut codes = vec![0u32; lengths.len()];
        canonical_codes(lengths, &mut codes);
        codes
    }

    #[test]
    fn two_symbols() {
        roundtrip_symbols(&[5, 3], &[0, 1, 0, 0, 1]);
    }

    #[test]
    fn single_symbol_degenerate_code() {
        roundtrip_symbols(&[0, 0, 9, 0], &[2, 2, 2]);
    }

    #[test]
    fn skewed_distribution() {
        let mut freqs = vec![0u64; 258];
        freqs[0] = 1_000_000;
        freqs[1] = 1000;
        freqs[42] = 10;
        freqs[257] = 1;
        let stream: Vec<u16> = vec![0, 0, 0, 1, 42, 0, 257, 1, 0];
        roundtrip_symbols(&freqs, &stream);
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        assert!(enc.code_len(0) < enc.code_len(257));
    }

    #[test]
    fn length_limit_enforced() {
        // Fibonacci-like frequencies force deep trees without a limit.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        for s in 0..40u16 {
            assert!(enc.code_len(s) <= MAX_CODE_LEN);
            assert!(enc.code_len(s) > 0);
        }
        let stream: Vec<u16> = (0..40).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn uniform_alphabet() {
        let freqs = vec![7u64; 258];
        let stream: Vec<u16> = (0..258).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn kraft_violation_rejected() {
        // Two symbols both claiming the single length-1 code plus another.
        assert!(HuffmanDecoder::from_lengths(&[1, 1, 1]).is_err());
        // Incomplete code (only half the space used).
        assert!(HuffmanDecoder::from_lengths(&[2, 2, 0]).is_err());
    }

    #[test]
    fn empty_table_rejected() {
        assert!(HuffmanDecoder::from_lengths(&[0, 0]).is_err());
    }

    /// The two-symbol fast path must reproduce exactly the symbol
    /// sequence of one-at-a-time decoding, terminator handling included,
    /// on a skewed stream that exercises pair hits, pair misses (long
    /// codes), and the stop guard.
    #[test]
    fn decode_pair_matches_decode_symbol() {
        let stop = 257u16;
        let mut freqs = vec![0u64; 258];
        freqs[0] = 100_000;
        freqs[1] = 40_000;
        freqs[2] = 10_000;
        for (s, f) in freqs.iter_mut().enumerate().skip(3) {
            *f = 1 + (s as u64 % 7);
        }
        let mut stream: Vec<u16> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            stream.push(if x >> 62 == 0 {
                (x >> 13) as u16 % 257
            } else {
                (x >> 13) as u16 % 3
            });
        }
        stream.push(stop);
        let enc = HuffmanEncoder::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        enc.write_table(&mut w);
        for &s in &stream {
            enc.encode_symbol(s, &mut w);
        }
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        let dec = HuffmanDecoder::read_table(&mut r, freqs.len()).unwrap();
        let mut paired = Vec::new();
        loop {
            let (a, b) = dec.decode_pair(&mut r, stop).unwrap();
            paired.push(a);
            if a == stop {
                break;
            }
            if let Some(b) = b {
                paired.push(b);
                if b == stop {
                    break;
                }
            }
        }
        assert_eq!(paired, stream);
    }

    #[test]
    fn long_codes_use_slow_path() {
        // Construct lengths with codes longer than PEEK_BITS: a complete
        // binary comb of depth 15.
        let mut lengths = vec![0u8; 16];
        for (i, l) in lengths.iter_mut().enumerate().take(15) {
            *l = (i + 1) as u8;
        }
        lengths[15] = 15;
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        // Encode symbol 14 (length 15, beyond the 12-bit LUT).
        let codes = canonical_code_vec(&lengths);
        let mut w = BitWriter::new();
        w.write(u64::from(codes[14]), 15);
        w.write(u64::from(codes[15]), 15);
        w.write(u64::from(codes[0]), 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), 14);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), 15);
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), 0);
    }

    #[test]
    fn window_follows_the_longest_code() {
        let dec = HuffmanDecoder::from_lengths(&[2, 2, 3, 3, 3, 4, 5, 6, 6]).unwrap();
        assert_eq!((dec.window, dec.table.len()), (6, 64));
        assert!(dec.sorted.is_empty(), "every code fits the window");
        let dec = HuffmanDecoder::from_lengths(&[1, 0, 0, 0]).unwrap();
        assert_eq!((dec.window, dec.table.len()), (1, 2));
        let mut lengths: Vec<u8> = (1..=15).collect();
        lengths.push(15);
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        assert_eq!((dec.window, dec.table.len()), (PEEK_BITS, 1 << PEEK_BITS));
        assert_eq!(dec.sorted.len(), 16);
    }

    /// The binary-heap construction the two-queue build replaced: pops
    /// the least `(weight, index)`, leaves indexed in symbol order and
    /// merged nodes after them. Kept as the reference the new build must
    /// match length for length.
    fn heap_lengths(freqs: &[u64], limit: u8) -> Vec<u8> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let nonzero = freqs.iter().filter(|&&f| f > 0).count();
        let mut lengths = vec![0u8; freqs.len()];
        if nonzero == 1 {
            lengths[freqs.iter().position(|&f| f > 0).unwrap()] = 1;
            return lengths;
        }
        let mut weights = freqs.to_vec();
        loop {
            // Node: (left, right, symbol); symbol < 0 marks a merged node.
            let mut nodes: Vec<(usize, usize, i32)> = Vec::new();
            let mut heap = BinaryHeap::new();
            for (sym, &f) in weights.iter().enumerate() {
                if f > 0 {
                    nodes.push((0, 0, sym as i32));
                    heap.push(Reverse((f, nodes.len() - 1)));
                }
            }
            while heap.len() > 1 {
                let Reverse((wa, a)) = heap.pop().unwrap();
                let Reverse((wb, b)) = heap.pop().unwrap();
                nodes.push((a, b, -1));
                heap.push(Reverse((wa + wb, nodes.len() - 1)));
            }
            let root = heap.pop().unwrap().0 .1;
            let mut depths = vec![0u8; freqs.len()];
            let mut stack = vec![(root, 0u8)];
            while let Some((idx, depth)) = stack.pop() {
                let (left, right, sym) = nodes[idx];
                if sym >= 0 {
                    depths[sym as usize] = depth.max(1);
                } else {
                    stack.push((left, depth + 1));
                    stack.push((right, depth + 1));
                }
            }
            if depths.iter().all(|&d| d <= limit) {
                lengths.copy_from_slice(&depths);
                return lengths;
            }
            for w in weights.iter_mut().filter(|w| **w > 0) {
                *w = (*w >> 1) + 1;
            }
        }
    }

    fn assert_matches_heap(freqs: &[u64]) {
        let enc = HuffmanEncoder::from_frequencies(freqs);
        assert_eq!(enc.lengths, heap_lengths(freqs, MAX_CODE_LEN), "freqs {freqs:?}");
    }

    /// Frequencies over the full alphabet with `used` nonzero entries at
    /// random symbols, drawn from `1..=top` so small tops tie often.
    fn random_freqs(rng: &mut SmallRng, used: usize, top: u64) -> Vec<u64> {
        let mut freqs = vec![0u64; MAX_ALPHABET];
        let mut placed = 0;
        while placed < used {
            let slot = &mut freqs[rng.gen_range(0..MAX_ALPHABET)];
            if *slot == 0 {
                *slot = rng.gen_range(1..=top);
                placed += 1;
            }
        }
        freqs
    }

    #[test]
    fn two_queue_lengths_match_heap_on_tie_heavy_vectors() {
        let mut rng = SmallRng::seed_from_u64(0x7a11_0b5e);
        for trial in 0..4_000 {
            let used = rng.gen_range(1..=MAX_ALPHABET);
            let top = [1, 2, 3, 5, 50, 100_000][trial % 6];
            assert_matches_heap(&random_freqs(&mut rng, used, top));
        }
        // Every used-symbol count, mostly equal weights.
        for used in 1..=MAX_ALPHABET {
            assert_matches_heap(&random_freqs(&mut rng, used, 2));
        }
    }

    #[test]
    fn two_queue_lengths_match_heap_at_the_length_limit() {
        let mut rng = SmallRng::seed_from_u64(0xf1b0);
        for n in 22..=60usize {
            // Fibonacci weights at random symbols, alone or among other
            // symbols; alone they need rescaling rounds before the tree
            // fits the limit.
            for others in [0, rng.gen_range(1..=MAX_ALPHABET - n)] {
                let mut freqs = random_freqs(&mut rng, others, 4);
                let (mut a, mut b) = (1u64, 1u64);
                let mut placed = 0;
                while placed < n {
                    let slot = &mut freqs[rng.gen_range(0..MAX_ALPHABET)];
                    if *slot == 0 {
                        *slot = a;
                        (a, b) = (b, a + b);
                        placed += 1;
                    }
                }
                if others == 0 {
                    let unlimited = heap_lengths(&freqs, u8::MAX);
                    assert!(unlimited.into_iter().max() > Some(MAX_CODE_LEN));
                }
                assert_matches_heap(&freqs);
            }
        }
    }

    #[test]
    fn two_queue_lengths_match_heap_on_one_symbol() {
        for sym in [0, 1, 100, MAX_ALPHABET - 1] {
            let mut freqs = vec![0u64; MAX_ALPHABET];
            freqs[sym] = 12_345;
            assert_matches_heap(&freqs);
            assert_eq!(HuffmanEncoder::from_frequencies(&freqs).code_len(sym as u16), 1);
        }
    }

    /// Canonical codes numbered from scratch for the reference decoder:
    /// `(length, code)` to symbol.
    fn bit_serial_codes(lengths: &[u8]) -> HashMap<(u8, u32), u16> {
        let mut order: Vec<u16> =
            (0..lengths.len() as u16).filter(|&s| lengths[s as usize] > 0).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        let (mut code, mut len) = (0u32, lengths[order[0] as usize]);
        let mut codes = HashMap::new();
        for &s in &order {
            code <<= lengths[s as usize] - len;
            len = lengths[s as usize];
            codes.insert((len, code), s);
            code += 1;
        }
        codes
    }

    /// Reference decoder: reads one bit at a time and, after each bit,
    /// looks the code read so far up among the codes of that length.
    fn bit_serial_decode(
        codes: &HashMap<(u8, u32), u16>,
        r: &mut BitReader<'_>,
    ) -> Result<u16, String> {
        let mut read = 0u32;
        for len in 1..=MAX_CODE_LEN {
            read = (read << 1) | r.read(1)? as u32;
            if let Some(&s) = codes.get(&(len, read)) {
                return Ok(s);
            }
        }
        Err("invalid huffman prefix".to_string())
    }

    /// A random complete code whose longest length is exactly `max_len`:
    /// a chain of splits reaches that depth, then random leaves above it
    /// split until the target size; the leaves go to random symbols.
    fn random_complete_code(rng: &mut SmallRng, max_len: u8) -> Vec<u8> {
        let mut depths = vec![1u8, 1];
        while depths[0] < max_len {
            let d = depths[0] + 1;
            depths[0] = d;
            depths.push(d);
        }
        let target = rng.gen_range(depths.len()..=MAX_ALPHABET);
        while depths.len() < target {
            let shallow: Vec<usize> =
                (0..depths.len()).filter(|&i| depths[i] < max_len).collect();
            if shallow.is_empty() {
                break;
            }
            let i = shallow[rng.gen_range(0..shallow.len())];
            depths[i] += 1;
            depths.push(depths[i]);
        }
        let mut lengths = vec![0u8; MAX_ALPHABET];
        for d in depths {
            loop {
                let slot = &mut lengths[rng.gen_range(0..MAX_ALPHABET)];
                if *slot == 0 {
                    *slot = d;
                    break;
                }
            }
        }
        lengths
    }

    /// Encodes `stream`, the stop symbol, then `tail` (bit count, bits).
    fn encode_with_tail(
        lengths: &[u8],
        stream: &[u16],
        stop: u16,
        tail: (u32, u64),
    ) -> Vec<u8> {
        let codes = canonical_code_vec(lengths);
        let mut w = BitWriter::new();
        for &s in stream.iter().chain([&stop]) {
            w.write(u64::from(codes[s as usize]), u32::from(lengths[s as usize]));
        }
        w.write(tail.1, tail.0);
        w.into_bytes()
    }

    #[test]
    fn table_decoders_match_a_bit_serial_decoder() {
        let mut rng = SmallRng::seed_from_u64(0xdec0de);
        for trial in 0..400 {
            let max_len = (trial % usize::from(MAX_CODE_LEN)) as u8 + 1;
            let lengths = random_complete_code(&mut rng, max_len);
            let used: Vec<u16> =
                (0..lengths.len() as u16).filter(|&s| lengths[s as usize] > 0).collect();
            let stop = used[rng.gen_range(0..used.len())];
            let others: Vec<u16> = used.iter().copied().filter(|&s| s != stop).collect();
            // Mostly short codes, as after MTF, with the long ones mixed in.
            let mut by_len = others.clone();
            by_len.sort_by_key(|&s| lengths[s as usize]);
            let stream: Vec<u16> = (0..rng.gen_range(0..600))
                .map(|_| {
                    let pick = if rng.gen_range(0..4) == 0 { by_len.len() } else { 3 };
                    by_len[rng.gen_range(0..pick.min(by_len.len()))]
                })
                .collect();
            let tail_bits = rng.gen_range(0..=24u32);
            let tail = (tail_bits, rng.gen_range(0..1u64 << tail_bits));
            let bytes = encode_with_tail(&lengths, &stream, stop, tail);
            let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
            let expect: Vec<u16> = stream.iter().copied().chain([stop]).collect();

            let codes = bit_serial_codes(&lengths);
            let mut r = BitReader::new(&bytes);
            let serial: Vec<u16> =
                expect.iter().map(|_| bit_serial_decode(&codes, &mut r).unwrap()).collect();
            assert_eq!(serial, expect, "reference decoder, max_len {max_len}");

            let mut r = BitReader::new(&bytes);
            let single: Vec<u16> =
                expect.iter().map(|_| dec.decode_symbol(&mut r).unwrap()).collect();
            assert_eq!(single, expect, "decode_symbol, max_len {max_len}");
            assert_eq!(r.read(tail.0).unwrap(), tail.1, "decode_symbol overran the stop");

            // The stop lands anywhere in the lookup window, followed by
            // bits that are not part of the stream.
            let mut r = BitReader::new(&bytes);
            let mut paired = Vec::new();
            while paired.last() != Some(&stop) {
                let (a, b) = dec.decode_pair(&mut r, stop).unwrap();
                paired.push(a);
                if a != stop {
                    paired.extend(b);
                }
            }
            assert_eq!(paired, expect, "decode_pair, max_len {max_len}");
            assert_eq!(r.read(tail.0).unwrap(), tail.1, "decode_pair overran the stop");
        }
    }

    #[test]
    fn degenerate_code_matches_the_bit_serial_decoder() {
        let mut lengths = vec![0u8; MAX_ALPHABET];
        lengths[7] = 1;
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        let codes = bit_serial_codes(&lengths);
        let bytes = [0b0000_0010];
        let mut serial = BitReader::new(&bytes);
        let mut single = BitReader::new(&bytes);
        for _ in 0..6 {
            assert_eq!(bit_serial_decode(&codes, &mut serial), Ok(7));
            assert_eq!(dec.decode_symbol(&mut single), Ok(7));
        }
        assert_eq!(dec.decode_symbol(&mut single), Err("invalid huffman prefix".to_string()));
        let mut paired = BitReader::new(&bytes);
        assert_eq!(dec.decode_pair(&mut paired, 7), Ok((7, None)));
    }
}

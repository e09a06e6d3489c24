//! Property-based tests for the blockzip pipeline and its stages.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// compress ∘ decompress is the identity on arbitrary bytes.
    #[test]
    fn compress_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let packed = blockzip::compress(&data).unwrap();
        prop_assert_eq!(blockzip::decompress(&packed).unwrap(), data);
    }

    /// Roundtrip with small blocks exercises the multi-block path.
    #[test]
    fn multiblock_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4_000)) {
        let packed = blockzip::compress_with(&data, blockzip::Level::FAST).unwrap();
        prop_assert_eq!(blockzip::decompress(&packed).unwrap(), data);
    }

    /// Low-entropy inputs (tiny alphabet) exercise deep SA-IS recursion.
    #[test]
    fn low_entropy_roundtrip(data in proptest::collection::vec(0u8..3, 0..30_000)) {
        let packed = blockzip::compress(&data).unwrap();
        prop_assert_eq!(blockzip::decompress(&packed).unwrap(), data);
    }

    /// The suffix array always matches a naive sort.
    #[test]
    fn sais_matches_naive(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let sa = blockzip::sais::suffix_array(&data);
        let mut s: Vec<u32> = data.iter().map(|&b| u32::from(b) + 1).collect();
        s.push(0);
        let mut idx: Vec<u32> = (0..s.len() as u32).collect();
        idx.sort_by(|&a, &b| s[a as usize..].cmp(&s[b as usize..]));
        prop_assert_eq!(sa, idx);
    }

    /// BWT is invertible.
    #[test]
    fn bwt_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5_000)) {
        let t = blockzip::bwt::forward(&data);
        prop_assert_eq!(blockzip::bwt::inverse(&t).unwrap(), data);
    }

    /// MTF is invertible.
    #[test]
    fn mtf_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5_000)) {
        let enc = blockzip::mtf::encode(&data);
        prop_assert_eq!(blockzip::mtf::decode(&enc), data);
    }

    /// RLE2 is invertible on arbitrary rank streams.
    #[test]
    fn rle_roundtrip(ranks in proptest::collection::vec(any::<u8>(), 0..5_000)) {
        let enc = blockzip::rle::encode(&ranks);
        prop_assert_eq!(blockzip::rle::decode(&enc).unwrap(), ranks);
    }

    /// Truncating a container never panics — it errors.
    #[test]
    fn truncation_is_graceful(data in proptest::collection::vec(any::<u8>(), 1..2_000),
                              frac in 0.0f64..1.0) {
        let packed = blockzip::compress(&data).unwrap();
        let cut = ((packed.len() - 1) as f64 * frac) as usize;
        let _ = blockzip::decompress(&packed[..cut]); // must not panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The range-coder pipeline is the identity on arbitrary bytes.
    #[test]
    fn range_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let mut scratch = blockzip::Scratch::default();
        let packed =
            blockzip::range::compress_with_scratch(&data, blockzip::Level::FAST, &mut scratch)
                .unwrap();
        let unpacked =
            blockzip::range::decompress_with_scratch(&packed, usize::MAX, &mut scratch).unwrap();
        prop_assert_eq!(unpacked, data);
    }

    /// Truncating a range-coder container never panics — it errors.
    #[test]
    fn range_truncation_is_graceful(data in proptest::collection::vec(any::<u8>(), 1..2_000),
                                    frac in 0.0f64..1.0) {
        let mut scratch = blockzip::Scratch::default();
        let packed =
            blockzip::range::compress_with_scratch(&data, blockzip::Level::FAST, &mut scratch)
                .unwrap();
        let cut = ((packed.len() - 1) as f64 * frac) as usize;
        let _ = blockzip::range::decompress_with_scratch(&packed[..cut], usize::MAX, &mut scratch);
    }
}

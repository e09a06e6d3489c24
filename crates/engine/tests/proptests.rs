//! Property-based tests: compress ∘ decompress is the identity for
//! arbitrary traces under arbitrary valid specifications and options.

use proptest::prelude::*;
use tcgen_engine::streams::{field_offsets, read_value, write_value};
use tcgen_engine::{codec, Engine, EngineOptions};
use tcgen_predictors::{SpecBanks, UpdatePolicy};
use tcgen_spec::TraceSpec;

/// Strategy producing a small but varied valid spec source.
fn spec_source() -> impl Strategy<Value = String> {
    let predictor = prop_oneof![
        (1u32..=4).prop_map(|n| format!("LV[{n}]")),
        (1u32..=3, 1u32..=2).prop_map(|(x, n)| format!("FCM{x}[{n}]")),
        (1u32..=3, 1u32..=2).prop_map(|(x, n)| format!("DFCM{x}[{n}]")),
        (1u32..=3).prop_map(|n| format!("ST[{n}]")),
    ];
    let field_preds = proptest::collection::vec(predictor, 1..4);
    let widths = prop_oneof![Just(8u32), Just(16), Just(32), Just(64)];
    let l2s = prop_oneof![Just(16u64), Just(64), Just(256)];
    (
        proptest::collection::vec((widths, field_preds.clone(), l2s.clone()), 0..3),
        field_preds,
        l2s,
        proptest::bool::ANY,
    )
        .prop_map(|(extra_fields, pc_preds, pc_l2, with_header)| {
            let mut src = String::from("TCgen Trace Specification;\n");
            if with_header {
                src.push_str("32-Bit Header;\n");
            }
            // Field 1 is always the PC field (L1 = 1).
            src.push_str(&format!(
                "32-Bit Field 1 = {{L1 = 1, L2 = {pc_l2}: {}}};\n",
                pc_preds.join(", ")
            ));
            for (i, (bits, preds, l2)) in extra_fields.iter().enumerate() {
                src.push_str(&format!(
                    "{bits}-Bit Field {} = {{L1 = 16, L2 = {l2}: {}}};\n",
                    i + 2,
                    preds.join(", ")
                ));
            }
            src.push_str("PC = Field 1;\n");
            src
        })
}

fn options_strategy() -> impl Strategy<Value = EngineOptions> {
    (
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        1usize..400,
    )
        .prop_map(|(smart, fast, shared, adaptive, minimize, block)| {
            let mut o = EngineOptions::tcgen();
            o.predictor.policy = if smart { UpdatePolicy::Smart } else { UpdatePolicy::Always };
            o.predictor.fast_hash = fast;
            o.predictor.shared_tables = shared;
            o.predictor.adaptive_shift = adaptive;
            o.minimize_types = minimize;
            o.block_records = block;
            o.level = blockzip::Level::FAST;
            o
        })
}

/// A deliberately naive record-major modeling loop, written directly
/// against the single-value `FieldBank` API: one `find_code`/`update`
/// pair per field per record, streams appended in declaration order.
/// This is the straight-line semantics the columnar batch path must
/// reproduce exactly.
fn reference_streams(spec: &TraceSpec, options: &EngineOptions, body: &[u8]) -> Vec<Vec<u8>> {
    let mut banks = SpecBanks::new(spec, options.predictor);
    let offsets = field_offsets(spec);
    let record_len = spec.record_bytes() as usize;
    let pc_index = spec.pc_index();
    let pc_bytes = spec.fields[pc_index].bytes() as usize;
    let mut streams: Vec<Vec<u8>> = vec![Vec::new(); 2 * spec.fields.len()];
    for rec in body.chunks_exact(record_len) {
        let pc = read_value(&rec[offsets[pc_index]..], pc_bytes);
        for (fi, field) in spec.fields.iter().enumerate() {
            let bytes = field.bytes() as usize;
            let width = if options.minimize_types { bytes } else { 8 };
            let value = read_value(&rec[offsets[fi]..], bytes);
            let bank = banks.bank_mut(fi);
            let code = bank.find_code(pc, value);
            streams[2 * fi].push(code);
            if u32::from(code) == bank.n_predictions() {
                write_value(&mut streams[2 * fi + 1], value & bank.width_mask(), width);
            }
            bank.update(pc, value);
        }
    }
    streams
}

/// One record-major replay step for one field: reconstruct the value —
/// a prediction slot for hit codes, the next miss-stream entry for the
/// miss code — then update, mirroring `reference_streams` exactly.
fn reference_replay_step(
    banks: &mut SpecBanks,
    fi: usize,
    pc: u64,
    width: usize,
    code: u8,
    miss_bytes: &[u8],
    miss_pos: &mut usize,
) -> u64 {
    let bank = banks.bank_mut(fi);
    let value = if u32::from(code) == bank.n_predictions() {
        let v = read_value(&miss_bytes[*miss_pos..], width) & bank.width_mask();
        *miss_pos += width;
        v
    } else {
        bank.value_for_code(pc, code).expect("hit code resolves to a value")
    };
    bank.update(pc, value);
    value
}

/// A deliberately naive record-major replay loop, the inverse of
/// [`reference_streams`]: per record, decode the PC field first and every
/// other field against it, one `value_for_code`/`update` pair each.
/// Returns the decoded value columns in field order.
fn reference_replay_columns(
    spec: &TraceSpec,
    options: &EngineOptions,
    streams: &[Vec<u8>],
) -> Vec<Vec<u64>> {
    let mut banks = SpecBanks::new(spec, options.predictor);
    let pc_index = spec.pc_index();
    let n_fields = spec.fields.len();
    let n_records = streams[2 * pc_index].len();
    let widths: Vec<usize> = spec
        .fields
        .iter()
        .map(|f| if options.minimize_types { f.bytes() as usize } else { 8 })
        .collect();
    let mut miss_pos = vec![0usize; n_fields];
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); n_fields];
    for rec in 0..n_records {
        let pc = reference_replay_step(
            &mut banks,
            pc_index,
            0,
            widths[pc_index],
            streams[2 * pc_index][rec],
            &streams[2 * pc_index + 1],
            &mut miss_pos[pc_index],
        );
        cols[pc_index].push(pc);
        for fi in (0..n_fields).filter(|&f| f != pc_index) {
            let value = reference_replay_step(
                &mut banks,
                fi,
                pc,
                widths[fi],
                streams[2 * fi][rec],
                &streams[2 * fi + 1],
                &mut miss_pos[fi],
            );
            cols[fi].push(value);
        }
    }
    cols
}

/// The codes and misses one bank emits for a probe column.
type Probe = (Vec<u8>, Vec<u64>);

/// Drives `replay_column` per field the way the engine's columnar stage
/// does — PC column first, then every other field against it — with the
/// pipelined replay schedule forced on or off. Returns the decoded
/// columns and each bank's final state, probed by modeling the decoded
/// columns once more: state is only ever used to predict, so banks that
/// emit the same codes and misses for that column hold the same state.
fn columnar_replay(
    spec: &TraceSpec,
    options: &EngineOptions,
    streams: &[Vec<u8>],
    plan: bool,
) -> (Vec<Vec<u64>>, Vec<Probe>) {
    let mut banks = SpecBanks::new(spec, options.predictor);
    let pc_index = spec.pc_index();
    let n_fields = spec.fields.len();
    let misses: Vec<Vec<u64>> = spec
        .fields
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let width = if options.minimize_types { f.bytes() as usize } else { 8 };
            streams[2 * fi + 1].chunks_exact(width).map(|c| read_value(c, width)).collect()
        })
        .collect();
    let mut pcs = Vec::new();
    banks.bank_mut(pc_index).force_plan(plan);
    banks
        .bank_mut(pc_index)
        .replay_column(None, &streams[2 * pc_index], &misses[pc_index], &mut pcs)
        .expect("pc column replays");
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); n_fields];
    for fi in (0..n_fields).filter(|&f| f != pc_index) {
        let bank = banks.bank_mut(fi);
        bank.force_plan(plan);
        bank.replay_column(Some(&pcs), &streams[2 * fi], &misses[fi], &mut cols[fi])
            .expect("field column replays");
    }
    cols[pc_index] = pcs;
    let probes = (0..n_fields)
        .map(|fi| {
            let bank = banks.bank_mut(fi);
            bank.force_plan(false);
            let (mut codes, mut misses) = (Vec::new(), Vec::new());
            bank.model_column(&cols[pc_index], &cols[fi], &mut codes, &mut misses);
            (codes, misses)
        })
        .collect();
    (cols, probes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any byte payload that is a whole number of records roundtrips,
    /// for any spec shape and any option combination.
    #[test]
    fn roundtrip_arbitrary_specs_and_traces(
        src in spec_source(),
        options in options_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..6_000),
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let header = spec.header_bytes() as usize;
        let record = spec.record_bytes() as usize;
        let usable = header + (payload.len().saturating_sub(header) / record) * record;
        let raw = &payload[..usable.min(payload.len())];
        if raw.len() < header {
            return Ok(());
        }
        let engine = Engine::new(spec, options);
        let packed = engine.compress(raw).unwrap();
        prop_assert_eq!(engine.decompress(&packed).unwrap(), raw);
    }

    /// Predictable traces always compress, whatever the options — given a
    /// realistic block size (tiny blocks legitimately drown in framing).
    #[test]
    fn predictable_traces_shrink(mut options in options_strategy()) {
        options.block_records = options.block_records.max(4_096);
        let spec = tcgen_spec::parse(tcgen_spec::presets::TCGEN_A).unwrap();
        let mut raw = vec![0u8; 4];
        for i in 0..8_000u64 {
            raw.extend_from_slice(&(0x40_0000u32 + (i as u32 % 3) * 4).to_le_bytes());
            raw.extend_from_slice(&(0x10_0000 + i * 16).to_le_bytes());
        }
        let engine = Engine::new(spec, options);
        let packed = engine.compress(&raw).unwrap();
        prop_assert!(packed.len() * 4 < raw.len(),
                     "only {} -> {}", raw.len(), packed.len());
    }

    /// The columnar batch path — serial and fanned out — produces
    /// exactly the streams of the naive record-major reference loop,
    /// and replaying those streams recovers the record bytes.
    #[test]
    fn columnar_modeling_matches_record_major_reference(
        src in spec_source(),
        options in options_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..4_000),
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let header = spec.header_bytes() as usize;
        let record = spec.record_bytes() as usize;
        let usable = header + (payload.len().saturating_sub(header) / record) * record;
        let raw = &payload[..usable.min(payload.len())];
        if raw.len() < header {
            return Ok(());
        }
        let body = &raw[header..];
        let reference = reference_streams(&spec, &options, body);
        let streams = codec::raw_streams(&spec, &options, raw).unwrap();
        prop_assert_eq!(&streams, &reference, "streams diverge");
        let replayed = codec::replay_streams(&spec, &options, streams).unwrap();
        prop_assert_eq!(&replayed[..], body, "replay diverges");
    }

    /// The pipelined (planned) replay schedule and the straight one-pass
    /// loop both reproduce the record-major reference replay exactly —
    /// decoded columns and final predictor state — for every predictor
    /// kind, element width, and option combination the grammar can
    /// express. The mirror of the modeling property above, for decode.
    #[test]
    fn replay_column_matches_record_major_reference(
        src in spec_source(),
        options in options_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..3_000),
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let header = spec.header_bytes() as usize;
        let record = spec.record_bytes() as usize;
        let usable = header + (payload.len().saturating_sub(header) / record) * record;
        let raw = &payload[..usable.min(payload.len())];
        if raw.len() < header {
            return Ok(());
        }
        let streams = reference_streams(&spec, &options, &raw[header..]);
        let reference = reference_replay_columns(&spec, &options, &streams);
        let mut baseline = None;
        for plan in [false, true] {
            let (cols, probes) = columnar_replay(&spec, &options, &streams, plan);
            prop_assert_eq!(&cols, &reference, "columns diverge with plan={}", plan);
            match &baseline {
                None => baseline = Some(probes),
                Some(p) => prop_assert_eq!(&probes, p,
                                           "predictor state diverges with plan={}", plan),
            }
        }
    }

    /// Truncating a container errors without panicking.
    #[test]
    fn truncation_never_panics(cut_frac in 0.0f64..1.0) {
        let spec = tcgen_spec::parse(tcgen_spec::presets::TCGEN_A).unwrap();
        let engine = Engine::new(spec, EngineOptions::tcgen());
        let mut raw = vec![0u8; 4];
        for i in 0..200u64 {
            raw.extend_from_slice(&0x40_0000u32.to_le_bytes());
            raw.extend_from_slice(&i.to_le_bytes());
        }
        let packed = engine.compress(&raw).unwrap();
        let cut = ((packed.len() - 1) as f64 * cut_frac) as usize;
        let _ = engine.decompress(&packed[..cut]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spans restart from fresh predictor state identically on both
    /// sides for every element width and predictor kind the spec grammar
    /// can express: a container with spans roundtrips at one and at four
    /// threads, and seeking into it via `extract_range` — which replays
    /// from the start of the covering span — yields exactly the records
    /// a full decode yields.
    #[test]
    fn checkpointed_containers_roundtrip_and_seek(
        src in spec_source(),
        mut options in options_strategy(),
        interval in 1usize..4,
        payload in proptest::collection::vec(any::<u8>(), 0..4_000),
        frac in 0.0f64..1.0,
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let header = spec.header_bytes() as usize;
        let record = spec.record_bytes() as usize;
        let usable = header + (payload.len().saturating_sub(header) / record) * record;
        let raw = &payload[..usable.min(payload.len())];
        if raw.len() < header {
            return Ok(());
        }
        options.checkpoint_blocks = interval;
        let engine = Engine::new(spec.clone(), options);
        let packed = engine.compress(raw).unwrap();
        prop_assert_eq!(engine.decompress(&packed).unwrap(), raw);
        let parallel = Engine::new(spec.clone(), EngineOptions { threads: 4, ..options });
        prop_assert_eq!(parallel.decompress(&packed).unwrap(), raw);
        let total = ((raw.len() - header) / record) as u64;
        let start = ((total as f64) * frac) as u64;
        let mut cursor = std::io::Cursor::new(&packed[..]);
        let got = tcgen_engine::extract_range(&spec, &options, &mut cursor, start..total, None)
            .unwrap();
        prop_assert_eq!(&got[..], &raw[header + start as usize * record..]);
    }

    /// Pruning at any threshold yields a valid spec whose engine still
    /// roundtrips the trace that produced the usage report.
    #[test]
    fn pruned_specs_always_validate_and_roundtrip(
        src in spec_source(),
        threshold in 0.0f64..1.0,
        payload in proptest::collection::vec(any::<u8>(), 64..3_000),
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let header = spec.header_bytes() as usize;
        let record = spec.record_bytes() as usize;
        let usable = header + (payload.len().saturating_sub(header) / record) * record;
        let raw = &payload[..usable.min(payload.len())];
        if raw.len() < header {
            return Ok(());
        }
        let engine = Engine::new(spec.clone(), EngineOptions::tcgen());
        let (_, usage) = engine.compress_with_usage(raw).unwrap();
        let pruned = usage.pruned_spec(&spec, threshold);
        tcgen_spec::validate(&pruned).expect("pruned specs validate");
        prop_assert!(pruned.prediction_count() <= spec.prediction_count());
        let pruned_engine = Engine::new(pruned, EngineOptions::tcgen());
        let packed = pruned_engine.compress(raw).unwrap();
        prop_assert_eq!(pruned_engine.decompress(&packed).unwrap(), raw);
    }
}

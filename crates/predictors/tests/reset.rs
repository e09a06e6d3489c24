//! A reset bank is a new bank: after `FieldBank::reset`, a bank that
//! modeled one column — or stopped replaying one on a corrupt stream —
//! models the next columns exactly as a freshly built bank does, in
//! codes, misses and table occupancy.

use proptest::prelude::*;
use tcgen_predictors::{FieldBank, PredictorOptions, UpdatePolicy};

/// The predictor options of the seven Table 2 engine presets, in the
/// order TCgen, VPC3, no smart update, no type minimization, no shared
/// tables, no fast hash, all de-optimized.
fn table2_presets() -> [PredictorOptions; 7] {
    let d = PredictorOptions::default();
    let always = UpdatePolicy::Always;
    [
        d,
        PredictorOptions { policy: always, adaptive_shift: false, ..d },
        PredictorOptions { policy: always, ..d },
        PredictorOptions { minimal_elements: false, ..d },
        PredictorOptions { shared_tables: false, ..d },
        PredictorOptions { fast_hash: false, ..d },
        PredictorOptions {
            policy: always,
            fast_hash: false,
            shared_tables: false,
            adaptive_shift: true,
            minimal_elements: false,
        },
    ]
}

/// A spec whose PC field and second field draw from every predictor kind
/// and element width, with tables small enough that long columns write
/// most of their lines and short ones only a few.
fn spec_source() -> impl Strategy<Value = String> {
    let predictor = prop_oneof![
        (1u32..=4).prop_map(|n| format!("LV[{n}]")),
        (1u32..=3, 1u32..=2).prop_map(|(x, n)| format!("FCM{x}[{n}]")),
        (1u32..=3, 1u32..=2).prop_map(|(x, n)| format!("DFCM{x}[{n}]")),
        (1u32..=3).prop_map(|n| format!("ST[{n}]")),
    ];
    let preds = proptest::collection::vec(predictor, 1..4);
    let widths = prop_oneof![Just(8u32), Just(16), Just(32), Just(64)];
    let l1s = prop_oneof![Just(4u64), Just(16), Just(64)];
    let l2s = prop_oneof![Just(16u64), Just(64), Just(256)];
    (preds.clone(), l2s.clone(), widths, preds, l1s, l2s).prop_map(
        |(pc_preds, pc_l2, bits, preds, l1, l2)| {
            format!(
                "TCgen Trace Specification;\n\
                 32-Bit Field 1 = {{L1 = 1, L2 = {pc_l2}: {}}};\n\
                 {bits}-Bit Field 2 = {{L1 = {l1}, L2 = {l2}: {}}};\n\
                 PC = Field 1;\n",
                pc_preds.join(", "),
                preds.join(", ")
            )
        },
    )
}

/// A PC column and a value column of `n` records: strided runs broken by
/// random values, over `spread` distinct PCs.
#[derive(Debug, Clone)]
struct Column {
    pcs: Vec<u64>,
    values: Vec<u64>,
}

fn column() -> impl Strategy<Value = Column> {
    (0usize..2_500, 1u64..200, 1u64..6, any::<u64>()).prop_map(|(n, spread, every, seed)| {
        let mut x = seed | 1;
        let mut pcs = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for i in 0..n as u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            pcs.push(0x40_0000 + (x >> 33) % spread * 4);
            values.push(if i % every == 0 { x >> 7 } else { 0x1000 + i * 8 });
        }
        Column { pcs, values }
    })
}

fn model(bank: &mut FieldBank, col: &Column) -> (Vec<u8>, Vec<u64>) {
    let (mut codes, mut misses) = (Vec::new(), Vec::new());
    bank.model_column(&col.pcs, &col.values, &mut codes, &mut misses);
    (codes, misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `corrupt` picks what the bank does before its reset: 0 models
    /// column A; 1, 2 and 3 replay A's streams with, respectively, a code
    /// out of range two thirds in, the last miss value dropped, and one
    /// miss value too many — so replay stops on a `ReplayError` early,
    /// late, or after every record.
    #[test]
    fn reset_bank_models_like_a_new_bank(
        src in spec_source(),
        preset in 0usize..7,
        plan in prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        corrupt in 0u8..4,
        a in column(),
        b in column(),
        c in column(),
    ) {
        let spec = tcgen_spec::parse(&src).expect("generated specs are valid");
        let options = table2_presets()[preset];
        for field in &spec.fields {
            let build = || {
                let mut bank = FieldBank::new(field, options);
                if let Some(on) = plan {
                    bank.force_plan(on);
                }
                bank
            };
            let mut used = build();
            if corrupt == 0 {
                model(&mut used, &a);
            } else {
                let (mut codes, mut misses) = model(&mut build(), &a);
                match corrupt {
                    1 if !codes.is_empty() => {
                        let k = codes.len() * 2 / 3;
                        codes[k] = used.n_predictions() as u8 + 1;
                    }
                    2 if !misses.is_empty() => {
                        misses.pop();
                    }
                    _ => misses.push(7),
                }
                let replayed = used.replay_column(Some(&a.pcs), &codes, &misses, &mut Vec::new());
                prop_assert!(replayed.is_err(), "corruption {} went unnoticed", corrupt);
            }
            used.reset();
            prop_assert!(
                used.occupancy().iter().all(|t| t.lines_written == 0),
                "reset left lines counted: {:?}",
                used.occupancy()
            );
            let mut fresh = build();
            for (name, col) in [("B", &b), ("C", &c)] {
                prop_assert_eq!(
                    model(&mut used, col),
                    model(&mut fresh, col),
                    "column {} diverges: {}-bit field, preset {}, plan {:?}",
                    name, field.bits, preset, plan
                );
            }
            prop_assert_eq!(used.occupancy(), fresh.occupancy());
        }
    }
}

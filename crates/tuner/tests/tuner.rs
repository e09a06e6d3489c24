//! End-to-end tuner tests against synthetic VPC traces.

use tcgen_engine::{Engine, EngineOptions};
use tcgen_spec::presets;
use tcgen_tracegen::{generate_trace, program, TraceKind};
use tcgen_tuner::{tune, TunerOptions};

fn gzip_store_trace(records: usize) -> Vec<u8> {
    generate_trace(&program("gzip").unwrap(), TraceKind::StoreAddress, records).to_bytes()
}

fn smoke_options() -> TunerOptions {
    TunerOptions { sample_records: 8_192, budget_evals: 48, seed: 7, ..Default::default() }
}

#[test]
fn tuning_is_deterministic_across_runs_and_thread_counts() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    let raw = gzip_store_trace(30_000);

    let a = tune(&base, &raw, &smoke_options()).unwrap();
    let b = tune(&base, &raw, &smoke_options()).unwrap();
    assert_eq!(
        tcgen_spec::canonical(&a.tuned),
        tcgen_spec::canonical(&b.tuned),
        "same trace, seed, and budget must reproduce the spec"
    );
    assert_eq!(a.evals, b.evals);
    assert_eq!(a.tuned_container_bytes, b.tuned_container_bytes);

    let mut threaded = smoke_options();
    threaded.engine = EngineOptions { threads: 4, ..threaded.engine };
    let c = tune(&base, &raw, &threaded).unwrap();
    assert_eq!(
        tcgen_spec::canonical(&a.tuned),
        tcgen_spec::canonical(&c.tuned),
        "thread counts are speed-only"
    );
    assert_eq!(a.tuned_container_bytes, c.tuned_container_bytes);
}

#[test]
fn tuned_spec_round_trips_through_parse_and_the_engine() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    let raw = gzip_store_trace(20_000);
    let outcome = tune(&base, &raw, &smoke_options()).unwrap();

    // Canonical text is a fixpoint and re-parses to the same spec.
    let text = tcgen_spec::canonical(&outcome.tuned);
    let reparsed = tcgen_spec::parse(&text).unwrap();
    assert_eq!(tcgen_spec::canonical(&reparsed), text);

    // The tuned spec drives the engine losslessly.
    let engine = Engine::new(reparsed, EngineOptions::tcgen());
    let packed = engine.compress(&raw).unwrap();
    assert_eq!(engine.decompress(&packed).unwrap(), raw);
}

#[test]
fn tuned_container_never_beats_worse_than_base() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    let raw = gzip_store_trace(25_000);
    let outcome = tune(&base, &raw, &smoke_options()).unwrap();

    let base_packed =
        Engine::new(outcome.base.clone(), EngineOptions::tcgen()).compress(&raw).unwrap();
    assert_eq!(outcome.base_container_bytes, base_packed.len() as u64);
    let final_packed =
        Engine::new(outcome.tuned.clone(), EngineOptions::tcgen()).compress(&raw).unwrap();
    assert!(
        final_packed.len() as u64 <= outcome.base_container_bytes,
        "guard must prevent regressions: tuned {} vs base {}",
        final_packed.len(),
        outcome.base_container_bytes
    );
}

#[test]
fn budget_bounds_the_evaluations() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    let raw = gzip_store_trace(5_000);
    let tight = TunerOptions { budget_evals: 5, sample_records: 2_000, ..Default::default() };
    let outcome = tune(&base, &raw, &tight).unwrap();
    for field in &outcome.fields {
        assert!(
            field.evaluations.len() <= 5,
            "field {} spent {} evals",
            field.field_number,
            field.evaluations.len()
        );
        assert_eq!(field.evaluations.iter().filter(|e| e.chosen).count(), 1);
    }
    tcgen_spec::validate(&outcome.tuned).unwrap();
}

#[test]
fn empty_trace_tunes_without_error() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    // Header only, zero records.
    let raw = vec![0u8; 4];
    let outcome = tune(&base, &raw, &smoke_options()).unwrap();
    assert_eq!(outcome.total_records, 0);
    tcgen_spec::validate(&outcome.tuned).unwrap();
    assert!(outcome.tuned_container_bytes <= outcome.base_container_bytes);
}

#[test]
fn report_is_valid_enough_json_and_mentions_the_winner() {
    let base = tcgen_spec::parse(presets::TCGEN_A).unwrap();
    let raw = gzip_store_trace(5_000);
    let options = smoke_options();
    let outcome = tune(&base, &raw, &options).unwrap();
    let json = tcgen_tuner::report_json(&outcome, &options);
    assert!(json.starts_with("{\n"));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"chosen\": true"));
    assert!(json.contains("\"tuned_spec\""));
    assert_eq!(json.matches("\"field\":").count(), base.fields.len());
    // Balanced braces: crude but effective without a JSON dependency.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

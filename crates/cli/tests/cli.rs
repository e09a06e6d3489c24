//! End-to-end tests of the `tcgen` command-line tool.

use std::process::{Command, Stdio};

fn tcgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tcgen"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcgen-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_spec(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("vpc3.tcgen");
    std::fs::write(&path, tcgen_spec::presets::TCGEN_A).expect("write spec");
    path
}

#[test]
fn canon_prints_canonical_form() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let out = tcgen().arg("canon").arg(&spec).output().expect("run tcgen");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# total: 14 predictions per record"));
}

#[test]
fn generate_emits_compilable_looking_c_and_rust() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    for (lang, needle) in [("c", "int main"), ("rust", "fn main()")] {
        let out = tcgen()
            .args(["generate"])
            .arg(&spec)
            .args(["--lang", lang])
            .output()
            .expect("run tcgen");
        assert!(out.status.success(), "{lang} generation failed");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(needle), "{lang} output missing {needle}");
    }
}

#[test]
fn trace_compress_decompress_roundtrip_via_files() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let trace = dir.join("t.trace");
    let packed = dir.join("t.tcgz");
    let restored = dir.join("t.out");

    let status = tcgen()
        .args(["trace", "mcf", "store", "3000"])
        .arg(&trace)
        .status()
        .expect("generate trace");
    assert!(status.success());
    // 3000 * mcf's 0.4 size factor = 1200 records.
    assert_eq!(std::fs::metadata(&trace).unwrap().len(), 4 + 1200 * 12);

    let out = tcgen()
        .arg("compress")
        .arg(&spec)
        .arg(&trace)
        .arg(&packed)
        .arg("--stats")
        .stderr(Stdio::piped())
        .output()
        .expect("compress");
    assert!(out.status.success());
    // Under --stats, usage feedback and the stage summary land on stderr.
    let feedback = String::from_utf8(out.stderr).unwrap();
    assert!(feedback.contains("Field 1"), "missing usage feedback: {feedback}");
    assert!(feedback.contains("compress"), "missing stage summary: {feedback}");
    assert!(
        std::fs::metadata(&packed).unwrap().len() < std::fs::metadata(&trace).unwrap().len(),
        "compression should shrink the trace"
    );

    let status = tcgen()
        .arg("decompress")
        .arg(&spec)
        .arg(&packed)
        .arg(&restored)
        .status()
        .expect("decompress");
    assert!(status.success());
    assert_eq!(
        std::fs::read(&trace).unwrap(),
        std::fs::read(&restored).unwrap(),
        "roundtrip through the CLI must be lossless"
    );
}

#[test]
fn compress_is_quiet_without_stats() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let trace = dir.join("q.trace");
    let packed = dir.join("q.tcgz");
    assert!(tcgen()
        .args(["trace", "mcf", "store", "2000"])
        .arg(&trace)
        .status()
        .expect("trace")
        .success());
    let out = tcgen()
        .arg("compress")
        .arg(&spec)
        .arg(&trace)
        .arg(&packed)
        .stderr(Stdio::piped())
        .output()
        .expect("compress");
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn telemetry_sinks_write_valid_files_without_changing_output() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let trace = dir.join("tel.trace");
    let plain = dir.join("tel-plain.tcgz");
    let observed = dir.join("tel-observed.tcgz");
    let report = dir.join("telemetry.json");
    let chrome = dir.join("tel.trace.json");
    assert!(tcgen()
        .args(["trace", "gzip", "store", "6000"])
        .arg(&trace)
        .status()
        .expect("trace")
        .success());

    assert!(tcgen()
        .arg("compress")
        .arg(&spec)
        .arg(&trace)
        .arg(&plain)
        .args(["--threads", "2", "--block-records", "512"])
        .status()
        .expect("compress")
        .success());
    let out = tcgen()
        .arg("compress")
        .arg(&spec)
        .arg(&trace)
        .arg(&observed)
        .args(["--threads", "2", "--block-records", "512", "--stats-json"])
        .arg(&report)
        .arg("--trace-out")
        .arg(&chrome)
        .stderr(Stdio::piped())
        .output()
        .expect("compress with telemetry");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // File sinks alone keep stderr quiet.
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));

    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&observed).unwrap(),
        "telemetry must never perturb the container bytes"
    );
    let report = std::fs::read_to_string(&report).expect("json report written");
    for key in ["\"wall_seconds\"", "\"counters\"", "\"stages\"", "\"pools\""] {
        assert!(report.contains(key), "missing {key}: {report}");
    }
    let chrome = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("pack-0"), "worker track missing: {chrome}");
}

#[test]
fn bad_spec_fails_with_position() {
    let dir = tempdir();
    let path = dir.join("bad.tcgen");
    std::fs::write(
        &path,
        "TCgen Trace Specification;\n32-Bit Field 1 = {: WAT[1]};\nPC = Field 1;",
    )
    .unwrap();
    let out = tcgen().arg("canon").arg(&path).output().expect("run tcgen");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("WAT"), "{err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = tcgen().arg("frobnicate").output().expect("run tcgen");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"), "{err}");
}

/// Unknown options are refused, never taken as file operands: a
/// mistyped flag must not become the name of the output file, and a
/// retired flag fails loudly instead of being ignored.
#[test]
fn unknown_options_fail_instead_of_naming_files() {
    let dir = tempdir().join("unknown-options");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = write_spec(&dir);
    let spec = spec.to_str().unwrap();
    let status = tcgen()
        .current_dir(&dir)
        .args(["trace", "mcf", "store", "500", "t.trace"])
        .status()
        .expect("generate trace");
    assert!(status.success());
    let cases: [(&[&str], &str); 5] = [
        (&["compress", spec, "t.trace", "--thread"], "--thread"),
        (&["compress", spec, "t.trace", "t.tcgz", "--model-threads", "2"], "--model-threads"),
        (&["decompress", spec, "t.tcgz", "t.out", "--model-threads", "2"], "--model-threads"),
        (
            &["client", "--socket", "none.sock", "compress", spec, "t.trace", "--thread"],
            "--thread",
        ),
        (
            &[
                "client",
                "--socket",
                "none.sock",
                "extract",
                spec,
                "t.tcgz",
                "--range",
                "0..9",
                "--thread",
            ],
            "--thread",
        ),
    ];
    for (args, flag) in cases {
        let out = tcgen().current_dir(&dir).args(args).output().expect("run tcgen");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unexpected argument '{flag}'")), "{args:?}: {err}");
        assert!(!dir.join(flag).exists(), "{args:?} wrote a file named {flag}");
    }
    // The retired balanced profile is an unknown value, refused by name.
    let args = ["compress", spec, "t.trace", "b.tcgz", "--profile", "balanced"];
    let out = tcgen().current_dir(&dir).args(args).output().expect("run tcgen");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.lines().any(|l| l == "tcgen: unknown profile 'balanced' (use fast or max)"),
        "{err}"
    );
    assert!(!dir.join("b.tcgz").exists(), "--profile balanced wrote a container");
}

#[test]
fn unknown_program_lists_choices() {
    let out = tcgen().args(["trace", "doom", "store", "100"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("mcf"), "should list valid programs: {err}");
}

#[test]
fn prune_emits_a_smaller_valid_spec() {
    let dir = tempdir();
    let spec = dir.join("b.tcgen");
    std::fs::write(&spec, tcgen_spec::presets::TCGEN_B).unwrap();
    let trace = dir.join("p.trace");
    assert!(tcgen()
        .args(["trace", "swim", "store", "20000"])
        .arg(&trace)
        .status()
        .expect("trace")
        .success());
    let out = tcgen()
        .arg("prune")
        .arg(&spec)
        .arg(&trace)
        .arg("0.02")
        .stderr(Stdio::piped())
        .output()
        .expect("prune");
    assert!(out.status.success());
    let pruned_text = String::from_utf8(out.stdout).unwrap();
    let pruned = tcgen_spec::parse(&pruned_text).expect("pruned spec parses");
    let original = tcgen_spec::parse(tcgen_spec::presets::TCGEN_B).unwrap();
    assert!(
        pruned.prediction_count() < original.prediction_count(),
        "pruning should drop predictors: {pruned_text}"
    );
}

#[test]
fn usage_reports_occupancy_and_writes_json() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let trace = dir.join("u.trace");
    let json = dir.join("u.json");
    assert!(tcgen()
        .args(["trace", "gzip", "store", "5000"])
        .arg(&trace)
        .status()
        .expect("trace")
        .success());
    let out = tcgen()
        .arg("usage")
        .arg(&spec)
        .arg(&trace)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("usage");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lines touched"), "occupancy missing: {text}");
    let report = std::fs::read_to_string(&json).expect("json written");
    assert!(report.contains("\"lines_written\""), "{report}");
    assert!(report.contains("\"hit_rate\""), "{report}");
    assert_eq!(report.matches('{').count(), report.matches('}').count());
}

#[test]
fn tune_emits_a_valid_spec_and_report() {
    let dir = tempdir();
    let spec = write_spec(&dir);
    let trace = dir.join("tn.trace");
    let tuned = dir.join("tuned.tcgen");
    let json = dir.join("tune.json");
    assert!(tcgen()
        .args(["trace", "gzip", "store", "8000"])
        .arg(&trace)
        .status()
        .expect("trace")
        .success());
    let out = tcgen()
        .arg("tune")
        .arg(&spec)
        .arg(&trace)
        .arg(&tuned)
        .args([
            "--sample-records",
            "2000",
            "--budget-evals",
            "24",
            "--seed",
            "1",
            "--stats",
            "--json",
        ])
        .arg(&json)
        .stderr(Stdio::piped())
        .output()
        .expect("tune");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let summary = String::from_utf8(out.stderr).unwrap();
    assert!(summary.contains("evaluations"), "{summary}");
    let tuned_text = std::fs::read_to_string(&tuned).expect("tuned spec written");
    let parsed = tcgen_spec::parse(&tuned_text).expect("tuned spec parses");
    assert_eq!(tcgen_spec::canonical(&parsed), tuned_text, "canonical fixpoint");
    let report = std::fs::read_to_string(&json).expect("json written");
    assert!(report.contains("\"chosen\": true"), "{report}");
}

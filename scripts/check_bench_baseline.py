#!/usr/bin/env python3
"""Compare a fresh `reproduce --json` run against the committed baseline.

Usage:
  check_bench_baseline.py BASELINE.json CURRENT.json
  check_bench_baseline.py --tune-report TUNE.json

Every algorithm in the suite is implemented in-repo and deterministic,
so per-(algorithm, trace kind) compressed sizes must match the baseline
exactly; any deviation means an engine change altered the emitted
streams and fails the check. Throughput numbers vary with the runner's
hardware and are printed for information only.

The `TCgen-fast` profile rows are the exception: that backend is free
to improve its encoding, so their sizes are reported but not enforced.
Only the default `--profile max` container (the `TCgen` row) is
golden-pinned. The `checkpoint_speed` object is
likewise informational: checkpointed containers restart their
predictors at every span, so their sizes and timings depend on the
span layout, which may evolve freely.

The --tune-report mode summarizes a `tcgen tune --json` report instead:
it prints the tuned-vs-default compressed-size ratio and the evaluation
spend. The ratio tracks auto-tuner quality over time but depends on the
trace and budget, so this mode is informational and always exits 0 (a
malformed report still fails).
"""

import json
import sys


# Profile rows whose compressed sizes are informational, not enforced:
# only the default max-profile container format is golden-pinned.
SIZE_INFORMATIONAL = {"TCgen-fast"}


def rows(path):
    with open(path) as f:
        data = json.load(f)
    return {(r["algorithm"], r["trace_kind"]): r for r in data["results"]}


def telemetry_overhead(path):
    """Prints the run's stats-on vs stats-off throughput, if recorded.

    Informational only: the byte-identity of telemetry is CI-gated
    elsewhere; this line just tracks the time cost of leaving a
    recorder attached so regressions are visible in the job log.
    """
    with open(path) as f:
        overhead = json.load(f).get("telemetry_overhead")
    if overhead is None:
        return
    print(
        f"telemetry overhead: {overhead['stats_off_mb_per_s']:.1f} MB/s stats-off, "
        f"{overhead['stats_on_mb_per_s']:.1f} MB/s stats-on, "
        f"fraction {overhead['overhead_fraction']:.4f} (informational)"
    )


def metrics_overhead(path):
    """Prints the serve-style metrics cost over a plain recorder, if
    recorded.

    Informational only, like `telemetry_overhead`: per-job histogram
    records and the window sampler run off the compression hot path, so
    this line just keeps their measured cost visible in the job log.
    """
    with open(path) as f:
        overhead = json.load(f).get("metrics_overhead")
    if overhead is None:
        return
    print(
        f"metrics overhead: {overhead['recorder_only_mb_per_s']:.1f} MB/s recorder-only, "
        f"{overhead['metrics_on_mb_per_s']:.1f} MB/s with histograms+sampler, "
        f"fraction {overhead['overhead_fraction']:.4f} (informational)"
    )


def decompress_deltas(baseline, current):
    """Prints per-algorithm decompress-throughput deltas vs the baseline.

    Informational only: throughput depends on the runner's hardware, so
    a delta never fails the check. The line makes decode-path speedups
    (and regressions) visible in the job log next to the size rows they
    ride with.
    """
    for key in sorted(baseline.keys() & current.keys()):
        b, c = baseline[key], current[key]
        bd, cd = b.get("decompress_mb_per_s"), c.get("decompress_mb_per_s")
        if not bd or not cd:
            continue
        delta = (cd / bd - 1.0) * 100.0
        print(
            f"note {'/'.join(key)}: decompress {cd:.1f} MB/s vs baseline "
            f"{bd:.1f} MB/s ({delta:+.0f}%; informational)"
        )


def profile_speed(baseline_path, path):
    """Prints the per-profile timing on the big reference trace, if recorded.

    Informational only: wall times depend on the runner, and the fast
    encoding is free to evolve. The line keeps the
    measured trade-off visible in the job log next to the sizes it
    buys, with decompress-throughput deltas against the baseline run.
    """
    with open(path) as f:
        speed = json.load(f).get("profile_speed")
    if speed is None:
        return
    with open(baseline_path) as f:
        base = json.load(f).get("profile_speed") or {"profiles": []}
    base_by_name = {p["profile"]: p for p in base["profiles"]}
    per = ", ".join(
        f"{p['profile']} {p['compress_s']:.3f}s/{p['compressed_bytes']}B"
        f" ({p['speedup_vs_max']:.2f}x)"
        for p in speed["profiles"]
    )
    print(
        f"profile speed on {speed['trace']} ({speed['records']} records, "
        f"{speed['original_bytes']} bytes): {per} (informational)"
    )
    for p in speed["profiles"]:
        cd = p.get("decompress_mb_per_s")
        bd = base_by_name.get(p["profile"], {}).get("decompress_mb_per_s")
        if not cd or not bd:
            continue
        delta = (cd / bd - 1.0) * 100.0
        print(
            f"note profile {p['profile']}: decompress {cd:.1f} MB/s vs baseline "
            f"{bd:.1f} MB/s ({delta:+.0f}%; informational)"
        )


def checkpoint_speed(path):
    """Prints the checkpointed-container rows, if recorded.

    Informational only: checkpointed sizes depend on the span layout,
    which is free to evolve, and decompression wall times depend on the
    runner's core count. Only the non-checkpointed max-profile rows in
    `results` are golden-pinned.
    """
    with open(path) as f:
        speed = json.load(f).get("checkpoint_speed")
    if speed is None:
        return
    per = ", ".join(
        f"interval {r['checkpoint_blocks']}/t{r['threads']} "
        f"{r['compressed_bytes']}B {r['decompress_s']:.3f}s decompress"
        for r in speed["rows"]
    )
    print(
        f"checkpoint speed on {speed['trace']} ({speed['records']} records, "
        f"block_records {speed['block_records']}): {per} (informational)"
    )


def service_speed(path):
    """Prints the `tcgen serve` request-throughput rows, if recorded.

    Informational only: requests per second and per-job latency depend
    entirely on the runner. The service's byte identity against direct
    CLI output is CI-gated separately; this line just keeps scheduling
    and framing overhead visible in the job log.
    """
    with open(path) as f:
        speed = json.load(f).get("service_speed")
    if speed is None:
        return
    per = ", ".join(
        f"{r['scenario']} {r['jobs']}x{r['records_per_job']} records: "
        f"{r['requests_per_s']:.1f} req/s, {r['mean_job_s']:.3f}s/job"
        for r in speed["rows"]
    )
    print(
        f"service speed on {speed['trace']} ({speed['records']} records): "
        f"{per} (informational)"
    )


def tune_report(path):
    with open(path) as f:
        report = json.load(f)
    base = report["base_container_bytes"]
    tuned = report["tuned_container_bytes"]
    final = base if report["used_base"] else tuned
    ratio = final / base if base else 1.0
    print(
        f"tune {path}: base {base} bytes, tuned {tuned} bytes, "
        f"ratio {ratio:.4f} ({report['evals']} evaluations over "
        f"{report['sample_records']} of {report['total_records']} records"
        f"{', kept base spec' if report['used_base'] else ''}; informational)"
    )
    if final > base:
        # The tuner's full-trace guard makes this impossible; reaching it
        # means the report is inconsistent.
        sys.exit(f"FAIL {path}: emitted spec is worse than the base spec")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--tune-report":
        tune_report(sys.argv[2])
        return
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = rows(sys.argv[1])
    current = rows(sys.argv[2])
    failed = False
    for key in sorted(baseline.keys() | current.keys()):
        name = "/".join(key)
        b = baseline.get(key)
        c = current.get(key)
        if b is None or c is None:
            side = "baseline" if b is None else "current run"
            print(f"FAIL {name}: missing from the {side}")
            failed = True
            continue
        if b["compressed_bytes"] != c["compressed_bytes"]:
            if key[0] in SIZE_INFORMATIONAL:
                print(
                    f"note {name}: compressed size {c['compressed_bytes']} differs "
                    f"from baseline {b['compressed_bytes']} (informational profile row)"
                )
                continue
            print(
                f"FAIL {name}: compressed size {c['compressed_bytes']} deviates "
                f"from baseline {b['compressed_bytes']}"
            )
            failed = True
        else:
            print(
                f"ok   {name}: {c['compressed_bytes']} bytes "
                f"({c['compress_mb_per_s']:.1f} MB/s compress, "
                f"baseline {b['compress_mb_per_s']:.1f} MB/s; informational)"
            )
    decompress_deltas(baseline, current)
    telemetry_overhead(sys.argv[2])
    metrics_overhead(sys.argv[2])
    profile_speed(sys.argv[1], sys.argv[2])
    checkpoint_speed(sys.argv[2])
    service_speed(sys.argv[2])
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

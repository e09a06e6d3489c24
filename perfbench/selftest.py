#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny input sizes, untraced and
traced, and checks that every end-to-end and per-layer metric named
there is present, finite and labelled with its unit, and that no output
check failed. Then flips one byte of one container and checks that the
damage is counted as a failed check instead of ending the run.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tiny(binaries, workload, trace, *extra):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny", *extra]
    code, out = run.run(*binaries, args)
    try:
        return code, last_json(out)
    except json.JSONDecodeError:
        return code, None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binaries = run.build()
    if binaries is None:
        print("selftest: build failed")
        return 1
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w['name']} --trace {trace}"
            code, result = tiny(binaries, w["name"], trace)
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} checks failed")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            for name in sorted(set(want) - set(got)):
                problems.append(f"{where}: {name} missing")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{where}: {name} is not in BENCHMARK.json")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{where}: {name} in {m.get('unit')}, expected {unit}")
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m.get('value')} is not finite")

    code, result = tiny(binaries, "corpus", 0, "--flip-byte")
    if code != 0 or result is None:
        problems.append(f"flipped byte: exit {code}, no result line")
    elif result["failed"] < 1 or result["correct"]:
        problems.append("flipped byte: the damaged container was not counted as a failure")

    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke tests for the benchmark itself, on tiny seeded runs.

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced and a traced run print every
metric BENCHMARK.json names with its unit, fail no answer, pass the traced
LP-count self-check, and produce the same digests; that comparing a result
file with itself reports no change; and that the benchmark refuses to run,
without printing a result, where the package sources are missing.
Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
SEED = 7
SECONDS = "3"


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def check(ok, what):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def result_of(workload, trace):
    code, out, err = run(
        "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)
    )
    check(code == 0, f"{workload} trace={trace} exits 0 ({err.strip()[-300:]})")
    res = json.loads(out.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{workload} result keys")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{workload} trace={trace}: every answer checked and correct")
    section = BENCH["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    check(got == want, f"{workload} trace={trace}: every metric printed with its unit")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    global BENCH
    BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / "perfbench" / "out"
    layers = {}
    for w in ("headline", "cli_files"):
        e2e = result_of(w, 0)
        check(e2e["ok_ratio"] == 1.0, f"{w}: fail ratio is 0")
        layers[w] = result_of(w, 1)
        check(layers[w]["trace.answers"] >= 1, f"{w}: traced answers recorded")
        f0 = out / f"{w}-seed{SEED}-trace0.json"
        f1 = out / f"{w}-seed{SEED}-trace1.json"
        for a, b in ((f0, f0), (f0, f1)):
            code, text, _ = run("--compare", str(a), str(b))
            cmp = json.loads(text)
            check(code == 0 and cmp["changed"] == 0 and cmp["compared"] >= 1,
                  f"{w}: compare {a.name} with {b.name} reports 0 changes")
    per = "synthesis_engine.validate.calls_per_answer"
    check(layers["cli_files"][per] == 2 and layers["headline"][per] == 1,
          "validation runs twice per CLI answer, once per library answer")
    rr = "cone_geometry.cones_intersect.repeat_ratio"
    check(layers["headline"][rr] > layers["cli_files"][rr],
          "headline repeats more cone queries than cli_files")

    bare = out / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, text, _ = run("--workload", "cli_files", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and '"metrics"' not in text, "refuses to run without the package sources")
    print("all smoke checks passed")


if __name__ == "__main__":
    main()

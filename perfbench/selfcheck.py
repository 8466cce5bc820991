#!/usr/bin/env python3
"""Self-check of the benchmark (perfbench/README.md, "Self-check").

    python3 perfbench/selfcheck.py [workload...]

For each workload (default: all) at tiny size it requires that:
- an untraced and a traced run are correct and carry every metric
  BENCHMARK.json declares;
- a run with a planted wrong expected verdict or statistic counts a
  failure.
Then it requires that the benchmark, run in a directory holding only
BENCHMARK.json and perfbench/, exits non-zero without a result.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    p = subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p, result


def check(ok, what, errors):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        errors.append(what)


def main():
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    errors = []
    for w in names:
        base = ["--workload", w, "--seed", "5", "--seconds", "1",
                "--size", "tiny"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p, r = run(base + ["--trace", trace])
            want = {m["name"] for m in SPEC[key]}
            check(p.returncode == 0 and r is not None and r["correct"]
                  and r["failed"] == 0 and set(r["metrics"]) == want,
                  f"{w} --trace {trace}: correct, every metric", errors)
            if r is None or not r["correct"]:
                print(p.stdout[-3000:] + p.stderr[-2000:])
        p, r = run(base + ["--trace", "0", "--plant-wrong"])
        check(p.returncode == 0 and r is not None and not r["correct"]
              and r["failed"] > 0,
              f"{w}: a planted wrong expected value counts as failed",
              errors)

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench")
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(["python3", "perfbench/run.py", "--workload",
                            names[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=tmp, env=env,
                           capture_output=True, text=True, timeout=180)
        check(p.returncode != 0 and '"correct"' not in p.stdout,
              "outside a source checkout: non-zero exit, no result",
              errors)

    print(f"selfcheck: {len(errors)} failure(s)")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run prints every end-to-end metric with its unit, each > 0;
  * a traced run prints every per-layer metric with its unit;
  * count metrics (unit "count") and rel_err repeat exactly for one seed;
  * the correctness gate trips on a deliberately corrupted result copy
    (--corrupt): non-zero exit, correct=false, no metrics;
and that the benchmark refuses to report from a directory holding only
BENCHMARK.json and perfbench/ (no ferro sources to build). Exit 0 = pass.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "1",
           "--tiny"] + extra
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            for attempt in (0, 1):
                code, result, err = run(["--workload", workload, "--trace", str(trace)])
                ok = code == 0 and result is not None and result["correct"]
                check(ok, f"{workload} trace={trace} run {attempt} succeeds")
                if not ok:
                    print(err[-2000:], file=sys.stderr)
                    continue
                runs[(trace, attempt)] = result["metrics"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if (trace, 0) not in runs:
                continue
            metrics = runs[(trace, 0)]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            check(set(metrics) == set(wanted), f"{workload} prints exactly the {key} metrics")
            for name, unit in wanted.items():
                got = metrics.get(name)
                check(got is not None and got["unit"] == unit,
                      f"{workload} {name} printed in {unit}")
                if got is not None and trace == 0:
                    check(math.isfinite(got["value"]) and got["value"] > 0,
                          f"{workload} {name} is a positive number")
            if (trace, 1) in runs:
                again = runs[(trace, 1)]
                for name, unit in wanted.items():
                    if unit == "count" or name == "rel_err":
                        check(metrics.get(name) == again.get(name),
                              f"{workload} {name} repeats exactly for one seed")

        code, result, _ = run(["--workload", workload, "--trace", "0", "--corrupt"])
        check(code != 0 and result is not None and result["correct"] is False
              and result["metrics"] == {},
              f"{workload} correctness gate trips on a corrupted result")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, result, _ = run(["--workload", spec["workloads"][0]["name"], "--trace", "0"],
                          cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and result is None, "refuses to report without the ferro sources")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

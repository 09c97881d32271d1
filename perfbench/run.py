#!/usr/bin/env python3
"""Build and run the ferro repository benchmark.

    python3 perfbench/run.py --workload mc_inrush --seed 2006 --seconds 20 --trace 0

Run from the root of a ferro checkout. The first call configures and builds
perfbench/ (the ferro library from src/ plus the benchmark binary, Release)
into .bench_build/perfbench; later calls only re-run the incremental build.
The last line of stdout is the benchmark's JSON result; the build log, the
host fingerprint and the traced run's time split go to stderr.

Extra options: --tiny (self-test size), --corrupt (self-test: the
correctness gate must trip), --make-reference FILE (regenerate the accuracy
reference; see perfbench/README.md).
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ferro_perfbench"
DEFAULT_SEED = 2006   # the seed claims are developed against
HELD_OUT_SEED = 1984  # re-check a claim on data not used while writing it
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """git SHA when the checkout is a repository, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if out.returncode == 0 and (ROOT / ".git").exists():
            return "git:" + out.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:12]


def build():
    """Configure once, then build incrementally. Returns the binary or None."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("no ferro sources next to perfbench/ (src/, CMakeLists.txt); cannot build")
        return None
    stamp = BUILD / "source-dir.txt"
    if stamp.exists() and stamp.read_text() != str(ROOT):
        shutil.rmtree(BUILD)  # the checkout moved: the CMake cache is stale
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ferro_perfbench",
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (log: {build_log})")
                lines = build_log.read_text(errors="replace").splitlines()
                for line in lines[-20:]:
                    print(line, file=sys.stderr)
                return None
    stamp.write_text(str(ROOT))
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--make-reference", metavar="FILE")
    args = parser.parse_args()
    if args.workload is None and args.make_reference is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 2
    out_dir = ROOT / ".bench_build" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--data-dir", "perfbench/data", "--source-id", source_id()]
    if args.make_reference:
        cmd += ["--make-reference", args.make_reference]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", str(out_dir)]
        if args.trace:
            trace_dir = ROOT / ".bench_build" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt:
            cmd.append("--corrupt")
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library from src/ plus the
benchmark program into .bench_build/perfbench (Release, the same flags as the
top-level build), then runs one workload:

  serve_paced     open loop, 32 radar streams at 30 frames/s with seeded
                  phases, deadline scheduling at 50 ms, one model
  serve_saturate  closed loop, 64 lossless streams over two model versions
  attack_point    one cold Fig.-8 attack point (datasets, surrogate, plan,
                  poisoning, retraining, ASR/UASR/CDR)

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). Lines before it record the host, the build and the
sample counts. Extra flags: --smoke (a few seconds per workload, used by
test_perfbench.py) and --force-mismatch (corrupts one output so the
correctness check must count a failure).

Exits non-zero without printing a result when the build or the run fails.
"""
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
# Compiler and tool temporaries stay inside the checkout too.
TMP_DIR = ROOT / ".bench_build" / "tmp"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """git SHA when the root is a git checkout, plus a digest of the sources
    the benchmark builds (a plain checkout has no .git)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in {".h", ".cpp", ".txt"}:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "sources-sha256:" + digest.hexdigest()[:16]
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            ident = f"git:{lines[1]} {ident}"
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD_DIR / "perfbench"


def main():
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)
    binary = build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *sys.argv[1:], "--work-dir", str(WORK_DIR.relative_to(ROOT)),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

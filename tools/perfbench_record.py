#!/usr/bin/env python3
"""Rewrite the committed perfbench record, BENCH_perfbench.json.

    python3 tools/perfbench_record.py

Run from the repository root on a quiet multi-core host. Runs every
perfbench workload at seed 1 for 20 s (the run length BENCHMARK.json sets)
with --trace 0 and --trace 1, and keeps, per run, the host line, the
detail lines merged into one object, a traced run's trace line, and the
result line. The host line does not name the processor, so the record
adds the model name from /proc/cpuinfo. README and EXPERIMENTS cite the
record by key, e.g. serve_saturate.trace0.result.metrics.cpu_ms_per_op.value.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_paced", "serve_saturate", "attack_point")
ARGS = ["--seed", "1", "--seconds", "20"]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           *ARGS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench_record: {workload} --trace {trace} failed")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    entry = {"result": lines.pop(), "detail": {}}
    for line in lines:
        if "host" in line or "trace" in line:
            entry.update(line)
            continue
        clash = entry["detail"].keys() & line.keys()
        if clash:
            sys.exit(f"perfbench_record: {workload} repeats detail keys {sorted(clash)}")
        entry["detail"].update(line)
    return entry


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    record = {"command": "python3 perfbench/run.py --workload <name> " + " ".join(ARGS) +
                         " --trace <0|1>",
              "cpu": cpu_model()}
    for workload in WORKLOADS:
        record[workload] = {f"trace{t}": run(workload, t) for t in (0, 1)}
    (ROOT / "BENCH_perfbench.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Fast self-check of the benchmark harness (about half a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload at toy sizes (--tiny), untraced and traced, and checks
that each run is correct, that the emitted metric names and units are
exactly those BENCHMARK.json lists, and that in a traced run the layer
self times add up to the cli.main spans and stay within the traced pass
time. Last, it checks that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, units "
                        f"{sorted(k for k in got if k in declared and got[k] != declared[k])}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()):
        problems.append("a metric value is not a finite number")
    if trace and not problems:
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        if not math.isclose(self_total, values["cli.main.s"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"self times sum to {self_total}, cli.main spans to "
                            f"{values['cli.main.s']}")
        if not 0.5 * values["trace.wall_s"] <= self_total <= values["trace.wall_s"]:
            problems.append(f"self times {self_total} vs traced wall {values['trace.wall_s']}")
    elif not trace and not all(v > 0 for v in values.values()):
        problems.append("an end-to-end metric is not positive")
    return problems


def check_refuses_without_sources():
    """The benchmark alone (no src/) must exit non-zero without a result."""
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "search", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            print(f"{workload:9s} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    problems = check_refuses_without_sources()
    failures += bool(problems)
    print(f"without sources: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

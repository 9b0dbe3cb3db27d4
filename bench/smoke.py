"""Smoke mode of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Runs each workload of BENCHMARK.json untraced and traced with
``--size tiny`` and checks that the run exits 0, that its outputs are
correct, and that its last line carries exactly the metrics BENCHMARK.json
names for that mode, each with its unit.  A traced run must also
record work in the layers its workload was chosen for (``COVERAGE``), so
that a wrapper that never sees its calls shows here.  It also checks that the
benchmark refuses to run, without printing a result, from a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Per-layer metrics that must be above 0 in a traced run of each workload.
COVERAGE = {
    "schubert": ["intlinalg.snf_invariants.calls", "spaces.cohomology.self_s"],
    "lazard": ["polynomials.mul.calls", "presented.normal_form.rewrite.calls",
               "conner_floyd.verify_conner_floyd.calls", "conner_floyd.verify_conner_floyd.self_s"],
    "hopf": ["intlinalg.field_rref.calls", "hopf.transition.calls", "hopf.primitives.self_s",
             "hopf.indecomposables.self_s", "thom.thom_product_check.calls",
             "thom.thom_product_check.self_s"],
    "cli": ["towers.tower_limit_and_lim1.calls", "towers.split_tower_compare.calls",
            "serialize.canonical_dumps.self_s"],
}


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(spec, cwd: Path, workload: str, trace: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if res.returncode != 0:
        return [f"{where}: exit {res.returncode}: {res.stderr.strip()[-300:]}"]
    result = last_json(res.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not a result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != unit or not isinstance(got[name]["value"], (int, float)):
            problems.append(f"{where}: metric {name} is {got[name]}, unit should be {unit}")
    problems += [f"{where}: metric {name} not in BENCHMARK.json" for name in set(got) - set(wanted)]
    if trace:
        problems += [f"{where}: {name} is not above 0" for name in COVERAGE.get(workload, [])
                     if not got.get(name, {}).get("value", 0) > 0]
    return problems


def check_refuses_without_sources(spec) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".bench-smoke-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        res = subprocess.run([*spec["command"], "--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
    if res.returncode == 0 or last_json(res.stdout) is not None:
        return ["without sources the benchmark did not fail, or printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, ROOT, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

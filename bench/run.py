"""Cold-process benchmark for orcohom.

    python3 bench/run.py --workload {schubert,lazard,hopf,cli} --seed N --seconds S --trace {0,1}

Run from a source checkout: the library is imported from ``src/``.  Every
case runs in a fresh interpreter (``bench/launch.py``), because a CLI user
pays cold module caches on every call.  Load is closed-loop with one
client: cases run one after another, and repetitions of the workload are
started until the next one would end past ``--seconds`` (at least two).

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  The reference task (``bench/reference.py``) runs before
every case and after the last one, and each repetition's wall and CPU
time is divided by the mean of the reference runs around its cases.
``--trace 1`` alternates untraced and traced repetitions
and reports per-layer self times, counts and the tracing overhead.  The
last line of stdout is one JSON object; the lines before it name each
metric with its unit and record the interpreter, CPU count, numpy
version and load average.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import cases
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = str(BENCH / "launch.py")
REFERENCE = str(BENCH / "reference.py")

MIN_REPS = 2
CASE_TIMEOUT_S = 60.0
# Stop starting cases once this much of the run has gone, so that a run
# ends well within 180 s even when every case times out.
HARD_LIMIT_S = 150.0

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "cpu_ref": "ref", "peak_rss_mb": "MB",
              "pass_rate": "ratio"}
# Printed on the lines before the result, not gated: raw times follow the
# host's speed (see bench/reference.py), and error_rate reads 0 on every
# healthy run, so the result carries pass_rate = 1 - error_rate instead.
NOTES = {"wall_s": "s", "cpu_s": "s", "reference_s": "s", "error_rate": "ratio"}

SPAN_METRICS = {
    "intlinalg.hnf": ("calls", "self_s"),
    "intlinalg.snf_invariants": ("calls", "self_s"),
    "intlinalg.field_rref": ("calls", "self_s"),
    "intlinalg.kernel_basis": ("calls", "self_s"),
    "intlinalg.det_bareiss_ring": ("calls", "self_s"),
    "polynomials.mul": ("calls", "self_s"),
    "presented.normal_form.rewrite": ("calls", "self_s"),
    "presented.normal_form.degreewise": ("calls", "self_s"),
    "presented.compose": ("calls", "self_s"),
    "presented.graded_basis": ("calls", "self_s"),
    "presented.is_graded_isomorphism": ("calls", "self_s"),
    "spaces.cohomology": ("self_s",),
    "fgl.lazard_ring": ("self_s",),
    "fgl.classifying_map": ("self_s",),
    "conner_floyd.verify_conner_floyd": ("calls", "self_s"),
    "hopf.transition": ("calls", "self_s"),
    "hopf.delta": ("self_s",),
    "hopf.primitives": ("self_s",),
    "hopf.indecomposables": ("self_s",),
    "thom.thom_product_check": ("calls", "self_s"),
    "towers.tower_limit_and_lim1": ("calls", "self_s"),
    "towers.split_tower_compare": ("calls", "self_s"),
    "serialize.canonical_dumps": ("self_s",),
}
# Library functions the launcher calls itself, per workload.  A traced run
# in which one of them records no call has lost its wrappers, so it fails.
LAUNCHER_CALLS = {
    "schubert": ["spaces.cohomology"],
    "lazard": ["conner_floyd.verify_conner_floyd"],
    "hopf": ["hopf.primitives", "hopf.indecomposables", "thom.thom_product_check"],
    "cli": [],
}
COUNTERS = ["intlinalg.hnf.cells", "intlinalg.snf_invariants.cells", "intlinalg.field_rref.cells",
            "polynomials.mul.pairs"]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ORCOHOM_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts one child at a time and reaps it with its own resource usage."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.pid = None

    def spawn(self, argv: list[str], timeout: float) -> dict:
        out = os.path.join(self.workdir, "stdout")
        err = os.path.join(self.workdir, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        timeout = min(timeout, self.deadline - now())
        if timeout <= 0:
            return {"timed_out": True, "status": None, "cpu": 0.0, "rss_mb": 0.0,
                    "stdout": b"", "stderr": b"", "launch": now()}
        timed_out = False

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            launch = now()
            self.pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                      file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            _, status, usage = os.wait4(self.pid, 0)
            self.pid = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.stop()
        with open(out, "rb") as fh:
            stdout = fh.read()
        with open(err, "rb") as fh:
            stderr = fh.read()
        return {"timed_out": timed_out, "status": os.waitstatus_to_exitcode(status),
                "launch": launch, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr}

    def stop(self) -> None:
        """Kill and reap a child left running by an exception."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(self.pid, 0)
            self.pid = None


class Bench:
    def __init__(self, runner: Runner, case_list, workdir: str):
        self.runner = runner
        self.cases = case_list
        self.workdir = workdir
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_case(self, case, traced: bool) -> dict:
        meta = os.path.join(self.workdir, "meta.json")
        trace = os.path.join(self.workdir, f"trace-{case.name}.json") if traced else "-"
        for path in (meta, trace):
            if os.path.exists(path):
                os.remove(path)
        res = self.runner.spawn([LAUNCH, meta, trace, *case.argv], CASE_TIMEOUT_S)
        error = self.verify(case, res)
        res["checked"] = now()
        res["name"] = case.name
        self.attempted += 1
        if error:
            self.failures.append(f"{case.name}: {error}")
        res["ok"] = not error
        res["setup"] = res["import"] = None
        if os.path.exists(meta):
            with open(meta, encoding="utf-8") as fh:
                data = json.load(fh)
            res["setup"] = data["setup_done"] - res["launch"]
            res["import"] = data["import_s"]
        res["trace"] = spans.load_trace(trace) if traced and os.path.exists(trace) else ({}, {}, [])
        return res

    def verify(self, case, res) -> str | None:
        if res["timed_out"]:
            return "timeout"
        if res["status"] != case.expect_status:
            tail = res["stderr"].decode(errors="replace").strip().splitlines()[-1:]
            return f"exit status {res['status']}, expected {case.expect_status} {tail}"
        error = case.check(res["stdout"])
        if error:
            return error
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        if self.hashes.setdefault(case.name, digest) != digest:
            return "stdout differs from an earlier repetition"
        return None

    def rep(self, traced: bool = False) -> list[dict]:
        return [self.run_case(case, traced) for case in self.cases]

    def reference(self) -> tuple[float, float]:
        """(wall, CPU) seconds of one run of the reference task."""
        res = self.runner.spawn([REFERENCE], CASE_TIMEOUT_S)
        if res["timed_out"] or res["status"] != 0:
            raise RuntimeError(f"reference task failed: {res['stderr'].decode(errors='replace')}")
        return now() - res["launch"], res["cpu"]


def rep_wall(rep) -> float:
    """Sum over the repetition's cases of launch to checked output."""
    return sum(r["checked"] - r["launch"] for r in rep)


def end_to_end(bench: Bench, reps, gauges) -> tuple[dict, dict]:
    """(gated metrics, printed notes) of an untraced run.

    ``gauges[i]`` holds the (wall, CPU) seconds of the reference runs just
    before each case of ``reps[i]`` and just after its last case.
    """
    walls = [rep_wall(rep) for rep in reps]
    cpus = [sum(r["cpu"] for r in rep) for rep in reps]
    ref_walls = [statistics.fmean(wall for wall, _ in g) for g in gauges]
    ref_cpus = [statistics.fmean(cpu for _, cpu in g) for g in gauges]
    setups = [r["setup"] for rep in reps for r in rep if r["setup"] is not None]
    error_rate = len(bench.failures) / bench.attempted
    metrics = {
        "wall_ref": statistics.median(w / g for w, g in zip(walls, ref_walls)),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_ref": statistics.median(c / g for c, g in zip(cpus, ref_cpus)),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in rep) for rep in reps),
        "pass_rate": 1 - error_rate,
    }
    notes = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
             "reference_s": statistics.median(wall for g in gauges for wall, _ in g),
             "error_rate": error_rate}
    return metrics, notes


def import_numpy_s(runner: Runner) -> float:
    """Cumulative import time of numpy under ``-X importtime``."""
    res = runner.spawn(["-X", "importtime", "-c", "import orcohom.cli"], CASE_TIMEOUT_S)
    for line in res["stderr"].decode(errors="replace").splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy\s*$", line)
        if m:
            return int(m.group(1)) / 1e6
    return 0.0


def per_layer(untraced, traced, numpy_s, escapes) -> dict:
    def traced_median(value_of):
        return statistics.median(value_of(rep) for rep in traced)

    def span_total(rep, name, stat):
        k = 0 if stat == "calls" else 1
        return sum(r["trace"][0].get(name, (0, 0.0))[k] for r in rep)

    def counter(rep, key):
        return sum(r["trace"][1].get(key, 0) for r in rep)

    def share(num, den):
        return num / den if den else 0.0

    out = {}
    for name, stats in SPAN_METRICS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = traced_median(lambda rep: span_total(rep, name, stat))
    for key in COUNTERS:
        out[key] = traced_median(lambda rep: counter(rep, key))
    out["intlinalg.snf_invariants.useful_ratio"] = traced_median(lambda rep: share(
        counter(rep, "intlinalg.snf_invariants.useful"),
        span_total(rep, "intlinalg.snf_invariants", "calls")))
    out["presented.mul.kept_ratio"] = traced_median(lambda rep: share(
        counter(rep, "presented.mul.kept"), counter(rep, "presented.mul.pairs")))
    out["presented.basis_escapes"] = escapes
    case_walls = {}
    for rep in untraced:
        for r in rep:
            case_walls.setdefault(r["name"], []).append(r["checked"] - r["launch"])
    for name in cases.CLI_CASES:
        out[f"cli.{name}.wall_s"] = statistics.median(case_walls.get(name, [0.0]))
    imports = [r["import"] for rep in untraced for r in rep if r["import"] is not None]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.import_numpy_s"] = statistics.median(numpy_s)
    out["process.startup_s"] = statistics.median(
        sum(r["setup"] or 0.0 for r in rep) for rep in untraced)
    out["trace.overhead_ratio"] = (statistics.median(rep_wall(rep) for rep in traced)
                                   / statistics.median(rep_wall(rep) for rep in untraced))
    return out


def units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in NOTES:
        return NOTES[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# Untimed: compiles the bytecode once, which users do not pay on every
# call, and reports the numpy that the library actually loads.
WARM_UP = ("import sys, orcohom.cli; "
           "print(getattr(sys.modules.get('numpy'), '__version__', 'not loaded'))")


def environment(numpy: str) -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# python={platform.python_version()} nproc={os.cpu_count()} "
            f"numpy={numpy} loadavg={load}")


def measure(args, bench: Bench, runner: Runner, start: float) -> dict:
    def again(done: int, minimum: int) -> bool:
        """Start another repetition unless it would end past --seconds."""
        elapsed = now() - start
        if elapsed > HARD_LIMIT_S:
            return False
        return done < minimum or elapsed + elapsed / done <= args.seconds

    if not args.trace:
        # The host's speed changes within seconds, so the gauge is taken
        # next to every case rather than once per repetition.
        reps, gauges = [], []
        ref = bench.reference()
        while again(len(reps), MIN_REPS):
            rep, around = [], [ref]
            for i, case in enumerate(bench.cases):
                if i:
                    around.append(bench.reference())
                rep.append(bench.run_case(case, traced=False))
            ref = bench.reference()
            around.append(ref)
            reps.append(rep)
            gauges.append(around)
        return end_to_end(bench, reps, gauges)
    # counted once per traced run, outside every timed repetition
    escapes = 0
    if args.workload == "schubert":
        res = bench.run_case(cases.escapes_case(cases.SIZES[args.size]["schubert"]), traced=False)
        escapes = json.loads(res["stdout"])["basis_escapes"] if res["ok"] else 0
    untraced, traced, numpy_s = [], [], []
    while again(len(traced), 1):
        untraced.append(bench.rep())
        traced.append(bench.rep(traced=True))
        numpy_s.append(import_numpy_s(runner))
    missing = {m for rep in traced for r in rep for m in r["trace"][2]}
    if missing:
        bench.failures.append(f"trace: absent from the library: {sorted(missing)}")
    for name in LAUNCHER_CALLS[args.workload]:
        if any(sum(r["trace"][0].get(name, (0, 0.0))[0] for r in rep) == 0 for rep in traced):
            bench.failures.append(f"trace: {name} recorded no call")
    return per_layer(untraced, traced, numpy_s, escapes), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["schubert", "lazard", "hopf", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(cases.SIZES), default="full",
                        help="tiny is the smoke mode (see bench/smoke.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orcohom" / "cli.py").is_file():
        print(f"error: no orcohom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = now()
    # a terminated benchmark still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    runner = Runner(workdir, start + HARD_LIMIT_S + 20)
    try:
        numpy = runner.spawn(["-c", WARM_UP], CASE_TIMEOUT_S)["stdout"].decode().strip()
        env_line = environment(numpy)
        bench = Bench(runner, cases.build(args.workload, args.size, args.seed, workdir), workdir)
        metrics, notes = measure(args, bench, runner, start)
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(env_line)
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    print(f"# {args.workload} cases failed {len(bench.failures)} of {bench.attempted}")
    for name, value in {**notes, **metrics}.items():
        print(f"# {args.workload} {name} {value:.6g} {units(name)}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

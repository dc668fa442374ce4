#!/usr/bin/env python3
"""artikit benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0

One client runs one ``python -m artikit`` process at a time on fixtures
generated from ``--seed`` and repeats whole passes over them until
``--seconds`` have gone by.  Every invocation's output is checked.  With
``--trace 1`` the same passes run in-process through ``artikit.cli.main``,
alternating untraced and traced calls, and the per-layer metrics are
reported instead.  The last stdout line is the result object; the lines
before it are the full report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy
import scipy

import fixtures
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("evaluate", "match", "features")
SETUP_REPS = 5
TAIL_BEYOND = 10
OP_TIMEOUT_S = 100.0  # keeps a run that hangs under the 180 s a run may take
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ARTIKIT_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def spawn(argv, env, stdout_path) -> tuple:
    """Run one child to completion; returns (wall seconds, exit code or "timeout")."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return time.perf_counter() - start, code


def measure_setup(env, scratch: Path, reps: int) -> list:
    """Wall times of importing the CLI module, after one untimed warm-up import
    that also leaves the byte-code cache of a fresh checkout written."""
    argv = ["-c", "import artikit.cli"]
    spawn(argv, env, scratch / "setup.out")
    times = []
    for _ in range(reps):
        wall, code = spawn(argv, env, scratch / "setup.out")
        if code != 0:
            raise RuntimeError(f"importing artikit.cli exited {code}")
        times.append(wall)
    return times


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Outcomes:
    """Checks every op's output and its determinism; keeps digests and problems."""

    def __init__(self):
        self.reference = {}  # case name -> sha256 of stdout plus output files
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def record(self, case, code, stdout: bytes) -> None:
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        else:
            try:
                problem = case.check(stdout.decode("utf-8"))
            except Exception as exc:  # a malformed output is a failed op, not a crash
                problem = f"check raised {exc!r}"
        if problem is None:
            h = hashlib.sha256(stdout)
            h.update(digest_files(case.outputs).encode())
            digest = h.hexdigest()
            if self.reference.setdefault(case.name, digest) != digest:
                problem = "output bytes differ from this case's first run"
        for path in case.outputs:  # the next run of the case must write its own
            path.unlink(missing_ok=True)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{case.name}: {problem}")

    def workload_digest(self, cases) -> str:
        h = hashlib.sha256()
        for case in cases:
            h.update(self.reference.get(case.name, "missing").encode())
        return h.hexdigest()


def tail(values):
    """The highest percentile with at least 10 samples above it, but never
    below p90: a run of multi-second invocations holds far fewer than the 100
    samples that would put the first rule above p90.  Linear interpolation
    between order statistics.  Returns (value, percentile)."""
    xs = sorted(values)
    pct = max(90.0, 100.0 * (len(xs) - 1 - TAIL_BEYOND) / max(len(xs) - 1, 1))
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), pct


def run_untraced(cases, seconds, env, scratch, outcomes) -> dict:
    walls = {case.name: [] for case in cases}
    deadline = time.perf_counter() + seconds
    passes = 0
    hung = False
    while not hung and (passes == 0 or time.perf_counter() < deadline):
        for case in cases:
            wall, code = spawn(["-m", "artikit", *case.argv], env, scratch / "op.out")
            outcomes.record(case, code, (scratch / "op.out").read_bytes())
            walls[case.name].append(wall)
            hung = code == "timeout"
            if hung:  # the run is failed; end it within its time limit
                break
        passes += 1
    _, maxrss_kib = children_usage()
    all_walls = [w for ws in walls.values() for w in ws]
    tail_value, tail_pct = tail(all_walls)
    return {
        "passes": passes,
        "walls": walls,
        "metrics": {
            "throughput_ops_s": (len(all_walls) / sum(all_walls), "1/s"),
            "op_s.p50": (statistics.median(all_walls), "s"),
            "op_s.tail": (tail_value, "s"),
            "peak_rss_mb": (maxrss_kib / 1024.0, "MiB"),
        },
        "tail_percentile": tail_pct,
    }


def call_in_process(main, case, tracer=None) -> tuple:
    """Run ``artikit.cli.main`` on one case; returns (wall, exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.wrap(spans.ROOT_SPAN, main)(case.argv) if tracer else main(case.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # record the traceback as the op's failure and go on
            traceback.print_exc(file=err)
            code = "exception"
        wall = time.perf_counter() - start
    return wall, code, out.getvalue().encode("utf-8")


def run_traced(cases, seconds, env, scratch, outcomes) -> dict:
    sys.path.insert(0, str(SRC))
    import artikit.cli

    deadline = time.perf_counter() + seconds
    # one pass of child processes gives the CPU time an invocation costs
    cpu0, _ = children_usage()
    for case in cases:
        _, code = spawn(["-m", "artikit", *case.argv], env, scratch / "op.out")
        if code == "timeout":  # an in-process call would hang the same way
            raise RuntimeError(f"{case.name}: no exit within {OP_TIMEOUT_S} s")
        outcomes.record(case, code, (scratch / "op.out").read_bytes())
    cpu1, _ = children_usage()

    tracer = spans.Tracer()
    plain, traced = [], []
    op_cases = []  # case name of each traced op id
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for case in cases:
            # alternate which side goes first, so warm caches favour neither
            for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.op += 1
                    op_cases.append(case.name)
                    with tracer.installed():
                        wall, code, stdout = call_in_process(artikit.cli.main, case, tracer)
                    traced.append(wall)
                else:
                    wall, code, stdout = call_in_process(artikit.cli.main, case)
                    plain.append(wall)
                outcomes.record(case, code, stdout)
        passes += 1

    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, incl, own = totals[name]
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.s"] = (incl / n, "s")
        metrics[f"{name}.self_s"] = (own / n, "s")
    for name, (key, unit, _count) in spans.COUNTERS.items():
        metrics[f"{name}.{key}"] = (tracer.counts[f"{name}.{key}"] / n, unit)
    lsa = totals["assignment.linear_sum_assignment"][0]
    matches = totals["assignment.hungarian"][0]
    metrics["assignment.lsa_solves"] = (lsa / n, "count")
    metrics["assignment.lsa_per_match"] = (lsa / matches if matches else 0.0, "solves/call")
    metrics["cli.cpu_s"] = ((cpu1 - cpu0) / len(cases), "s")
    self_sum = sum(own for _, _, own in totals.values())
    metrics["trace.op_s"] = (sum(traced) / n, "s")
    metrics["trace.untraced_op_s"] = (sum(plain) / len(plain), "s")
    metrics["trace.overhead_s"] = ((sum(traced) - sum(plain)) / n, "s")
    metrics["trace.accounted_frac"] = (self_sum / sum(traced), "frac")

    by_case = {}
    for case in cases:
        ops = {op for op, name in enumerate(op_cases) if name == case.name}
        by_case[case.name] = {
            name: [round(value / len(ops), 6) for value in entry]
            for name, entry in tracer.layer_totals(ops).items() if entry[0]
        }

    spans_path = WORK / "results" / f"{scratch.name}.spans.jsonl"
    tracer.write(spans_path)
    return {"passes": passes, "traced_ops": n, "metrics": metrics,
            "layers_by_case": by_case, "spans_file": str(spans_path.relative_to(ROOT))}


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Generate, set up, measure and check one workload; returns (report, result)."""
    scratch = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        start = time.perf_counter()
        cases = fixtures.build(workload, seed, scratch / "fixtures")
        gen_s = time.perf_counter() - start
        fixture_files = sorted(p for p in (scratch / "fixtures").rglob("*") if p.is_file())
        fixtures_sha256 = digest_files(fixture_files)

        env = child_env()
        setup = measure_setup(env, scratch, 0 if trace else SETUP_REPS)
        outcomes = Outcomes()
        run = (run_traced if trace else run_untraced)(cases, seconds, env, scratch, outcomes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = run.pop("metrics")
    if not trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
    fail_frac = outcomes.failed / outcomes.attempted
    report = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(seed),
        "cases": [case.name for case in cases],
        "fixture_gen_s": gen_s,
        "fixtures_sha256": fixtures_sha256,
        "setup_samples_s": setup,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems,
        "case_sha256": outcomes.reference,
        "output_sha256": outcomes.workload_digest(cases),
        **run,
        "metrics": {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()}
        | {"fail_frac": f"{fail_frac:.6g} share"},
    }
    (WORK / "results" / f"{scratch.name}.json").write_text(json.dumps(report, indent=1) + "\n")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a process of its own, as a harness would, then
    print a table of every metric per workload and one combined result whose
    metric names carry the workload as a prefix."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(done.stdout)
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    for workload, result in results.items():
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("fail_frac", result["failed"] / result["attempted"], "share"))
        for name, value, unit in rows:
            print(f"{workload:9s} {name:52s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "artikit" / "cli.py").is_file():
        print(f"error: no artikit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""geodesica census benchmark.

    python3 perfbench/run.py --workload census-full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0 --save out.json

Every workload writes a census file from ``--seed`` (the 28 bundled rows in
a seeded order) and runs the real CLI, ``python3 -m geodesica.cli report``,
from ``src/`` of this checkout in fresh processes:

* ``--trace 0`` times the cold command end to end: ``wall_s`` and ``cpu_s``
  (user + system time of the process tree, from the children's rusage) are
  medians over the runs made in ``--seconds`` (at least two); ``setup_s`` is
  the median of the same command with ``--checks ""``, run before each of
  them (at least three times); ``peak_rss_mb`` is the largest max-RSS of any
  process the benchmark started.
* ``--trace 1`` runs the command once untraced, once under ``tracer.py``
  (spans around the public functions of every layer) and once per knot
  through ``perknot.py``, and reports the per-layer metrics that
  ``BENCHMARK.json`` lists.

Every report goes through ``gate.py``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit status is nonzero when the gate fails.  ``fail_frac`` (failed knots
over attempted knots) is printed above it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
CENSUS = SRC / "geodesica" / "data" / "census.json"
SPEC = ROOT / "BENCHMARK.json"

ALL_CHECKS = "euler,slopes,uniqueness,pretzel,render"
# workload -> (--checks, --workers); the reasons are in BENCHMARK.json
WORKLOADS = {
    "census-full": (ALL_CHECKS, 1),
    "census-exact": ("slopes,uniqueness,pretzel,render", 1),
    "census-pool2": (ALL_CHECKS, 2),
}
MIN_SETUP_RUNS = 3
# one invocation must end within 180 s; leave room for the last report
TIME_LIMIT_S = 170.0


class GateFailure(Exception):
    """A child process failed, so every knot counts as failed."""


def census_bytes(seed: int) -> bytes:
    """The bundled census with its rows in a seeded order."""
    data = json.loads(CENSUS.read_text())
    random.Random(seed).shuffle(data["knots"])
    return (json.dumps(data, indent=1, sort_keys=True) + "\n").encode()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEODESICA_PRECISION_CAP", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def fingerprint() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Runs children one at a time, each in its own process group, against
    one deadline; records wall time and the rusage of each process tree."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def __call__(self, cmd: list[str]) -> tuple[float, float]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise GateFailure(f"time limit reached before {' '.join(cmd[1:4])}")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except BaseException:
            # pool workers share the group: stop them with their parent
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise GateFailure(
                f"{' '.join(cmd[1:4])} exited {proc.returncode}: {err.decode()[-2000:]}"
            )
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return wall, cpu


def report_cmd(census: Path, checks: str, workers: int, out: Path) -> list[str]:
    return [sys.executable, "-m", "geodesica.cli", "report", "--census", str(census),
            "--checks", checks, "--workers", str(workers), "--json", str(out)]


def _same_reports(first: bytes, others, failures: dict) -> None:
    """Same seed, same bytes: knots whose entries differ fail; a difference
    outside the entries fails every knot."""
    for other in others:
        if other == first:
            continue
        try:
            a, b = gate.entries_by_name(first), gate.entries_by_name(other)
            differing = [k for k in failures if a.get(k) != b.get(k)] or list(failures)
        except (ValueError, KeyError, TypeError):
            differing = list(failures)
        for k in differing:
            failures[k].append("report bytes differ between runs of one seed")


def serial_report_path(census: Path, checks: str) -> Path:
    """Where the serial report of this census, these checks and this source
    tree is kept, so a pool run can compare against the census-full run of
    the same seed instead of recomputing it."""
    h = hashlib.sha256(census.read_bytes() + checks.encode())
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + p.read_bytes())
    return WORK / "serial" / f"{h.hexdigest()}.json"


def measure_e2e(workload: str, runner: Runner, work: Path, census: Path, rows, seconds: float):
    checks, workers = WORKLOADS[workload]
    serial = serial_report_path(census, checks)
    reference = None
    if workers > 1:
        if not serial.is_file():
            runner(report_cmd(census, checks, 1, work / "serial.json"))
            serial.parent.mkdir(exist_ok=True)
            shutil.copy(work / "serial.json", serial)
        reference = gate.entries_by_name(serial.read_bytes())

    # setup and workload runs alternate, so both sample the same host load
    setup_cmd = report_cmd(census, "", workers, work / "setup.json")
    setup, walls, cpus, reports = [], [], [], []
    t0 = time.monotonic()
    while len(walls) < 2 or time.monotonic() - t0 < seconds:
        if walls and runner.deadline - time.monotonic() < 2 * (max(walls) + max(setup)):
            break
        setup.append(runner(setup_cmd)[0])
        out = work / f"report-{len(walls)}.json"
        wall, cpu = runner(report_cmd(census, checks, workers, out))
        walls.append(wall)
        cpus.append(cpu)
        reports.append(out.read_bytes())
    while len(setup) < MIN_SETUP_RUNS:
        setup.append(runner(setup_cmd)[0])

    failures = gate.check_report(reports[0], rows, checks.split(","), reference)
    _same_reports(reports[0], reports[1:], failures)
    if workers == 1 and not any(failures.values()):
        serial.parent.mkdir(exist_ok=True)
        serial.write_bytes(reports[0])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    return metrics, samples, failures


def measure_traced(workload: str, runner: Runner, work: Path, census: Path, rows):
    checks, workers = WORKLOADS[workload]
    untraced_wall, _ = runner(report_cmd(census, checks, workers, work / "untraced.json"))
    spans = work / "spans"
    spans.mkdir()
    traced_cmd = report_cmd(census, checks, workers, work / "traced.json")
    traced_cmd[1:3] = [str(BENCH / "tracer.py"), "--src", str(SRC), "--spans", str(spans)]
    traced_wall, _ = runner(traced_cmd)
    runner([sys.executable, str(BENCH / "perknot.py"), "--src", str(SRC), "--census",
            str(census), "--checks", checks, "--out", str(work / "perknot.json")])

    per_knot = json.loads((work / "perknot.json").read_text())
    report = (work / "untraced.json").read_bytes()
    failures = gate.check_report(report, rows, checks.split(","), per_knot["entries"])
    _same_reports(report, [(work / "traced.json").read_bytes()], failures)

    dumps = [json.loads(p.read_text()) for p in sorted(spans.glob("spans-*.json"))]
    # a traced function nobody called reads 0, not missing
    flat = {f"{name}.{key}": 0 for name, _, _ in tracer.TRACED
            for key in ("calls", "failed", "total_s", "self_s")}
    for name, row in tracer.aggregate(dumps).items():
        for key, value in row.items():
            flat[f"{name}.{key}"] = value
    ladder = tracer.ladder_counts(dumps)
    flat.update({f"eulerclass.{k}": v for k, v in ladder.items()})
    flat["eulerclass.rung_yield"] = (
        ladder["real_places"] / ladder["ladder_rungs"] if ladder["ladder_rungs"] else 0.0
    )
    flat["pipeline.load_census.s"] = flat["pipeline.load_census.total_s"]
    knots = {r["name"] for r in rows if not gate.is_stub(r)}
    knot_s = [s for name, s in per_knot["seconds"].items() if name in knots]
    flat["pipeline.knot_s.p50"] = statistics.median(knot_s)
    flat["pipeline.knot_s.max"] = max(knot_s)
    flat["pipeline.knot_s.sum"] = sum(knot_s)
    flat["trace.wall_s"] = traced_wall
    flat["trace.untraced_wall_s"] = untraced_wall
    flat["trace.overhead_s"] = traced_wall - untraced_wall
    return flat, {}, failures


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    census = work / "census.json"
    census.write_bytes(census_bytes(seed))
    rows = json.loads(census.read_text())["knots"]
    knots = [r["name"] for r in rows if not gate.is_stub(r)]
    runner = Runner(time.monotonic() + TIME_LIMIT_S)
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        if trace:
            values, samples, failures = measure_traced(workload, runner, work, census, rows)
        else:
            values, samples, failures = measure_e2e(workload, runner, work, census, rows, seconds)
    except (GateFailure, subprocess.TimeoutExpired) as exc:
        values, samples = {}, {}
        failures = {k: [str(exc)] for k in knots}
    failed = sorted(k for k, why in failures.items() if why)
    metrics = {}
    if values:
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: BENCHMARK.json names metrics with no source: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "fingerprint": fingerprint(),
        "correct": not failed,
        "attempted": len(knots),
        "failed": len(failed),
        "failures": {k: failures[k] for k in failed},
        "metrics": metrics,
        "samples": samples,
        "all_values": values,
    }


def print_result(res: dict) -> None:
    fp = res["fingerprint"]
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    print(f"fingerprint python {fp['python']}, mpmath {fp['mpmath']} "
          f"(backend {fp['mpmath_backend']}), nproc {fp['nproc']}")
    for name, m in res["metrics"].items():
        extra = ""
        if name in res["samples"]:
            extra = "  median of " + ", ".join(f"{v:.3f}" for v in res["samples"][name])
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{extra}")
    if res["trace"]:
        print("  all traced functions (calls, failed, total_s, self_s):")
        for key in sorted(res["all_values"]):
            if key.endswith(".calls"):
                base = key[: -len(".calls")]
                v = res["all_values"]
                print(f"    {base:40s} {v[key]:>8d} {v[base + '.failed']:>4d} "
                      f"{v[base + '.total_s']:>9.4f} {v[base + '.self_s']:>9.4f}")
    print(f"  {'fail_frac':44s} {res['failed'] / res['attempted']:>14.6g} "
          f"({res['failed']} of {res['attempted']} knots failed)")
    for name, why in res["failures"].items():
        print(f"  FAILED {name}: {'; '.join(why)}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="geodesica census benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the full result set as JSON here")
    args = ap.parse_args(argv)

    needed = [SRC / "geodesica" / "cli.py", CENSUS, SPEC]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a geodesica checkout, missing {absent}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args)
    else:
        spec = json.loads(SPEC.read_text())
        results = [measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)]
        print_result(results[0])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    # a workload of "all" that ended without a result fails the whole run
    expected = len(WORKLOADS) if args.workload == "all" else 1
    correct = len(results) == expected and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> list[dict]:
    """Every workload, each in its own process so that the rusage maxima
    stay per workload; their printed results pass through."""
    results = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for w in WORKLOADS:
            out = Path(tmp) / f"{w}.json"
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--save", str(out)])
            if out.is_file():
                results += json.loads(out.read_text())
    return results


if __name__ == "__main__":
    sys.exit(main())

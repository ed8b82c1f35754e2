"""One end-to-end benchmark: five workloads, one command.

Driver form (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

runs one phase of one workload and prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics untraced, the per-layer metrics traced.

Report form::

    python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--out FILE]

runs every workload in both phases (each in a child process of its own,
exactly as the driver would) and writes one stamped report.

    python3 benchmarks/e2e/run.py --compare A.json B.json [--force]

diffs two reports against the bounds in ``BENCHMARK.json`` and refuses
when their environment stamps or control numbers disagree.
"""

from __future__ import annotations

import os
import sys
import time

if os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing is randomised per process, and with it every dict
    # and set the program builds: on this box that alone moved the serve
    # throughput by +-10 % between identical runs.  Start over with it
    # fixed; the child server inherits the setting.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

BEGAN = time.perf_counter()  # setup_s counts from here: imports included

import argparse
import json
import math
import platform
import shutil
import sqlite3
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
OUT = HERE / "out"

DEFAULT_SEED = 93259
HELD_OUT_SEED = 4242
SMOKE_SECONDS = 1.0

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_p50_us",
              "second_p50_us", "bytes_per_triple", "reif_storage_ratio")
#: Environment fields two reports must share to be comparable.
STAMP_KEYS = ("nproc", "cpu", "python", "sqlite", "platform", "smoke",
              "seconds", "seed")
CONTROL_TOLERANCE = 0.10


def unit_of(name: str) -> str:
    """The unit a metric name implies (the one ``BENCHMARK.json``
    declares for it; ``test_smoke.py`` holds the two together)."""
    if name == "bytes_per_triple" or name.endswith(".bytes_per_triple") \
            or name.endswith("wal_bytes_per_insert"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_per_s", "_rps")):
        return "1/s"
    for marker, unit in (("_us", "us"), ("_ms", "ms")):
        if name.endswith(marker) or marker + "_per_" in name:
            return unit
    if name.endswith("_s"):
        return "s"
    if name.endswith(("rejected_429", "queue_growth",
                      "pool_invalidations")):
        return "count"
    return "ratio"


def per_layer_names() -> tuple[str, ...]:
    from probes import PROBE_NAMES
    from workloads import SERVER_SIDE, STAGES
    trace = [f"trace.share.{stage}" for stage in STAGES] + [
        "trace.residual_share", "trace.overhead_share",
        "trace.untraced_p50_us", "trace.untraced_p90_us",
        "trace.primary_compile_share", "trace.plan_cache_hit_ratio"] + [
        f"trace.{key}" for key in SERVER_SIDE]
    return tuple(trace) + PROBE_NAMES


# ----------------------------------------------------------------------
# one phase of one workload
# ----------------------------------------------------------------------

def run_phase(args: argparse.Namespace) -> int:
    from dataset import FULL_TRIPLES, SMOKE_TRIPLES, Dataset
    from probes import Probes
    from workloads import WORKLOADS, Run

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        triples = SMOKE_TRIPLES if args.smoke else FULL_TRIPLES
        dataset = Dataset(args.seed, triples, str(tmp / "data.nt"))
        run = Run(dataset, str(tmp), str(OUT), args.seconds,
                  bool(args.trace), BEGAN)
        outcome = WORKLOADS[args.workload](run)
        if args.trace:
            probes = Probes(run, outcome.db_path)
            outcome.metrics.update(probes.run_all())
            outcome.detail["skipped_layers"] = probes.skipped
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    names = per_layer_names() if args.trace else END_TO_END
    missing = [name for name in names if name not in outcome.metrics
               or not math.isfinite(outcome.metrics[name])]
    if missing:
        raise RuntimeError(f"metrics missing or not finite: {missing}")
    for warning in outcome.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name],
                           "unit": unit_of(name)} for name in names},
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(
            {"detail": outcome.detail, "warnings": outcome.warnings}),
            encoding="utf-8")
    for name in names:
        print(f"{args.workload:13s} {name:44s} "
              f"{outcome.metrics[name]:16.6f} {unit_of(name)}")
    print(f"{args.workload}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the stamped report
# ----------------------------------------------------------------------

def _git(*arguments: str) -> str:
    try:
        return subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment(args: argparse.Namespace) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_commit": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "seed": args.seed, "smoke": bool(args.smoke),
        "seconds": args.seconds,
    }


def run_report(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    report = {"env": environment(args), "workloads": {},
              "schedule_sha256": {}}
    status = 0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for workload in workloads:
        entry = report["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail_path = OUT / f"detail-{os.getpid()}.json"
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--detail", str(detail_path)]
            if args.smoke:
                command.append("--smoke")
            began = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{workload} trace={trace}: no result "
                      f"(exit {done.returncode})", file=sys.stderr)
                return 1
            sidecar = json.loads(detail_path.read_text(encoding="utf-8"))
            detail_path.unlink()
            status |= done.returncode
            entry[key] = {name: metric["value"]
                          for name, metric in result["metrics"].items()}
            entry[key + "_ops"] = {"attempted": result["attempted"],
                                   "failed": result["failed"],
                                   "wall_s": time.perf_counter() - began,
                                   **sidecar}
            report["schedule_sha256"][workload] = \
                sidecar["detail"]["schedule_sha256"]
            print(f"== {workload} ({key}) attempted "
                  f"{result['attempted']} failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:44s} {metric['value']:16.6f} "
                      f"{metric['unit']}")
    # Each traced run measured the controls; the median rides out a
    # noisy moment in one of them.
    report["control"] = {
        name: statistics.median(
            entry["per_layer"][name] for entry in report["workloads"].values())
        for name in ("control.sqlite_pk_us", "control.pyloop_ms")}
    out = Path(args.out) if args.out else \
        OUT / f"report-{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True),
                   encoding="utf-8")
    print(f"report written to {out}")
    return status


# ----------------------------------------------------------------------
# comparing two reports
# ----------------------------------------------------------------------

def compare(args: argparse.Namespace) -> int:
    first, second = (json.loads(Path(path).read_text(encoding="utf-8"))
                     for path in args.compare)
    declared = {metric["name"]: metric for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    problems = [f"{key}: {first['env'][key]!r} vs {second['env'][key]!r}"
                for key in STAMP_KEYS
                if first["env"][key] != second["env"][key]]
    for name, value in first["control"].items():
        other = second["control"][name]
        if abs(other - value) > CONTROL_TOLERANCE * value:
            problems.append(f"{name}: {value:.3f} vs {other:.3f} differ "
                            f"by more than {CONTROL_TOLERANCE:.0%}")
    if first["schedule_sha256"] != second["schedule_sha256"]:
        problems.append("schedule_sha256: the generated inputs differ")
    if problems:
        print("the reports are not comparable:")
        for problem in problems:
            print(f"  {problem}")
        if not args.force:
            print("refusing to diff them (use --force)")
            return 2
    worse = 0
    for workload, entry in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for name, value in entry["end_to_end"].items():
            after = other["end_to_end"][name]
            metric = declared[name]
            change = (after - value) / value
            regress = -change if metric["better"] == "higher" else change
            verdict = "WORSE" if regress > metric["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:13s} {name:20s} {value:14.4f} -> "
                  f"{after:14.4f} {change:+8.2%} (bound "
                  f"{metric['bound']:.2f}) {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"default {DEFAULT_SEED}; the held-out seed "
                        f"is {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="3 000 triples and 1 s phases")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="report file (default: out/)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.seconds is None:
        benchmark = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(benchmark["run_seconds"])
    if args.trace is None:
        return run_report(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_phase(args)


if __name__ == "__main__":
    sys.exit(main())

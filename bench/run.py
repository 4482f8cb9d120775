"""sdmcap benchmark: one workload per call, checked, with named metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads, metrics and bounds are listed in BENCHMARK.json at the root of
the checkout; bench/README.md maps each per-layer metric to the end-to-end
metric and workload it should move.  The package is imported from the
checkout's ``src/``; without it the benchmark exits with code 2.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median wall
time of nine fresh interpreters that import sdmcap and run the workload's
warm-up; the rest come from one fresh worker process measuring untraced.
``--trace 1`` prints the per-layer metrics of a separate traced worker.
Human-readable lines come first: each metric with its unit, then ``extra``
lines (raw wall-clock figures, the probe time, the failure ratio), the
check tallies and the provenance.  The last stdout line is the JSON result.
A record with provenance and check tallies (and the spans, when traced) is
written to bench/out/.

This file uses only the standard library, so the environment it sets (BLAS
threads, cache directory, import path) is in place before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_REPEATS = 9
DEADLINE_S = 170.0  # the whole invocation ends within 180 s

# ungated values printed after the metrics: raw wall-clock figures beside
# their probe-scaled metrics, the probe time itself, and the failure ratio
EXTRA_UNITS = {"work_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p95": "ms",
               "ref_ms": "ms", "calls": "count", "fail_ratio": "ratio"}

# one BLAS thread: the oracle's matrices are at most 100 x 100 and a run is
# one closed-loop client, so BLAS threading would only add noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost on every run
    env["SDMCAP_CACHE_DIR"] = str(cache_dir)
    return env


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sdmcap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def _run_child(cmd, env, deadline: float, capture: bool = False):
    """Run a child to completion; (wall seconds, stdout text).

    The wait blocks in ``waitpid`` (``subprocess.run``'s timeout polls in
    50 ms steps, which would quantize ``setup_s``); a watchdog kills the
    child at ``deadline`` (a ``time.monotonic()`` value)."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, text=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    watchdog = threading.Timer(left, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if time.monotonic() >= deadline:
        raise subprocess.TimeoutExpired(cmd, left)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return wall, out


def _setup_s(args, scratch: Path, deadline: float) -> float:
    """Median wall time of fresh interpreters doing import + warm-up."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = [_run_child(cmd, _env(scratch / f"setup{i}"), deadline)[0]
             for i in range(1 if args.smoke else SETUP_REPEATS)]
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness itself")
    args = parser.parse_args(argv)

    if not (SRC / "sdmcap" / "__init__.py").is_file():
        sys.stderr.write(f"no sdmcap sources under {SRC}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {names}\n")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    try:
        setup_s = None if args.trace else _setup_s(args, scratch, deadline)
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.trace:
            cmd += ["--spans-out", str(OUT / f"{tag}.spans.json")]
        _, stdout = _run_child(cmd, _env(scratch / "run"), deadline, capture=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark worker failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = json.loads(stdout.strip().splitlines()[-1])
    measured = record["metrics"]
    if setup_s is not None:
        measured["setup_s"] = setup_s

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.stderr.write(f"worker did not report {missing}\n")
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = record["attempted"], record["failed"]
    checks_ok = all(f == 0 for _, f in record["checks"].values())
    result = {"correct": failed == 0 and checks_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record["provenance"].update(git_commit=_git_commit(), source_sha256=_source_digest(),
                                workload=args.workload, seconds=args.seconds,
                                trace=args.trace, smoke=args.smoke)
    record["result"] = result
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    extra = {k: v for k, v in measured.items() if k not in metrics}
    extra["fail_ratio"] = failed / attempted
    for name, value in extra.items():
        print(f"extra {name} {value:.6g} {EXTRA_UNITS[name]}")
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

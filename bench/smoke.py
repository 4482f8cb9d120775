"""Smoke test of the benchmark harness at tiny sizes.

    python3 bench/smoke.py

For every workload and both trace modes it runs ``run.py --smoke`` and
asserts that the result line has the contract's keys, that every metric of
BENCHMARK.json is printed with its unit, that every declared check ran and
passed, and that traced counts repeat exactly for a seed.  It also checks
that a directory holding only BENCHMARK.json and ``bench/`` makes the
benchmark exit non-zero without a result.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_COUNTS = ("mc.calibration_evals", "mc.trials_simulated", "mc.qr_matrices",
                "mc.eig_matrices", "numerics.integrand_evals",
                "numerics.root_scan_evals", "numerics.bisect_evals",
                "fitting.provider_calls")


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=180)


def _check_run(spec, workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"{m['name']} not printed"
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
    for name, (ran, failed) in checks.items():
        assert ran > 0 and failed == 0, f"{workload} check {name}: ran {ran}, failed {failed}"
    return result["metrics"]


def _check_bare_directory(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp / "bench")
    try:
        proc = _run(tmp, "analytic_grid", 0)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert '"correct"' not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        _check_run(spec, workload, 0)
        first = _check_run(spec, workload, 1)
        again = _check_run(spec, workload, 1)
        for name in EXACT_COUNTS:
            assert first[name] == again[name], f"{workload} {name}: {first[name]} != {again[name]}"
        print(f"ok {workload}", flush=True)
    _check_bare_directory(BENCH / "out" / "bare")
    print("ok bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())

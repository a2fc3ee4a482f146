"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at smoke size (an 11-step grid, two injection points per
feeder, a 3-step frontier, one policy_mix feeder), untraced and traced, and
checks that every metric is printed with its unit, that the correctness
checks ran and passed, that the last line is the result object, and that
the benchmark refuses to run without the fairhc source.  Takes about a
minute on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from spans import PER_LAYER  # noqa: E402

WORKLOAD_METRICS = {
    "policy_mix": [("solve_s.utilitarian", "s"), ("solve_s.bargaining", "s")],
    "feeder_scale": [("op_p90_s", "s"), ("pf_ms.bus31", "ms"), ("pf_ms.bus101", "ms"),
                     ("pf_ms.bus201", "ms"), ("adjoint_ms.bus201", "ms")],
    "oracle_grid": [("grid_pts_per_s", "points/s")],
    "frontier_cli": [],
}
CHECKS = {
    "policy_mix": {"allocation_feasible", "policy_order"},
    "feeder_scale": {"allocation_feasible", "pf_mismatch", "adjoint_vs_central_difference"},
    "oracle_grid": {"allocation_feasible", "policy_order"},
    "frontier_cli": {"frontier_csv_rows", "frontier_knee", "policy_order"},
}


def run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd, timeout=300,
                          capture_output=True, text=True)


def check_run(problems: list[str], workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seconds", "1", "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        problems.append(f"{where}: result {lines[-1][:200]}")
    printed = {tuple(ln.split()[1::2]) for ln in lines if ln.startswith("metric ")}
    expected = list(PER_LAYER) if trace else [*END_TO_END, ("fail_ratio", "1"),
                                             *WORKLOAD_METRICS[workload]]
    for name, unit in expected:
        if (name, unit) not in printed:
            problems.append(f"{where}: metric {name} [{unit}] not printed")
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if reported != dict(PER_LAYER if trace else END_TO_END):
        problems.append(f"{where}: result metrics {sorted(reported)}")
    ran = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("check ")}
    if not CHECKS[workload] <= ran:
        problems.append(f"{where}: checks {sorted(CHECKS[workload] - ran)} did not run")


def check_benchmark_json(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if declared != set(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {sorted(declared)} != {END_TO_END}")
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    if declared != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(CHECKS):
        problems.append("BENCHMARK.json workloads differ from the harness")


def check_refuses_without_source(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "oracle_grid", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the source: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")


def main() -> int:
    problems: list[str] = []
    check_benchmark_json(problems)
    check_refuses_without_source(problems)
    for workload in CHECKS:
        for trace in (0, 1):
            check_run(problems, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

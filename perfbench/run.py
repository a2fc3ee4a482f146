"""fairhc benchmark: one caller, closed loop, no pools.

    python3 perfbench/run.py --workload policy_mix --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports fairhc from its ``src``.
For ``--seconds`` it repeats passes of the workload's fixed work list, checks
every answer, and prints each metric by name and unit, each correctness check
with its result, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the calls into each fairhc layer and
reports the per-layer metrics instead.  ``--workload all`` runs every workload
in a process of its own.  ``--smoke`` shrinks every workload to a few seconds.
"""
from __future__ import annotations

import os

# One BLAS thread in this process and its children: OpenBLAS is threaded and
# would otherwise spread the large dense solves over every core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups per run; setup_s is their median
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("hc_kw", "kW"),
              ("peak_rss_mb", "MB"))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fairhc.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"env python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas!r} nproc={os.cpu_count()} cpu={cpu!r} "
            f"blas_threads={blas_threads()}")


def blas_threads() -> str:
    """Threads each loaded OpenBLAS reports, or the requested count if none can be asked."""
    counts = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    counts.append(str(getattr(lib, sym)()))
                    break
    except OSError:
        pass
    return ",".join(counts) or f"{BLAS_THREADS} (requested)"


def import_seconds(env: dict) -> float:
    """Time a fresh interpreter takes to import fairhc.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, timeout=60,
                         check=True, capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(runner, body, end: float) -> list[dict]:
    """Passes until ``end``, at least one complete; the ones that completed."""
    first = len(runner.passes)
    while True:
        runner.deadline = end if len(runner.passes) > first else math.inf
        runner.run_pass(body)
        if time.perf_counter() >= end and (len(runner.passes) > first or runner.errors):
            return runner.passes[first:]


def run_one(args) -> int:
    from spans import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, Runner, api, child_env, median

    print(environment())
    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, bool(args.trace), work)
        runner = Runner(wl.name, pins=args.seed == 0 and not args.smoke, tracer=tracer)
        if tracer:
            tracer.install(api)
        setups, imports = [], []
        for _ in range(1 if args.smoke else SETUP_REPS):
            imports.append(import_seconds(child_env()))
            t0 = time.perf_counter()
            if tracer:
                tracer.phase = "setup"
            inputs = wl.prepare()
            if tracer:
                tracer.phase = "warm-up"
            wl.warm_up(inputs)
            setups.append(imports[-1] + time.perf_counter() - t0)

        def body(r):
            wl.run_pass(r, inputs)

        end = time.perf_counter() + args.seconds
        untraced = None
        if tracer:
            # one untraced pass to compare the traced ones against
            tracer.uninstall()
            if runner.run_pass(body):
                untraced = runner.passes[-1]
            tracer.install(api)
        passes = measure(runner, body, end)
        if tracer:
            tracer.uninstall()
            tracer.dump(work.parent / f"trace-{wl.name}-{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [sum(s for _, s in p["ops"]) for p in passes]
    ops = [s for p in passes for _, s in p["ops"]]
    if tracer:
        base = untraced or {"ops": []}
        solve_op_s = sum(s for kind, s in base["ops"]
                         if kind.startswith(("solve.utilitarian.", "solve.bargaining.")))
        overhead = median(walls) - sum(s for _, s in base["ops"]) if untraced else 0.0
        values = layer_metrics(tracer, len(setups), {p["index"] for p in passes},
                               median(imports), overhead, solve_op_s)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        values = {"setup_s": median(setups), "wall_s": median(walls), "op_p50_s": median(ops),
                  "hc_kw": median([p["hc"] for p in passes]), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        for name, value, unit in wl.extra(passes):
            metrics[name] = (value, unit)
        metrics["fail_ratio"] = (len(runner.failed_ops) / max(1, runner.attempted), "1")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(passes)} complete "
          f"passes, {runner.attempted} ops attempted, {len(runner.failed_ops)} failed")
    for key, hc in (passes[0]["answers"].items() if passes else ()):
        print(f"answer {key} {hc:.6f} kW")
    for name, (passed, failed, detail) in sorted(runner.checks.items()):
        verdict = f"FAIL ({failed} of {passed + failed}): {detail}" if failed else f"pass ({passed})"
        print(f"check {name}: {verdict}")
    for error in runner.errors[:5]:
        print(f"error {error}")
    if tracer and tracer.absent:
        print("absent " + " ".join(sorted(tracer.absent)))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    correct = bool(passes) and not runner.errors and not any(c[1] for c in runner.checks.values())
    reported = [name for name, _ in (PER_LAYER if tracer else END_TO_END)]
    result = {"correct": correct, "attempted": max(1, runner.attempted),
              "failed": len(runner.failed_ops),
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in reported} if passes else {}}
    print(json.dumps(result))
    return 0 if passes else 1


def run_all(args) -> int:
    """Each workload in a process of its own, so peak_rss_mb is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, timeout=900, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fairhc" / "__init__.py").is_file():
        print(f"error: no fairhc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""acflow benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; acflow is imported from ``src/``.
Every measurement runs in a fresh interpreter (``worker.py``), one after
another, with ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS``
pinned to at most the number of usable CPUs.

``--trace 0``: ``setup_s`` is the median over SETUP_REPEATS fresh processes
of interpreter start + ``import acflow`` + config build.  Then a fixed number
of whole passes of the workload run: ``--seconds`` over the nominal pass
time (PASS_SECONDS, a pass's time when the benchmark was defined), rounded,
at least one.  The count depends on ``--seconds`` only,
never on how fast the program is.  ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` are the medians over the passes.

``--trace 1``: one untraced pass, one traced pass (spans from ``tracing.py``)
and the fixed-size probes of ``probes.py``.  The traced pass must reproduce
the untraced check values bit for bit; ``trace.overhead_s`` is the
difference of their wall times.  Metric names and units come from
``BENCHMARK.json``.

Every pass's checks must hold.  The line before the result is a
``diagnostics`` object: environment, ``runs_failed``, every check value and
``check_drift``, the largest relative change of a check value against
``reference.json`` (absolute change where the reference value is 0).  The
last line is the result: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 21
# Nominal seconds per untraced pass of either workload on 2 CPUs; fixes the
# pass count of a run.
PASS_SECONDS = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; workers still running 10 s before that are stopped.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(n, nproc))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = worker_env()
        self._count = 0

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run ``worker.py args``; return its result and its start time."""
        self._count += 1
        result_path = self.workdir / f"result-{self._count}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--result", str(result_path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed(f"no time left for {' '.join(args)}")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{' '.join(args)} timed out after {timeout:.0f} s") from None
        if not result_path.exists():
            raise WorkerFailed(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "error" in result:
            raise WorkerFailed(result["error"])
        return result, started

    def workload_pass(self, workload: str, seed: int, trace: bool) -> dict:
        passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        args = ["pass", "--workload", workload, "--seed", str(seed), "--workdir", str(passdir)]
        try:
            return self.worker(*args, *(["--trace"] if trace else []))[0]
        finally:
            shutil.rmtree(passdir, ignore_errors=True)


def check_drift(workload: str, checks: dict) -> float | None:
    """Largest relative change of a check value against reference.json."""
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[workload]
    drift = 0.0
    for name, ref in reference.items():
        if name not in checks:
            return None
        value = checks[name]["value"]
        change = abs(value - ref) / abs(ref) if ref != 0 else abs(value - ref)
        if not math.isfinite(change):
            return None
        drift = max(drift, change)
    return drift


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def timed_run(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[dict, list, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        result, started = runner.worker("setup", "--workload", workload)
        setups.append(result["ready"] - started)
    passes = []
    for _ in range(max(1, round(seconds / PASS_SECONDS))):
        try:
            passes.append(runner.workload_pass(workload, seed, trace=False))
        except WorkerFailed as exc:
            passes.append({"error": str(exc)})
            break
    measured = [p for p in passes if "error" not in p]
    if not measured:
        raise WorkerFailed(passes[-1]["error"])
    values = {
        "wall_s": (statistics.median(p["wall_s"] for p in measured), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in measured), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in measured), "MiB"),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return metrics, passes, {"setup_s_samples": setups}


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list, dict]:
    plain = runner.workload_pass(workload, seed, trace=False)
    traced = runner.workload_pass(workload, seed, trace=True)
    probes = runner.worker("probes", "--workdir", str(runner.workdir))[0]["probes"]
    transparent = ({k: c["value"] for k, c in plain["checks"].items()}
                   == {k: c["value"] for k, c in traced["checks"].items()})
    if not transparent:
        traced["checks"]["trace_transparent"] = {"value": 1.0, "passed": False}
    values = {**traced["layers"], **probes,
              "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer}
    return metrics, [plain, traced], {"trace_transparent": transparent}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="acflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed through to the scenario config")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "acflow" / "__init__.py").is_file():
        print(f"acflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        runner = Runner(workdir, deadline)
        if args.trace:
            metrics, passes, extra = traced_run(runner, args.workload, args.seed)
        else:
            metrics, passes, extra = timed_run(runner, args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum("error" in p or not all(c["passed"] for c in p["checks"].values())
                 for p in passes)
    drifts = [check_drift(args.workload, p["checks"]) for p in passes if "error" not in p]
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "env": next((p["env"] for p in passes if "env" in p), None),
        "git_sha": git_sha(),
        "threads": {var: runner.env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "runs_failed": failed,
        "check_drift": None if None in drifts else max(drifts),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "checks", "error") if k in p}
                   for p in passes],
        **extra,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

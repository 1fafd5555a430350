"""One benchmark process: a set-up, one workload pass, or the layer probes.

``run.py`` starts a fresh interpreter with this file for every measurement
and reads the JSON it writes to ``--result``:

    worker.py setup  --workload W --result R   # import acflow, build config
    worker.py pass   --workload W --seed S --workdir D --result R [--trace]
    worker.py probes --workdir D --result R

Only the standard library is imported before the measured region starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(args) -> dict:
    from workloads import WORKLOADS

    WORKLOADS[args.workload].setup()
    return {"ready": time.monotonic()}


def _pass(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    config = workload.setup()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    checks = workload.run(config, Path(args.workdir), args.seed)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "checks": checks,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    result["env"] = _environment()
    return result


def _probes(args) -> dict:
    from probes import run_probes

    return {"probes": run_probes(Path(args.workdir))}


def _environment() -> dict:
    import importlib.util
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "pocketfft (numpy.fft)" if pocketfft else f"numpy.fft ({np.fft.fftn.__module__})",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


COMMANDS = {"setup": _setup, "pass": _pass, "probes": _probes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
        code = 0
    except Exception:  # reported to run.py, which counts the pass as failed
        result = {"error": traceback.format_exc()}
        code = 1
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())

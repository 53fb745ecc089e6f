"""evocell benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload policy_train --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same inputs
untraced and traced and prints the per-layer metrics. Both print the
workload's own figures, the environment, op counts and the trajectory
digest first, and write their records under `.perfbench/` in the checkout.
The package is imported from the checkout's `src/`; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS is pinned to one thread for this process before numpy loads: the
# policy's matrices are small (H = 100) and extra threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _import_evocell() -> str:
    """Import evocell from this checkout; returns an error or ''."""
    sys.path.insert(0, str(SRC))
    try:
        import evocell
    except ImportError as exc:
        return f"cannot import evocell from {SRC}: {exc}"
    where = Path(evocell.__file__).resolve()
    if SRC.resolve() not in where.parents:
        return f"evocell imported from {where}, not from {SRC}"
    return ""


def _blas_threads() -> int:
    """Thread count numpy's bundled OpenBLAS reports, else the pinned value."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpus": os.cpu_count(),
        "workload_seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _import_evocell()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


def bench(workload, seed: int, seconds: float, trace_flag: int) -> int:
    """Run one workload, print its report and the result line."""
    import shutil

    import spans
    import workloads

    trace = bool(trace_flag)
    out_dir = OUT / f"{workload.name}-seed{seed}-trace{trace_flag}"
    work_dir = OUT / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(workload, seed, seconds, trace, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(seed)
    details = workloads.details(outcome)
    attempted = outcome.untraced.attempted + (outcome.traced.attempted if trace else 0)
    failed = outcome.untraced.failed + (outcome.traced.failed if trace else 0)
    record = {
        "workload": workload.name,
        "trace": trace_flag,
        "environment": env,
        "rounds": outcome.rounds,
        "samples": workloads.sample_counts(outcome),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "trajectory_digest": outcome.digest,
        "wall_s": outcome.wall_s,
        "speed": outcome.speed.summary(),
        "details": {k: _metric(v, workloads.DETAILS[k]) for k, v in details.items()},
    }
    print(f"workload {workload.name}  seed {seed}  trace {trace_flag}  "
          f"rounds {outcome.rounds}  wall {outcome.wall_s:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(record["samples"], sort_keys=True))
    print("speed " + json.dumps(record["speed"], sort_keys=True))
    for name, value in details.items():
        print(f"  {name:<28} {value:>14.6g} {workloads.DETAILS[name]}")

    if trace:
        metrics, table = workloads.per_layer(outcome)
        units = workloads.per_layer_units()
        record["layers"] = table
        spans.write_spans(str(out_dir / "spans.jsonl.gz"), outcome.tracer)
        lines = [f"{'span':<42} {'calls':>9} {'self_ms':>12} {'share':>8}"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            lines.append(f"{name:<42} {row['calls']:>9} {row['self_ms']:>12.3f} "
                         f"{row['share']:>8.4f}")
        (out_dir / "layers.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        for name in workloads.RATIOS:
            print(f"  {name:<34} {metrics[name]:>12.6g} {units[name]}")
    else:
        metrics = workloads.end_to_end(outcome)
        units = workloads.END_TO_END
        for name, value in metrics.items():
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'ops_attempted':<28} {attempted:>14d} count")
    print(f"  {'ops_failed':<28} {failed:>14d} count")
    print(f"  trajectory_digest {outcome.digest}")

    record["metrics"] = {k: _metric(v, units[k]) for k, v in metrics.items()}
    with open(out_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

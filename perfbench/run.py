"""Run one RF-IDraw benchmark workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload words_live --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with span tracing on and prints the per-layer metrics,
writing the spans to ``perfbench/out/``. The metric names and units are
the ones ``BENCHMARK.json`` lists. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported anywhere, so
# forked shard workers inherit the setting too: thread-pool sizing
# alone moved one vote kernel 4.5x between runs of identical code.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "words_live": "rfbench.live",
    "fleet_serve": "rfbench.fleet",
    "figure_sweep": "rfbench.sweep",
}


def fingerprint() -> dict:
    """What a result depends on besides the code."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def expected_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    trace = bool(args.trace)
    expected = expected_metrics(trace)

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, trace)

    metrics = {}
    for spec in expected:
        name, unit = spec["name"], spec["unit"]
        if name in outcome.metrics:
            value, measured_unit, samples = outcome.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name}: measured in {measured_unit}, declared {unit}")
        elif trace:
            # The workload does not call this layer.
            value, samples = 0.0, 0
        else:
            outcome.check(f"{name} measured", False, "missing end-to-end metric")
            continue
        metrics[name] = {"value": value, "unit": unit}
        shown = "" if samples is None else f"  (n={samples})"
        print(f"{args.workload} {name} = {value:.6g} {unit}{shown}")
    for key, value in outcome.info.items():
        print(f"info {key}: {value}")
    for check in outcome.checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    if outcome.recorder is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.recorder.write(path)
        print(f"spans: {len(outcome.recorder)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

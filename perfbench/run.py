"""segnoise benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {pipeline,walk,verify} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (each a value with its
unit). With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half under spans, and the
metrics are the per-layer ones. Lines before it give the workload's own
figures. ``--quick`` runs every workload and check at a tiny size. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# A user's first command: a fresh interpreter imports the CLI and answers
# `segnoise bound` at the worked example.
COLD_START = """\
import sys, time
t0 = time.perf_counter()
import segnoise.cli
t1 = time.perf_counter()
rc = segnoise.cli.main(["bound", "--eps0", "1", "--eps1", "20", "--eps", "2",
                        "--alpha", "0.05", "--image-size", "65536"])
print("import_s", repr(t1 - t0), file=sys.stderr)
sys.exit(rc)
"""

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def layer_unit(name: str) -> str:
    metric = name.rsplit(".", 1)[1]
    if "us_per_" in metric:
        return "us"
    if "ns_per_" in metric:
        return "ns"
    if metric.startswith("bytes_"):
        return "B"
    if metric.endswith("_s"):
        return "s"
    if metric in ("relabelled_fraction", "mc_cpu_util", "mc_scaling"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "walk", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, one set-up, for tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cold_start():
    """Time a fresh interpreter answering `bound`; returns (wall s, import s, problems)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, 0.0, [f"cold start exited {proc.returncode}:\n{proc.stderr}"]
    import_s = float(proc.stderr.split("import_s", 1)[1].split()[0])
    return wall, import_s, refs.check_bound_answer(proc.stdout)


def measure(workload, seconds: float, first_round: int) -> list[list]:
    """Whole rounds until their operations have taken ``seconds``."""
    rounds, spent = [], 0.0
    while spent < seconds or not rounds:
        ops = workload.round(first_round + len(rounds))
        rounds.append(ops)
        spent += sum(op.seconds for op in ops)
    return rounds


def round_seconds(rounds) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in rounds]


def run(args, work: Path) -> dict:
    import workloads  # imports segnoise, so only once src is on sys.path
    from workloads import Op

    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.quick)
    setup, imports, setup_ops = [], [], []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        wall, import_s, problems = cold_start()
        t0 = time.perf_counter()
        wl.prepare()
        setup.append(wall + time.perf_counter() - t0)
        imports.append(import_s)
        setup_ops.append(Op("bound", wall, problems))

    if args.trace:
        plain = measure(wl, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, workloads.cli, workloads.correct, workloads.harness,
                           workloads.model, workloads.noise)
        try:
            traced = measure(wl, args.seconds / 2, len(plain))
        finally:
            tracer.close()
        rounds = plain + traced
    else:
        plain = rounds = measure(wl, args.seconds, 0)
    rounds[0][0].problems += wl.run_checks()

    ops = setup_ops + [op for ops in rounds for op in ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.kind}: " + "; ".join(op.problems), file=sys.stderr)
    for name, (value, unit) in wl.report([op for ops in plain for op in ops]).items():
        print(f"{args.workload} {name} {value!r} {unit}")

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["noise.mc_scaling"] = wl.mc_scaling() if hasattr(wl, "mc_scaling") else 0.0
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead_s"] = (statistics.median(round_seconds(traced))
                                       - statistics.median(round_seconds(plain)))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"{len(tracer.spans)} spans written to {trace_path}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": statistics.median(round_seconds(rounds)),
        }
        units = END_TO_END_UNITS
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "segnoise" / "__init__.py").is_file():
        print(f"error: no segnoise package at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

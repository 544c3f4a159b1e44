"""posetzeta benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {zeta,subdivide,roots,pn} \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (``perfbench/worker.py``), so the sieve and the f/F memos
start cold as they do for a CLI user; passes repeat until about S seconds
have gone, and at least three run.  One client runs the operations in a
closed loop.  Times are CPU seconds normalized by a probe run next to
each operation (see worker.py): on a shared host the wall-clock time of
the same pass swings by 20-60 %.  ``norm_cpu_s`` is the median over
passes of the operation list's time, ``op_p50_ms`` and ``op_tail_ms``
percentiles over the operations, each at its median over passes, and
``setup_s`` the median time to start the interpreter, import posetzeta
and write the inputs.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate,
starting untraced: the end-to-end metrics of the untraced ones are
printed as text, and the per-function metrics of the traced ones are
reported.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the environment and every failed operation.
Results, inputs and spans are kept under ``.perfbench/`` in the
repository.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("zeta", "subdivide", "roots", "pn")
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10  # operations beyond the tail percentile, over MIN_PASSES passes


def environment():
    """What the numbers depend on; results are comparable only within one."""
    try:
        import mpmath
        import mpmath.libmp

        mp_version, backend = mpmath.__version__, mpmath.libmp.BACKEND
    except ImportError:
        mp_version, backend = None, None
    return {
        "python": platform.python_version(),
        "mpmath": mp_version,
        "mpmath_backend": backend,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_pass(args, traced, workdir):
    """One worker process; returns its report with wall-clock timings added."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--workdir", str(workdir),
        "--scale", args.scale,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{err.strip()}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_wall_s"] = report["ready"] - spawned
    report["pass_s"] = time.monotonic() - spawned
    return report


def end_to_end(passes):
    """Metrics a CLI user sees, from untraced passes: {name: (value, unit)}.

    Times are normalized CPU time (see worker.py); the notes keep the raw
    CPU and wall-clock medians.  The percentiles are taken over the
    operations of the list, each at its median over passes, so one slow
    sample cannot move them.  The tail percentile is the highest that
    leaves TAIL_BEYOND operations beyond it in MIN_PASSES passes.
    """
    ops = [op for p in passes for op in p["ops"]]
    per_op = sorted(
        statistics.median(p["ops"][k]["norm_s"] for p in passes)
        for k in range(len(passes[0]["ops"]))
    )
    q = max(1 - TAIL_BEYOND / (len(per_op) * MIN_PASSES), 0)
    tail_s = per_op[max(math.ceil(q * len(per_op)), 1) - 1]
    failed = sum(1 for op in ops if op["error"])
    metrics = {
        "norm_cpu_s": (statistics.median(p["norm_s"] for p in passes), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = {
        "ops": len(ops),
        "op_tail_percentile": round(100 * q, 1),
        "failed_frac": failed / len(ops),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    return metrics, notes, len(ops), failed


def per_layer(traced, untraced):
    """Median over traced passes of each per-function metric."""
    metrics = {
        key: (statistics.median(p["layers"][key][0] for p in traced), unit)
        for key, (_, unit) in traced[0]["layers"].items()
    }
    plain = statistics.median(p["norm_s"] for p in untraced)
    overhead = statistics.median(p["norm_s"] for p in traced) / plain - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetzeta" / "__init__.py").is_file():
        print("error: no src/posetzeta in this checkout", file=sys.stderr)
        return 2
    env = environment()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-t{args.trace}"
    started = time.monotonic()
    passes = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, traced, workdir))
            elapsed = time.monotonic() - started
            mean = statistics.mean(p["pass_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + mean > args.seconds:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    metrics, notes, attempted, failed = end_to_end(untraced)
    metrics["setup_s"] = (
        statistics.median(p["setup_norm_s"] for p in passes), "s"
    )
    notes["setup_wall_s"] = statistics.median(p["setup_wall_s"] for p in passes)
    crashes = [op for p in passes for op in p["ops"]
               if op["error"] and op["error"].startswith(("crash:", "check:"))]
    reasons = Counter((op["label"], op["error"])
                      for p in untraced for op in p["ops"] if op["error"])

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} passes "
          f"{len(untraced)} untraced, {len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops {notes['ops']} (op_tail_ms is p{notes['op_tail_percentile']}), "
          f"failed_frac {notes['failed_frac']:.6g}")
    print(f"not normalized: cpu_s {notes['cpu_s']:.6g} s, wall_s "
          f"{notes['wall_s']:.6g} s, setup_wall_s {notes['setup_wall_s']:.6g} s")
    for (label, reason), count in sorted(reasons.items()):
        print(f"failed {label}: {reason} x{count}")
    if traced:
        metrics = per_layer(traced, untraced)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not crashes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, "passes": passes, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter.

    python3 -m perfbench.worker --workload W --seed S --trace 0|1 --workdir D

Run from the repository root.  The pass imports posetzeta from ``src/``,
generates the workload's inputs into ``D`` (the end of set-up), runs each
operation through ``posetzeta.cli.run(argv, out=buffer)`` in list order,
and checks each output after its timed section.  Times are process CPU
time, which leaves out time stolen by other guests of a shared virtual
machine, normalized by probes run next to each operation, which take out
most of the slowdown other guests cause on the shared core; raw CPU and
wall-clock times are kept alongside.  The pass prints one JSON line: the
times at the end of set-up, per-operation times and failures, peak RSS,
and with ``--trace 1`` the per-function summary (spans are written to
``D/spans.jsonl``).
"""

import argparse
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_SIZE = 2500
# Nominal CPU seconds of one probe: the unit of the normalized times, which
# read as CPU seconds on a core that runs the probe in this time.
PROBE_REF_S = 0.020


def import_program():
    """Import posetzeta from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import posetzeta
    import posetzeta.cli

    if Path(posetzeta.__file__).resolve().parent != src / "posetzeta":
        raise ImportError(f"posetzeta imported from {posetzeta.__file__}")
    return posetzeta


def probe():
    """CPU seconds of a fixed piece of interpreter work.

    On a shared host the CPU time of the same work drifts by tens of
    percent as other guests load the core; a probe run next to an
    operation slows down with it (a correlation of about 0.9, measured
    on a shared 2-vCPU virtual machine).
    """
    start = time.process_time()
    acc = Fraction(0)
    for i in range(1, PROBE_SIZE):
        acc += Fraction(i, i + 1)
    sorted((i * 7919) % 10007 for i in range(7 * PROBE_SIZE))
    return time.process_time() - start


def run_ops(package, ops, tracer=None):
    """Run and check `ops`; returns one dict per operation.

    ``cpu_s`` and ``wall_s`` are the operation's times, and ``norm_s`` is
    its CPU time scaled by PROBE_REF_S over the mean of the probes run
    just before and just after it.  ``error`` is None for a passed
    operation.
    """
    from posetzeta.errors import PosetZetaError

    from .checks import Checker

    checker = Checker()
    results = []
    before = probe()
    for k, op in enumerate(ops):
        buf = io.StringIO()
        if tracer is not None:
            tracer.op = k
            tracer.on = True
        error = None
        wall_start = time.perf_counter()
        start = time.process_time()
        try:
            package.cli.run(list(op.argv), out=buf)
        except PosetZetaError as exc:
            error = type(exc).__name__
        except (Exception, SystemExit) as exc:
            error = f"crash:{type(exc).__name__}"
        cpu = time.process_time() - start
        wall = time.perf_counter() - wall_start
        if tracer is not None:
            tracer.on = False
        after = probe()
        if error is None:
            mismatch = checker.check(op, buf.getvalue())
            if mismatch is not None:
                error = f"check:{mismatch}"
        results.append({
            "label": op.label,
            "norm_s": cpu * 2 * PROBE_REF_S / (before + after),
            "cpu_s": cpu,
            "wall_s": wall,
            "error": error,
        })
        before = after
    return results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)

    package = import_program()
    from .tracing import Tracer
    from .workloads import make_ops

    workdir = Path(args.workdir)
    ops = make_ops(args.workload, args.seed, workdir / "inputs", args.scale)
    ready, setup_cpu = time.monotonic(), time.process_time()
    setup_norm = setup_cpu * PROBE_REF_S / probe()

    tracer = None
    if args.trace:
        tracer = Tracer(package)
        tracer.install()
    results = run_ops(package, ops, tracer)
    cpu = sum(r["cpu_s"] for r in results)
    report = {
        "ready": ready,
        "setup_norm_s": setup_norm,
        "setup_cpu_s": setup_cpu,
        "ops": results,
        "norm_s": sum(r["norm_s"] for r in results),
        "cpu_s": cpu,
        "wall_s": sum(r["wall_s"] for r in results),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(workdir / "spans.jsonl")
        report["layers"] = tracer.summary(cpu)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

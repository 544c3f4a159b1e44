"""Tests of the benchmark itself: tiny workloads, checkers, tracing, contract.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.worker import ROOT, import_program, run_ops
from perfbench.workloads import WORKLOADS, Op, make_ops

package = import_program()

from perfbench.checks import Checker  # noqa: E402  (needs posetzeta)
from perfbench.tracing import REPORTED, Tracer  # noqa: E402


def _tiny(workload, tmp_path, seed=3):
    return make_ops(workload, seed, tmp_path / workload, "tiny")


def _output(op):
    buf = io.StringIO()
    package.cli.run(list(op.argv), out=buf)
    return buf.getvalue()


def _bump_last_field(text):
    """Add one to the last number of the last CSV row."""
    lines = text.rstrip("\n").split("\n")
    head, _, last = lines[-1].rpartition(",")
    lines[-1] = f"{head},{int(last.split('/')[0]) + 1}" + (
        "/" + last.split("/")[1] if "/" in last else ""
    )
    return "\n".join(lines) + "\n"


def _corrupt(op, text):
    if op.check == "subdivide":
        doc = json.loads(text)
        doc["relations"].pop()
        return json.dumps(doc)
    if op.check == "roots":
        doc = json.loads(text)
        row = doc["rows"][-1]
        row["beta1_re"] = str(float(row["beta1_re"]) * 1.001)
        return json.dumps(doc)
    if op.check == "pn_alpha":
        lines = text.rstrip("\n").split("\n")
        fields = lines[-1].split(",")
        fields[4] = str(int(fields[4]) + 1)  # top_chains
        lines[-1] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return _bump_last_field(text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    results = run_ops(package, _tiny(workload, tmp_path))
    assert results
    assert [r for r in results if r["error"] is not None] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checkers_fail_corrupted_outputs(workload, tmp_path):
    checker = Checker()
    for op in _tiny(workload, tmp_path):
        text = _output(op)
        assert checker.check(op, text) is None, op.label
        assert checker.check(op, _corrupt(op, text)) is not None, op.label


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in WORKLOADS:
        a = make_ops(workload, 5, tmp_path / "a")
        b = make_ops(workload, 5, tmp_path / "b")
        assert [(o.label, o.info.get("doc")) for o in a] == [
            (o.label, o.info.get("doc")) for o in b
        ]
        assert [o.argv[1:] for o in a if "--input" not in o.argv] == [
            o.argv[1:] for o in b if "--input" not in o.argv
        ]
    zeta_a = make_ops("zeta", 5, tmp_path / "c")
    zeta_b = make_ops("zeta", 6, tmp_path / "d")
    assert [o.info.get("doc") for o in zeta_a] != [o.info.get("doc") for o in zeta_b]


def test_outputs_identical_with_tracing_on_and_off(tmp_path):
    ops = [op for w in WORKLOADS for op in _tiny(w, tmp_path)]
    plain = [_output(op) for op in ops]
    original_run = package.cli.run
    tracer = Tracer(package)
    tracer.install()
    try:
        tracer.on = True
        traced = [_output(op) for op in ops]
    finally:
        tracer.on = False
        tracer.uninstall()
    assert traced == plain
    assert package.cli.run is original_run
    assert tracer.spans


def test_self_times_and_outside_time_add_up_to_cpu_time(tmp_path):
    # dmax 45 is beyond every other test, so the f memo is cold there and
    # f_number recurses.
    dmax = 45
    table = Op("tables:f", ["tables", "--kind", "f", "--dmax", str(dmax)],
               "tables", {"kind": "f", "dmax": dmax})
    ops = _tiny("zeta", tmp_path) + _tiny("pn", tmp_path) + [table]
    tracer = Tracer(package)
    tracer.install()
    try:
        results = run_ops(package, ops, tracer)
    finally:
        tracer.uninstall()
    cpu = sum(r["cpu_s"] for r in results)
    layers = {k: v for k, (v, _) in tracer.summary(cpu).items()}
    total = sum(layers[f"{name}.self_s"] for name in REPORTED)
    total += layers["trace.other_self_s"] + layers["trace.outside_s"]
    assert total == pytest.approx(cpu, rel=1e-9, abs=1e-9)
    assert layers["cli.run.calls"] == len(ops)
    # Recursive f_number counts once per outer call: two (dmax+1)^2 tables.
    tiny_dmax = next(op.info["dmax"] for op in ops if op.label == "tables:f")
    assert layers["subdivision.f_number.calls"] == (
        (tiny_dmax + 1) ** 2 + (dmax + 1) ** 2
    )
    assert layers["primes.squarefree_sieve.rebuilds"] >= 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", "pn", "--seed", "2", "--seconds", "1",
                    "--trace", trace, "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "zeta", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as Fr
from itertools import product
from pathlib import Path

import mpmath
import pytest

import posetzeta
from helpers import poset_to_dict
from posetzeta import (
    build_poset,
    build_Pn,
    poset_from_dict,
    save_poset,
    strict_chain_vector,
)
from posetzeta import roots as roots_module
from posetzeta.cli import (
    build_parser,
    fmt_rational,
    main,
    parse_rational,
    run,
    run_to_string,
)
from posetzeta.primes import squarefree_sieve


# A well-formed poset whose subdivision joins "a" and "b" into a second "a|b".
LABEL_COLLISION = b'{"elements": ["a", "b", "a|b"], "relations": [["a", "b"]]}'


def checkout_env():
    # Run the checkout under test, not whatever copy is installed.
    src = str(Path(posetzeta.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def write_p6(tmp_path):
    p = build_poset(["2", "3", "5", "6"], [("2", "6"), ("3", "6")])
    path = tmp_path / "p6.json"
    save_poset(p, path)
    return str(path)


def write_chain(tmp_path, n):
    labels = [f"c{i}" for i in range(n)]
    path = tmp_path / f"chain{n}.json"
    save_poset(build_poset(labels, list(zip(labels, labels[1:]))), path)
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_fmt_parse_round_trip():
    for x in (Fr(3, 4), Fr(-7, 11), Fr(5), Fr(0), Fr(-2)):
        assert parse_rational(fmt_rational(x)) == x
    assert fmt_rational(None) == "NA"
    assert parse_rational("NA") is None
    assert fmt_rational(Fr(6, 4)) == "3/2"


def test_fmt_parse_beyond_int_str_limit():
    # Python caps one int <-> str conversion at 4300 digits by default.
    x = Fr(-(7 ** 6000), 3 ** 11000)  # 5071 / 5249 digits
    text = fmt_rational(x)
    assert len(text) > 10000
    assert parse_rational(text) == x
    big = 10 ** 5000 + 1
    assert fmt_rational(Fr(big)) == "1" + "0" * 4999 + "1"
    assert fmt_rational(Fr(-1, 10 ** 6000)) == "-1/1" + "0" * 6000
    assert parse_rational("1" + "0" * 4999 + "1") == big


def test_fmt_parse_under_smallest_int_str_limit():
    # 640 digits is the smallest limit Python lets a process set.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        x = Fr(7 ** 2366 + 1, 3 ** 4190)  # 2000 / 2000 digits
        text = fmt_rational(x)
        assert len(text) == 4001
        assert parse_rational(text) == x
    finally:
        sys.set_int_max_str_digits(limit)


class TestTables:
    def test_f_csv(self):
        header, rows = parse_csv(
            run_to_string(["tables", "--kind", "f", "--dmax", "3"])
        )
        assert header == ["i", "d", "value"]
        cells = {(int(i), int(d)): v for i, d, v in rows}
        assert cells[(2, 3)] == "36"
        assert cells[(3, 1)] == "0"
        assert len(rows) == 16

    def test_H_json(self):
        doc = json.loads(
            run_to_string(
                ["tables", "--kind", "H", "--dmax", "3", "--format", "json"]
            )
        )
        cells = {(row["i"], row["d"]): row["value"] for row in doc}
        assert cells[(2, 3)] == "7/11"
        assert cells[(0, 3)] == "0"
        assert cells[(1, 0)] == "1"

    def test_F_values_parse_back(self):
        _, rows = parse_csv(
            run_to_string(["tables", "--kind", "F", "--dmax", "5"])
        )
        cells = {(int(i), int(d)): parse_rational(v) for i, d, v in rows}
        assert cells[(2, 5)] == Fr(45, 29)
        assert cells[(0, 4)] == Fr(1, 19)


class TestZetaCommand:
    def test_json(self, tmp_path):
        doc = json.loads(
            run_to_string(
                ["zeta", "--input", write_p6(tmp_path), "--format", "json"]
            )
        )
        assert doc == {
            "numerator": ["4", "-2"],
            "denominator": ["1", "-2", "1"],
        }

    def test_csv(self, tmp_path):
        header, rows = parse_csv(
            run_to_string(["zeta", "--input", write_p6(tmp_path)])
        )
        assert header == ["part", "exponent", "coefficient"]
        assert ["numerator", "0", "4"] in rows


class TestSubdivideCommand:
    def test_json_round_trips_into_builder(self, tmp_path):
        text = run_to_string(
            ["subdivide", "--input", write_p6(tmp_path), "--times", "2"]
        )
        q = poset_from_dict(json.loads(text))
        assert strict_chain_vector(q).counts == (10, 8)
        # One more pass through the dict form is stable.
        assert poset_to_dict(q) == json.loads(
            run_to_string(
                ["subdivide", "--input", write_p6(tmp_path), "--times", "2"]
            )
        )

    def test_csv_rows_match_json(self, tmp_path):
        # In index order "b" comes before "a" and "10" before "9", against
        # label order, so a CSV pair order of its own would differ from JSON's.
        mixed = tmp_path / "mixed.json"
        save_poset(
            build_poset(
                ["b", "a", "10", "9"], [("b", "a"), ("b", "10"), ("9", "10")]
            ),
            mixed,
        )
        for path, times in product((write_p6(tmp_path), str(mixed)), "012"):
            argv = ["subdivide", "--input", path, "--times", times]
            doc = json.loads(run_to_string(argv))
            assert doc["relations"] == sorted(doc["relations"])
            header, rows = parse_csv(run_to_string(argv + ["--format", "csv"]))
            assert header == ["kind", "a", "b"]
            assert rows == [["element", lab, ""] for lab in doc["elements"]] + [
                ["relation", a, b] for a, b in doc["relations"]
            ]

    def test_cap_checked_before_any_subdivision(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("subdivision built before the cap check")

        monkeypatch.setattr("posetzeta.cli.barycentric_subdivision", fail)
        kept = tmp_path / "kept.txt"
        kept.write_text("sentinel\n")
        # Iterate sizes 63, 9365, 5016249: the third is the first over the
        # cap; the chain with 18 elements has 2^18 - 1 chains.
        for n, times, size in ((6, "3", 5016249), (18, "1", 262143)):
            argv = ["subdivide", "--input", write_chain(tmp_path, n)]
            assert main(argv + ["--times", times, "--output", str(kept)]) == 4
            assert kept.read_bytes() == b"sentinel\n"
            assert (
                f"subdivision has {size} elements, cap is 100000"
                in capsys.readouterr().err
            )

    def test_antichain_is_its_own_subdivision(self, tmp_path):
        anti = tmp_path / "anti.json"
        save_poset(build_poset(["b", "a"], []), anti)
        argv = ["subdivide", "--input", str(anti), "--times"]
        start = time.perf_counter()
        text = run_to_string(argv + ["1000000000"])
        assert time.perf_counter() - start < 1
        assert text == run_to_string(argv + ["1"])
        # Its one iterate is still checked against the cap.
        big = tmp_path / "big.json"
        save_poset(build_poset([str(i) for i in range(100001)], []), big)
        assert main(["subdivide", "--input", str(big), "--times", "5"]) == 4


class TestZerosCommands:
    def test_zeros_csv(self, tmp_path):
        header, rows = parse_csv(
            run_to_string(
                [
                    "zeros",
                    "--input",
                    write_p6(tmp_path),
                    "--kmax",
                    "4",
                    "--precision-bits",
                    "128",
                ]
            )
        )
        assert header[0] == "k" and header[-1] == "precision_bits"
        assert len(rows) == 5
        assert rows[-1][-1] == "128"
        # beta1 at k = 4 is exactly 17.
        assert float(rows[-1][1]) == 17.0
        assert float(rows[-1][2]) == 0.0

    def test_theorem_check_json(self, tmp_path):
        p30 = tmp_path / "p30.json"
        save_poset(build_Pn(30), p30)
        doc = json.loads(
            run_to_string(
                [
                    "theorem-check",
                    "--input",
                    str(p30),
                    "--kmax",
                    "5",
                    "--precision-bits",
                    "128",
                    "--format",
                    "json",
                ]
            )
        )
        assert len(doc["rows"]) == 6
        assert doc["beta1_real_from_k0"] is True
        assert doc["modulus_increasing_from_k0"] is True
        assert abs(float(doc["es_ratio_final"]) - 1) < 0.05


class TestPnCommands:
    def test_chi(self):
        header, rows = parse_csv(
            run_to_string(["pn", "chi", "--range", "2:10"])
        )
        assert header == ["n", "chi"]
        assert rows[0] == ["2", "1"]
        assert rows[-1] == ["10", "2"]

    def test_alpha(self):
        header, rows = parse_csv(
            run_to_string(["pn", "alpha", "--range", "5:6"])
        )
        assert header == [
            "n", "chi", "mertens", "dim", "top_chains", "H1", "alpha",
        ]
        # Below the first interesting n the constant is undefined.
        assert rows[0][0] == "5" and rows[0][-1] == "NA"
        assert rows[1] == ["6", "2", "-1", "1", "2", "1", "1"]

    def test_bad_range(self):
        assert main(["pn", "chi", "--range", "10:2"]) == 2
        assert main(["pn", "chi", "--range", "nope"]) == 2

    def test_kind_is_positional(self, capsys):
        assert run_to_string(["pn", "--range", "2:10", "alpha"]) == (
            run_to_string(["pn", "alpha", "--range", "2:10"])
        )
        assert main(["pn", "--range", "2:10"]) == 2
        assert "required: kind" in capsys.readouterr().err
        assert main(["pn", "beta", "--range", "2:10"]) == 2
        assert "argument kind: invalid choice" in capsys.readouterr().err

    def test_chi_rows_are_streamed(self):
        class Sink:
            def write(self, text):
                return len(text)

        squarefree_sieve(200000)  # the sieve is not what this measures
        # A list of the JSON row objects of 2..200000 alone takes 45 MB.
        for argv, cap in (
            (["--range", "2:50000"], 1_000_000),
            (["--range", "2:200000", "--format", "json"], 5_000_000),
        ):
            tracemalloc.start()
            try:
                run(["pn", "chi", *argv], out=Sink())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < cap, argv


def test_pi_weight_and_dim_report():
    header, rows = parse_csv(
        run_to_string(["pi-weight", "--d", "2", "--x", "30"])
    )
    assert header == ["d", "x", "count"]
    assert rows == [["2", "30", "7"]]
    header, rows = parse_csv(run_to_string(["dim-report", "--n", "30,210"]))
    assert [r[1] for r in rows] == ["2", "3"]
    assert all(r[-1] == "1" for r in rows)


@pytest.mark.parametrize("argv", [
    ["tables", "--kind", "f", "--dmax", "12"],
    ["tables", "--kind", "F", "--dmax", "12"],
    ["tables", "--kind", "H", "--dmax", "12"],
    ["pn", "chi", "--range", "2:500"],
    ["pn", "alpha", "--range", "2:300"],  # alpha is NA below 6
    ["pi-weight", "--d", "3", "--x", "1000"],
    ["dim-report", "--n", "16,30,2310"],
], ids=["tables-f", "tables-F", "tables-H", "pn-chi", "pn-alpha",
        "pi-weight", "dim-report"])
def test_json_rows_have_json_dump_bytes(argv):
    # Rows are written as they are made, with the bytes json.dump gives
    # the whole list of row objects.
    args = build_parser().parse_args(argv)
    header, rows, _ = args.func(args)
    expected = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    assert run_to_string(argv + ["--format", "json"]) == expected + "\n"


class TestExitCodes:
    def test_success_and_output_file(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(
            ["tables", "--kind", "f", "--dmax", "2", "--output", str(out)]
        ) == 0
        assert out.read_text().startswith("i,d,value")

    def test_invalid_config(self, capsys):
        assert main(["tables", "--kind", "f", "--dmax", "-1"]) == 2
        assert main(["tables", "--kind", "f", "--dmax", "abc"]) == 2
        assert main(["subdivide", "--input", "x", "--times", "-1"]) == 2
        # The subdivision cap is a constant, not an option.
        assert main(["subdivide", "--input", "x", "--cap", "10"]) == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err
        assert main(["zeros", "--input", "x", "--kmax", "-1"]) == 2
        assert main(["zeros", "--input", "x", "--precision-bits", "40"]) == 2
        for d in ("0", "-2"):
            assert main(["pi-weight", "--d", d, "--x", "30"]) == 2
        for n in ("10", "abc", "30,,210"):
            assert main(["dim-report", "--n", n]) == 2
        # argparse's own usage errors are returned, not raised as SystemExit.
        assert main(["pi-weight", "--d", "2", "--x", "abc"]) == 2
        assert main(["tables"]) == 2
        assert main(["tables", "--kind", "Q"]) == 2
        assert main(["tables", "--kind", "f", "--bogus"]) == 2
        assert main(["bogus"]) == 2

    def test_duplicate_label_is_not_a_cycle(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"elements": ["a", "b", "a"],'
            ' "relations": [["a", "b"], ["b", "a"]]}'
        )
        capsys.readouterr()
        assert main(["zeta", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: DuplicateLabel: duplicate element 'a'\n"
        )

    def test_type_errors_name_the_option(self, capsys):
        # A non-integer is refused under the option it was given to, never
        # under the name of a private type function.
        cases = [
            (["tables", "--kind", "f", "--dmax", "x"], "--dmax", 0, "'x'"),
            (["dim-report", "--n", "1e3"], "--n", 16, "'1e3'"),
            (["pn", "chi", "--range", "a:5"], "--range", 2, "'a'"),
        ]
        capsys.readouterr()
        for argv, option, lo, got in cases:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: InvalidConfig: argument {option}: "
                f"expected an integer >= {lo}, got {got}\n"
            )

    def test_refused_run_leaves_output_intact(self, tmp_path):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(
            '{"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}'
        )
        cases = [
            (["tables", "--kind", "H", "--dmax", "101"], 4),
            (["zeta", "--input", str(tmp_path / "absent.json")], 2),
            (["theorem-check", "--input", str(cyclic)], 2),
            (["pn", "chi", "--range", "6:100000000"], 4),
        ]
        kept, absent = tmp_path / "kept.txt", tmp_path / "absent.txt"
        kept.write_text("sentinel\n")
        for argv, code in cases:
            assert main(argv + ["--output", str(kept)]) == code
            assert kept.read_bytes() == b"sentinel\n"
            assert main(argv + ["--output", str(absent)]) == code
            assert not absent.exists()

    def test_computation_error(self, tmp_path):
        antichain = tmp_path / "anti.json"
        save_poset(build_poset(["a", "b"], []), antichain)
        assert main(["zeros", "--input", str(antichain)]) == 3

    def test_backward_error_check_exits_3(self, tmp_path, monkeypatch, capsys):
        # Roots moved by a relative 2^-40 fail find_roots' final check.
        found = roots_module._nonzero_roots

        def perturbed(*args):
            return [z * (1 + mpmath.mpf(2) ** -40) for z in found(*args)]

        monkeypatch.setattr(roots_module, "_nonzero_roots", perturbed)
        p30 = tmp_path / "p30.json"
        save_poset(build_Pn(30), p30)
        capsys.readouterr()
        assert main(["theorem-check", "--input", str(p30)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "error: NoConvergence: backward error above 2^-128; "
            "raise precision\n"
        )

    def test_resource_cap(self, tmp_path):
        # The sieve cap is checked before the first row is computed.
        for command in ("chi", "alpha"):
            assert main(["pn", command, "--range", "6:100000000"]) == 4
        for n, times in ((6, "3"), (18, "1")):
            argv = ["subdivide", "--input", write_chain(tmp_path, n)]
            assert main(argv + ["--times", times]) == 4

    def test_tables_dmax_cap(self):
        # The cap is checked before any row: at the cap, H takes seconds.
        start = time.perf_counter()
        assert main(["tables", "--kind", "H", "--dmax", "101"]) == 4
        assert time.perf_counter() - start < 1

    def test_theorem_kmax_cap(self, tmp_path):
        # Checked before the poset is loaded: the input does not exist.
        absent = str(tmp_path / "absent.json")
        assert main(["theorem-check", "--input", absent, "--kmax", "101"]) == 4
        assert main(["theorem-check", "--input", absent, "--kmax", "100"]) == 2

    def test_theorem_precision_bits_cap(self, tmp_path):
        absent = str(tmp_path / "absent.json")
        argv = ["theorem-check", "--input", absent, "--precision-bits"]
        assert main(argv + ["4097"]) == 4
        assert main(argv + ["4096"]) == 2

    def test_empty_document_subdivided_zero_times(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b'{"elements": [], "relations": []}')
        assert main(["subdivide", "--input", str(path), "--times", "0"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["zeta", "--input", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["zeta", "subdivide"])
    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"{", id="invalid-json"),
            pytest.param(b"[" * 100000, id="nested-json"),
            pytest.param(b'{"elements": ["a"]}', id="no-relations"),
            pytest.param(b'["a"]', id="not-an-object"),
            pytest.param(
                b'{"elements": ["a", "b"], "relations": [["a", "b", "c"]]}',
                id="relation-not-a-pair",
            ),
            pytest.param(
                b'{"elements": [1, 2], "relations": [[1, 2]]}',
                id="integer-labels",
            ),
            pytest.param(
                b'{"elements": ["\xff"], "relations": []}', id="invalid-utf8"
            ),
            pytest.param(
                b'{"elements": [' + b"9" * 5000 + b'], "relations": []}',
                id="huge-integer",
            ),
            pytest.param(
                b'{"elements": ["a", "a"], "relations": []}',
                id="duplicate-label",
            ),
            pytest.param(
                b'{"elements": ["a"], "relations": [["a", "b"]]}',
                id="unknown-label",
            ),
            pytest.param(
                b'{"elements": ["a", "b"],'
                b' "relations": [["a", "b"], ["b", "a"]]}',
                id="cycle",
            ),
            pytest.param(
                b'{"elements": [], "relations": []}', id="no-elements"
            ),
            pytest.param(LABEL_COLLISION, id="subdivision-label-collision"),
        ],
    )
    def test_malformed_poset(self, tmp_path, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        expected = 0 if (command, content) == ("zeta", LABEL_COLLISION) else 2
        assert main([command, "--input", str(path)]) == expected


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        argv = [
            "zeros",
            "--input",
            write_p6(tmp_path),
            "--kmax",
            "3",
            "--precision-bits",
            "128",
        ]
        assert run_to_string(argv) == run_to_string(argv)

    def test_installed_entry_point(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "posetzeta.cli", "tables", "--kind", "H",
             "--dmax", "2"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert res.returncode == 0
        assert res.stdout == run_to_string(
            ["tables", "--kind", "H", "--dmax", "2"]
        )

    def test_closed_pipe_exits_141_quietly(self):
        # The H triangle to d = 60 is 2.4 MB, far beyond a pipe's buffer,
        # so writes are still going on when the reader closes its end.
        proc = subprocess.Popen(
            [sys.executable, "-m", "posetzeta.cli", "tables", "--kind", "H",
             "--dmax", "60"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        )
        assert proc.stdout.readline() == b"i,d,value\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""


class TestCachedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_between_runs(self, tmp_path, capsys):
        # After refused parses, each command in this process prints the
        # bytes of the same command in a fresh one: zeta's csv default,
        # subdivide's json default and pn's positional kind do not leak
        # into the runs after them.
        p6 = write_p6(tmp_path)
        assert main(["tables", "--kind", "f", "--dmax", "-1"]) == 2
        assert main(["zeta", "--input", p6, "--bogus"]) == 2
        commands = [
            ["zeta", "--input", p6],
            ["subdivide", "--input", p6],
            ["zeta", "--input", p6],
            ["pn", "alpha", "--range", "6:40"],
        ]
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 0
            fresh = subprocess.run(
                [sys.executable, "-m", "posetzeta.cli", *argv],
                capture_output=True,
                env=checkout_env(),
            )
            assert fresh.returncode == 0
            assert capsys.readouterr().out.encode() == fresh.stdout


ROOT_PATH = ("mpmath", "posetzeta.roots")


def root_path_loaded_by(code, *argv, cwd=None):
    # Which ROOT_PATH modules a fresh interpreter holds after running code.
    script = (
        "import sys\n"
        f"{code}\n"
        f"print(*sorted(set({ROOT_PATH!r}) & set(sys.modules)), "
        "file=sys.stderr)"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=checkout_env(),
    )
    assert res.returncode == 0, res.stderr
    return res.stderr.split()


class TestRootPathImports:
    RUN_MAIN = (
        "import posetzeta.cli\n"
        "assert posetzeta.cli.main(sys.argv[1:]) == 0"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--kind", "H", "--dmax", "3"],
            ["zeta", "--input", "p6.json"],
            ["subdivide", "--input", "p6.json"],
            ["pn", "alpha", "--range", "6:40"],
            ["pi-weight", "--d", "2", "--x", "30"],
            ["dim-report", "--n", "30,210"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exact_commands_leave_mpmath_unloaded(self, tmp_path, argv):
        write_p6(tmp_path)
        assert root_path_loaded_by(self.RUN_MAIN, *argv, cwd=tmp_path) == []

    def test_bare_import_leaves_mpmath_unloaded(self):
        assert root_path_loaded_by("import posetzeta") == []

    def test_exact_g_k_leaves_mpmath_unloaded(self):
        # g_k is integer code in zeta; roots keeps the same function.
        code = (
            "from posetzeta import build_Pn, g_k_polynomial\n"
            "assert g_k_polynomial(build_Pn(30), 2).degree == 2"
        )
        assert root_path_loaded_by(code) == []
        assert roots_module.g_k_polynomial is posetzeta.zeta.g_k_polynomial

    def test_theorem_check_loads_the_root_path(self, tmp_path):
        write_p6(tmp_path)
        argv = ["theorem-check", "--input", "p6.json", "--kmax", "2"]
        loaded = root_path_loaded_by(self.RUN_MAIN, *argv, cwd=tmp_path)
        assert loaded == sorted(ROOT_PATH)


class TestPackageNamespace:
    ROOT_NAMES = (
        "roots", "RootSet", "TrajectoryReport", "find_roots", "theorem_report",
    )

    def test_root_names_are_listed(self):
        for name in self.ROOT_NAMES:
            assert name in dir(posetzeta)
            assert name in posetzeta.__all__

    def test_root_names_resolve_to_the_roots_module(self):
        assert posetzeta.roots is roots_module
        assert posetzeta.find_roots is posetzeta.roots.find_roots
        for name in self.ROOT_NAMES[1:]:
            assert getattr(posetzeta, name) is getattr(roots_module, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(
            AttributeError,
            match="^module 'posetzeta' has no attribute 'no_such_name'$",
        ):
            posetzeta.no_such_name
        assert not hasattr(posetzeta, "no_such_name")

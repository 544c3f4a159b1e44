"""Command-line surface: deterministic CSV/JSON table and report emitters.

Exit codes: 0 success, 2 invalid configuration (argparse's usage errors
included: a missing or unknown option or command, a bad choice), 3
computation error, 4 resource cap exceeded, and 141 (128 + SIGPIPE),
with nothing printed, when the reader of stdout closes it early, as
``| head`` does.  A refused run writes nothing: every check runs before
``--output`` is opened, so that file is neither created nor truncated.
Exact rationals are always serialized as "p/q" strings (or a bare
integer).  Floats appear in root-tracking output, printed with 20
significant digits alongside the precision used (an imaginary part
proved zero prints as 0.0), and in the dim-report estimate and ratio,
printed by repr().

Only theorem-check (alias zeros) imports mpmath and the root finder, at
its first call: every other command runs without them.  The parser is
built once per process.
"""

import csv
import io
import json
import os
import sys
from argparse import ArgumentParser, ArgumentTypeError
from fractions import Fraction
from functools import cache
from itertools import chain

from .errors import (
    InvalidConfig,
    PosetZetaError,
    RangeTooLarge,
    ResourceCapExceeded,
    SubdivisionTooLarge,
)
from .poset import (
    Poset,
    _write_list,
    barycentric_subdivision,
    load_poset,
    relation_pairs,
    strict_chain_vector,
    write_poset,
)
from .primes import (
    alpha_record,
    chi_Pn,
    dim_asymptotic_report,
    pi_weight,
    squarefree_sieve,
)
from .subdivision import (
    H_vector,
    big_F_number,
    f_number,
    transfer_iterate,
)
from .zeta import zeta_rational

FLOAT_DIGITS = 20
SUBDIVISION_CAP = 100_000
# The F and H triangles cost about d^6: --dmax 140 takes 7x as long as 100.
TABLES_DMAX_CAP = 100
# theorem-check grows with both: the chain with d = 8 takes about 3 s at
# --kmax 100 and about 6 s at --kmax 24 with --precision-bits 4096.
THEOREM_KMAX_CAP = 100
THEOREM_PRECISION_BITS_CAP = 4096


# Decimal digits that str() and int() convert in one call; Python caps
# a single conversion (4300 digits by default, and never below 640), so
# longer numbers are split into halves by a power of ten.
DIGITS_PER_CALL = 640


def _int_to_str(n):
    if n < 0:
        return "-" + _int_to_str(-n)
    if n.bit_length() <= 3 * DIGITS_PER_CALL:  # fewer digits than that
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits of n
    high, low = divmod(n, 10**k)
    return _int_to_str(high) + _int_to_str(low).zfill(k)


def _str_to_int(s):
    if s.startswith("-"):
        return -_str_to_int(s[1:])
    if len(s) <= DIGITS_PER_CALL:
        return int(s)
    k = len(s) // 2
    return _str_to_int(s[:-k]) * 10**k + _str_to_int(s[-k:])


def fmt_rational(x):
    """Text of an int, a Fraction, or None (as "NA")."""
    if x is None:
        return "NA"
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def parse_rational(s):
    if s == "NA":
        return None
    num, slash, den = s.partition("/")
    return Fraction(_str_to_int(num), _str_to_int(den) if slash else 1)


def fmt_float(x):
    import mpmath as mp

    return mp.nstr(mp.mpf(x), FLOAT_DIGITS, strip_zeros=False)


def _emit(header, rows, doc, fmt, out):
    # CSV writes each row as it is made.  JSON writes `doc` whole only for
    # the fixed-size zeta and theorem-check documents; a Poset, or else the
    # rows as the objects json.dump(indent=2) lays out, go out in chunks,
    # so no subdivision or list of rows is held beside `out`.
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    if isinstance(doc, Poset):
        write_poset(doc, out)
    elif doc is None:
        # A cell is an int or a str; str(int) costs a 20th of json.dumps.
        keys = ["\n    " + json.dumps(h) + ": " for h in header]
        objs = (
            "{" + ",".join(map(str.__add__, keys, [
                json.dumps(x) if isinstance(x, str) else str(x) for x in row
            ])) + "\n  }" for row in rows
        )
        _write_list(out, objs, 0)
    else:
        json.dump(doc, out, indent=2)
    out.write("\n")


def _cmd_tables(args):
    if args.dmax > TABLES_DMAX_CAP:
        raise RangeTooLarge(f"--dmax {args.dmax} exceeds {TABLES_DMAX_CAP}")
    ds = range(args.dmax + 1)
    if args.kind == "f":
        cells = ((i, d, f_number(i, d)) for i in ds for d in ds)
    elif args.kind == "F":
        cells = ((i, d, big_F_number(i, d)) for d in ds for i in range(d + 1))
    else:  # H
        cells = ((i, d, h) for d in ds for i, h in enumerate(H_vector(d)))
    rows = ([i, d, fmt_rational(v)] for i, d, v in cells)
    return ["i", "d", "value"], rows, None


def _cmd_zeta(args):
    p = load_poset(args.input)
    z = zeta_rational(p)
    num = [fmt_rational(c) for c in z.numerator.coeffs]
    den = [fmt_rational(c) for c in z.denominator.coeffs]
    rows = chain(
        (["numerator", e, c] for e, c in enumerate(num)),
        (["denominator", e, c] for e, c in enumerate(den)),
    )
    doc = {"numerator": num, "denominator": den}
    return ["part", "exponent", "coefficient"], rows, doc


def _cmd_subdivide(args):
    p = load_poset(args.input)
    # A subdivision's size is the chain sum of the poset it subdivides, so
    # every iterate is checked against the cap before the first is built.
    times = args.times
    cv = strict_chain_vector(p) if times else None
    if times and cv.dim == 0:
        times = 1  # an antichain is its own subdivision
    for _ in range(times):
        size = sum(cv.counts)
        if size > SUBDIVISION_CAP:
            raise SubdivisionTooLarge(
                f"subdivision has {size} elements, cap is {SUBDIVISION_CAP}"
            )
        cv = transfer_iterate(cv, 1)
    for _ in range(times):
        p = barycentric_subdivision(p)
    rows = chain(
        (["element", lab, ""] for lab in p.labels),
        (["relation", a, b] for a, b in relation_pairs(p)),
    )
    return ["kind", "a", "b"], rows, p


_TRAJECTORY_HEADER = [
    "k", "beta1_re", "beta1_im", "beta1_abs", "es_ratio", "product_re",
    "product_im", "max_match_distance", "precision_bits",
]


def _cmd_theorem_check(args):
    from .roots import theorem_report

    if args.kmax > THEOREM_KMAX_CAP:
        raise RangeTooLarge(f"--kmax {args.kmax} exceeds {THEOREM_KMAX_CAP}")
    if args.precision_bits > THEOREM_PRECISION_BITS_CAP:
        raise RangeTooLarge(
            f"--precision-bits {args.precision_bits} exceeds "
            f"{THEOREM_PRECISION_BITS_CAP}"
        )
    p = load_poset(args.input)
    report = theorem_report(p, args.kmax, args.precision_bits)
    rows = [
        [
            rec.k,
            fmt_float(rec.beta1.real),
            fmt_float(rec.beta1.imag),
            fmt_float(rec.beta1_abs),
            fmt_float(rec.es_ratio),
            fmt_float(rec.product_of_others.real),
            fmt_float(rec.product_of_others.imag),
            fmt_float(max(rec.matched_distances, default=0)),
            report.precision_bits,
        ]
        for rec in report.records
    ]
    doc = {
        "rows": [dict(zip(_TRAJECTORY_HEADER, row)) for row in rows],
        "burn_in_k0": report.burn_in_k0,
        "beta1_real_from_k0": report.beta1_real_from_k0,
        "modulus_increasing_from_k0": report.modulus_increasing_from_k0,
        "es_ratio_final": fmt_float(report.es_ratio_final),
        "max_match_distance_final": fmt_float(report.max_match_distance_final),
    }
    return _TRAJECTORY_HEADER, rows, doc


def _at_least(lo):
    # argparse type for an int >= lo.  Both refusals are ArgumentTypeErrors,
    # whose message argparse prints as it is; a bare ValueError would be
    # reported under the name of the outermost type function.
    def integer(text):
        try:
            value = int(text)
        except ValueError:
            raise ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}"
            ) from None
        if value < lo:
            raise ArgumentTypeError(
                f"expected an integer >= {lo}, got {value}"
            )
        return value

    return integer


def _n_list(text):
    return [_at_least(16)(v) for v in text.split(",")]


def _parse_range(text):
    lo, _, hi = text.partition(":")
    lo, hi = _at_least(2)(lo), _at_least(2)(hi)
    if lo > hi:
        raise ArgumentTypeError(f"bad range {text!r}, expected lo <= hi")
    return range(lo, hi + 1)


def _cmd_pn(args):
    ns = args.range
    squarefree_sieve(ns[-1])  # raises RangeTooLarge before any row is made
    if args.kind == "chi":
        return ["n", "chi"], ([n, chi_Pn(n)] for n in ns), None
    rows = (
        [
            rec.n,
            rec.chi,
            1 - rec.chi,
            rec.d,
            rec.top_chains,
            fmt_rational(rec.H1),
            fmt_rational(rec.alpha),
        ]
        for rec in map(alpha_record, ns)
    )
    header = ["n", "chi", "mertens", "dim", "top_chains", "H1", "alpha"]
    return header, rows, None


def _cmd_pi_weight(args):
    rows = [[args.d, args.x, pi_weight(args.d, args.x)]]
    return ["d", "x", "count"], rows, None


def _cmd_dim_report(args):
    rows = (
        [r.n, r.d, repr(r.estimate), repr(r.ratio), int(r.in_band)]
        for r in dim_asymptotic_report(args.n)
    )
    return ["n", "dim", "estimate", "ratio", "in_band"], rows, None


class _Parser(ArgumentParser):
    # A usage error is a bad configuration like any other: main returns 2
    # for it instead of argparse printing usage and raising SystemExit.
    def error(self, message):
        raise InvalidConfig(message)


@cache
def build_parser():
    # Built once per process: parse_args keeps no state in the parser, and
    # every type function is pure.
    parser = _Parser(
        prog="posetzeta",
        description=(
            "Exact chain-count tables, subdivision dynamics, and "
            "squarefree-poset statistics.  Exit codes: 0 ok, 2 bad "
            "configuration, 3 computation error, 4 resource cap exceeded, "
            "141 stdout closed early."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--output", default=None, help="path, default stdout")

    sp = sub.add_parser("tables", help="emit the f/F/H number triangles")
    sp.add_argument("--kind", choices=["f", "F", "H"], required=True)
    sp.add_argument("--dmax", type=_at_least(0), default=7)
    common(sp)
    sp.set_defaults(func=_cmd_tables)

    sp = sub.add_parser("zeta", help="rational chain series of a poset")
    sp.add_argument("--input", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_zeta)

    sp = sub.add_parser("subdivide", help="explicit barycentric subdivision")
    sp.add_argument("--input", required=True)
    sp.add_argument("--times", type=_at_least(0), default=1)
    common(sp)
    sp.set_defaults(func=_cmd_subdivide, format="json")

    sp = sub.add_parser(
        "theorem-check",
        aliases=["zeros"],
        help="root trajectory under subdivision, with convergence flags",
    )
    sp.add_argument("--input", required=True)
    sp.add_argument("--kmax", type=_at_least(0), default=8)
    sp.add_argument("--precision-bits", type=_at_least(53), default=256)
    common(sp)
    sp.set_defaults(func=_cmd_theorem_check)

    sp = sub.add_parser("pn", help="squarefree divisibility poset statistics")
    sp.add_argument("kind", choices=["chi", "alpha"])
    sp.add_argument(
        "--range", type=_parse_range, required=True, help="lo:hi inclusive"
    )
    common(sp)
    sp.set_defaults(func=_cmd_pn)

    sp = sub.add_parser("pi-weight", help="count squarefree by prime weight")
    sp.add_argument("--d", type=_at_least(1), required=True)
    sp.add_argument("--x", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_pi_weight)

    sp = sub.add_parser("dim-report", help="dimension growth diagnostics")
    sp.add_argument(
        "--n", type=_n_list, required=True, help="comma-separated n values"
    )
    common(sp)
    sp.set_defaults(func=_cmd_dim_report)

    return parser


def run(argv=None, out=None):
    # Each _cmd_* runs all its checks before it returns (header, rows, doc)
    # and only then is a sink chosen: a refused run writes no byte and
    # opens no file, so --output is neither created nor truncated.
    args = build_parser().parse_args(argv)
    result = args.func(args)
    if out is None and args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            _emit(*result, args.format, fh)
    else:
        _emit(*result, args.format, sys.stdout if out is None else out)


def run_to_string(argv):
    """Run a command and capture its document; used by tests."""
    buf = io.StringIO()
    run(argv, out=buf)
    return buf.getvalue()


# Exit code per error class; the first class that matches wins, so a
# subclass comes before its base.
_EXIT_CODES = (
    (ResourceCapExceeded, 4),
    (InvalidConfig, 2),
    (PosetZetaError, 3),
    (OSError, 2),
)


def main(argv=None):
    try:
        run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader of stdout left early, as `| head` does.  Point stdout
        # at devnull so the flush at exit cannot fail again, and return
        # 128 + SIGPIPE quietly, as shell tools do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())

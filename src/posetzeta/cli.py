"""Command-line surface: deterministic CSV/JSON table and report emitters.

Exit codes: 0 success, 2 invalid configuration (argparse's usage errors
included: a missing or unknown option or command, a bad choice), 3
computation error, 4 resource cap exceeded, and 141 (128 + SIGPIPE),
with nothing printed, when the reader of stdout closes it early, as
``| head`` does (2 if it was closed before the run).  A refused run
writes nothing: every check runs before ``--output`` is opened, so that
file is neither created nor truncated.  stdout is UTF-8, as --output is.
Exact rationals are always serialized as "p/q" strings (or a bare
integer); pn alpha prints them from the window's integer rows, H1 once
per dimension and alpha by one gcd (alpha_record wraps one row in an
AlphaRecord).  Floats appear in root-tracking output, where each is a field
of its step's record, a Gaussian dyadic at the working precision, printed
once with 20 significant digits from every bit it holds, as mpmath's
nstr prints them, alongside the precision used (an imaginary part proved
zero prints as 0.0), and in the dim-report estimate and ratio, printed
by repr().  Each command returns its CSV header, its rows as tuples and
the documents that are not its rows, all written by poset's one writer.

Only theorem-check (alias zeros) imports the root finder, at its first
call: every other command runs without it.  No command imports mpmath.
The parser is built once per process.
"""

import errno
import io
import json
import os
import re
import sys
from argparse import ArgumentParser, ArgumentTypeError
from fractions import Fraction
from functools import cache
from math import gcd

from .errors import (
    InvalidConfig,
    PosetZetaError,
    RangeTooLarge,
    ResourceCapExceeded,
    SubdivisionTooLarge,
)
from .poset import (
    barycentric_subdivision,
    csv_lines,
    dimension,
    json_list,
    json_objects,
    load_poset,
    pair_runs,
    poset_json,
    strict_chain_vector,
    write_json,
)
from .primes import (
    alpha_rows,
    chi_values,
    dim_asymptotic_report,
    pi_weight,
)
from .subdivision import (
    f_number,
    integer_column,
    transfer_iterate,
)
from .zeta import zeta_rational

FLOAT_DIGITS = 20
SUBDIVISION_CAP = 100_000
# A 14-element chain's subdivision has 4,750,202 relations, 362 MB of JSON
# written in about 2.3 s; the 15-element chain's has 14,283,372.
SUBDIVISION_RELATION_CAP = 5_000_000
# The F and H triangles cost about d^6: at --dmax 100 they take about 1 s
# and 1.2 s of CPU, and at 140 about seven times as long.  The f triangle
# takes 0.02 s at 100 (one run per process on a shared 2-CPU virtual machine).
TABLES_DMAX_CAP = 100
# theorem-check grows with both: the chain with d = 8 takes about 0.8 s of
# process CPU at --kmax 100 and about 3.3 s at --kmax 24 with
# --precision-bits 4096 (best of 3 on a shared 2-CPU virtual machine).
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


def _ratio_to_str(n, den):
    # "p/q" of n / den in lowest terms (den > 0), or p alone if q is 1.
    if den != 1:
        g = gcd(n, den)
        if den != g:
            return f"{_int_to_str(n // g)}/{_int_to_str(den // g)}"
        n //= g
    return _int_to_str(n)


def fmt_rational(x):
    """Text of an int, a Fraction, or None (as "NA")."""
    if x is None:
        return "NA"
    return _ratio_to_str(x.numerator, x.denominator)


def parse_rational(s):
    if s == "NA":
        return None
    num, slash, den = s.partition("/")
    return Fraction(_str_to_int(num), _str_to_int(den) if slash else 1)


def fmt_float(x):
    """FLOAT_DIGITS significant digits of a real `Dyadic`, from every bit
    it holds, as mpmath's nstr(x, FLOAT_DIGITS, strip_zeros=False)."""
    return x.nstr(FLOAT_DIGITS)


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_cell(text):
    # RFC 4180: a label that holds a comma, a quote, CR or LF is quoted,
    # with its quotes doubled, the same bytes on every Python (csv.writer
    # leaves a CR unquoted before 3.13); any other text is its own cell.
    # Only a subdivide label can hold one of these.
    if not _NEEDS_QUOTES(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _emit(header, rows, docs, fmt, out):
    # A command's document in a format is docs[fmt] if it has one: for CSV
    # its runs of lines, for JSON a write_json value.  Otherwise it is the
    # rows, written as they are made: CSV lines under the header line, or a
    # JSON list of one object per row.
    doc = docs.get(fmt)
    if fmt == "csv":
        for run in csv_lines(header, rows) if doc is None else doc:
            out.write(run)
    else:
        write_json(out, json_objects(header, rows, 0) if doc is None else doc)
        out.write("\n")


def _cmd_tables(args):
    if args.dmax > TABLES_DMAX_CAP:
        raise RangeTooLarge(f"--dmax {args.dmax} exceeds {TABLES_DMAX_CAP}")
    # Every table prints from integers, and none builds a Fraction: f
    # cell by cell, F and H column by column from the numerators over
    # each column's one denominator.
    ds = range(args.dmax + 1)
    if args.kind == "f":
        cells = ((i, d, _int_to_str(f_number(i, d))) for i in ds for d in ds)
    else:
        cells = (cell for d in ds
                 for cell in _column_cells(d, *integer_column(args.kind, d)))
    return ["i", "d", "value"], cells, {}


def _column_cells(d, nums, den):
    # Rows (i, d, nums[i] / den) of one column of F or H.  Each distinct
    # numerator is reduced and formatted once: H's are symmetric in i.
    texts = {}
    for i, n in enumerate(nums):
        text = texts.get(n)
        if text is None:
            text = texts[n] = _ratio_to_str(n, den)
        yield i, d, text


def _cmd_zeta(args):
    p = load_poset(args.input)
    z = zeta_rational(p)
    parts = {"numerator": z.numerator, "denominator": z.denominator}
    parts = {k: list(map(fmt_rational, v.coeffs)) for k, v in parts.items()}
    rows = [(k, e, c) for k, cs in parts.items() for e, c in enumerate(cs)]
    doc = {k: json_list(map(json.dumps, cs)) for k, cs in parts.items()}
    return ["part", "exponent", "coefficient"], rows, {"json": doc}


def _cmd_subdivide(args):
    p = load_poset(args.input)
    # A subdivision's size is the chain sum of the poset it subdivides, and
    # each chain of i + 1 elements is above its 2^(i+1) - 2 proper nonempty
    # sub-chains, so every iterate is checked against both caps before the
    # first is built.
    # The 2^(d+1) - 1 nonempty sub-chains of a longest chain are elements
    # of every iterate, so the dimension alone refuses first: the chain
    # count costs cubic time on a chain.
    times = args.times
    if times:
        d = dimension(p)
        if 2 ** (d + 1) - 1 > SUBDIVISION_CAP:
            # As a power: the bound's decimal digits can pass str()'s limit.
            raise SubdivisionTooLarge(
                f"subdivision has at least 2^{d + 1} - 1 elements, "
                f"cap is {SUBDIVISION_CAP}"
            )
        if d == 0:
            times = 1  # an antichain is its own subdivision
    cv = strict_chain_vector(p) if times else None
    for _ in range(times):
        size = sum(cv.counts)
        if size > SUBDIVISION_CAP:
            raise SubdivisionTooLarge(
                f"subdivision has {size} elements, cap is {SUBDIVISION_CAP}"
            )
        rels = sum(c * (2 ** (i + 1) - 2) for i, c in enumerate(cv.counts))
        if rels > SUBDIVISION_RELATION_CAP:
            raise SubdivisionTooLarge(
                f"subdivision has {rels} relations, "
                f"cap is {SUBDIVISION_RELATION_CAP}"
            )
        cv = transfer_iterate(cv, 1)
    for _ in range(times):
        p = barycentric_subdivision(p)
    header = ["kind", "a", "b"]
    # Only the document asked for is made: each quotes or encodes labels.
    if args.format == "csv":
        return header, (), {"csv": _subdivide_csv(header, p)}
    return header, (), {"json": poset_json(p)}


def _subdivide_csv(header, p):
    # The labels are quoted only once CSV is written, and each label row's
    # pairs are one join, by the code that writes a poset file's pairs.
    cells = list(map(_csv_cell, p.labels))
    yield from csv_lines(header, (("element", cell, "") for cell in cells))
    yield from pair_runs(p, cells, "relation,%s,", "\n", "")


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
        (rec.k, *map(fmt_float, (
            rec.beta1.real, rec.beta1.imag, rec.beta1_abs, rec.es_ratio,
            rec.product_of_others.real, rec.product_of_others.imag,
            rec.max_match_distance,
        )), report.precision_bits)
        for rec in report.records
    ]
    doc = {
        "rows": json_objects(_TRAJECTORY_HEADER, rows, 1),
        "burn_in_k0": json.dumps(report.burn_in_k0),
        "beta1_real_from_k0": json.dumps(report.beta1_real_from_k0),
        "modulus_increasing_from_k0": json.dumps(
            report.modulus_increasing_from_k0),
        "es_ratio_final": json.dumps(rows[-1][4]),
        "max_match_distance_final": json.dumps(rows[-1][7]),
    }
    return _TRAJECTORY_HEADER, rows, {"json": doc}


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
    # Both windows check the sieve cap before they return, so a range past
    # it raises RangeTooLarge before any row.
    ns = args.range
    if args.kind == "chi":
        return ["n", "chi"], zip(ns, chi_values(ns.start, ns[-1])), {}
    header = ["n", "chi", "mertens", "dim", "top_chains", "H1", "alpha"]
    return header, _alpha_cells(alpha_rows(ns.start, ns[-1])), {}


def _alpha_cells(rows):
    # Cells of the rows (n, chi, d, top): H1 = h / den is printed once per
    # d, and alpha = H1 * top / chi is reduced by one gcd, as a Fraction is.
    last = None
    for n, chi, d, top in rows:
        if d != last:
            nums, den = integer_column("H", d)
            h, h1, last = nums[1], _ratio_to_str(nums[1], den), d
        alpha = _ratio_to_str((h if chi > 0 else -h) * top,
                              den * abs(chi)) if d and chi else "NA"
        yield n, chi, 1 - chi, d, top, h1, alpha


def _cmd_pi_weight(args):
    rows = [(args.d, args.x, pi_weight(args.d, args.x))]
    return ["d", "x", "count"], rows, {}


def _cmd_dim_report(args):
    rows = (
        (r.n, r.d, repr(r.estimate), repr(r.ratio), int(r.in_band))
        for r in dim_asymptotic_report(args.n)
    )
    return ["n", "dim", "estimate", "ratio", "in_band"], rows, {}


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
    # Each _cmd_* runs all its checks before it returns (header, rows,
    # docs), and only then is a sink chosen, --output or else out (stdout):
    # a refused run writes no byte and opens no file.
    args = build_parser().parse_args(argv)
    result = args.func(args)
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            _emit(*result, args.format, fh)
    else:
        out = sys.stdout if out is None else out
        if out is None:  # fd 1 was closed when Python started
            raise OSError(errno.EBADF, "stdout is closed")
        _emit(*result, args.format, out)


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
    # One buffered UTF-8 writer on stdout's fd, whatever the locale, also
    # under python -u, retries a short write (the reader closing mid-write)
    # until the pipe fails; freed, it leaves the fd open.  A stdout with no
    # fd (a test's capture) is kept; None (fd 1 closed) is refused by run.
    out = sys.stdout
    try:
        out = open(out.fileno(), "w", 1 if out.line_buffering else -1,
                   "utf-8", newline="", closefd=False)
    except (AttributeError, OSError, ValueError):
        pass
    try:
        run(argv, out)
        if out is not None:
            out.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader of stdout left early, as `| head` does.  Point stdout
        # at devnull so the flush at exit cannot fail again, and return
        # 128 + SIGPIPE quietly, as shell tools do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of each posetzeta module.

The modules bind each other's functions with ``from .x import f``, so a
call goes through the name in the calling module.  ``Tracer.install``
wraps every such binding of a public layer function (and ``cli.run``),
in every module, except a recursive function's binding in its own module:
``f_number`` and ``big_F_number`` then count once per outer call.  The
program's files are not changed; ``uninstall`` restores every binding.

Each span is ``[name, start, end, parent, op]`` in process CPU seconds:
parent is the index of the enclosing span (-1 for none) and op the index
of the operation.
Spans stay in memory until the run writes them out.
"""

import json
import time
from types import CodeType, FunctionType

MODULES = ("cli", "poset", "zeta", "linalg", "polynomial", "subdivision",
           "roots", "primes")

# Functions reported one by one; the self time of all others is summed
# into trace.other_self_s.
REPORTED = (
    "cli.run",
    "linalg.poly_determinant",
    "zeta.zeta_rational",
    "zeta.g_from_chain_vector",
    "subdivision.f_number",
    "subdivision.big_F_number",
    "subdivision.F_polynomial",
    "subdivision.H_vector",
    "subdivision.H_polynomial",
    "subdivision.transfer_iterate",
    "subdivision.f_matrix",
    "poset.load_poset",
    "poset.poset_from_dict",
    "poset.build_poset",
    "poset.barycentric_subdivision",
    "poset.strict_chain_vector",
    "poset.poset_to_dict",
    "poset.dimension",
    "poset.euler_characteristic",
    "roots.find_roots",
    "roots.theorem_report",
    "primes.squarefree_sieve",
    "primes.top_chain_count",
    "primes.alpha_record",
    "primes.chi_Pn",
    "primes.dim_Pn",
    "primes.mertens",
    "primes.pi_weight",
)

# Counters kept at span boundaries, with their units.
COUNTERS = {
    "poset.build_poset.elements": "count",
    "roots.find_roots.failed": "count",
    "roots.find_roots.degree_sum": "count",
    "polynomial.max_coeff_bits": "bits",
    "primes.squarefree_sieve.rebuilds": "count",
}


def _short(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _refers_to(code, name):
    """Whether `code`, or code nested in it (a generator expression, say),
    looks up the global `name`."""
    return name in code.co_names or any(
        _refers_to(const, name)
        for const in code.co_consts
        if isinstance(const, CodeType)
    )


class Tracer:
    """Records spans and counters while ``on`` is true."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self.on = False
        self._stack = []
        self._saved = []
        self._table = None

    # -- installation

    def _targets(self):
        layer_modules = {
            f"{self.package.__name__}.{m}" for m in MODULES if m != "cli"
        }
        for mod_name in MODULES:
            module = getattr(self.package, mod_name)
            for attr, fn in vars(module).items():
                if not isinstance(fn, FunctionType) or attr.startswith("_"):
                    continue
                if fn.__module__ not in layer_modules and _short(fn) != "cli.run":
                    continue
                if fn.__module__ == module.__name__ and _refers_to(
                    fn.__code__, attr
                ):
                    continue  # recursive: keep its inner calls unwrapped
                yield module, attr, fn

    def install(self):
        for module, attr, fn in list(self._targets()):
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = _short(fn)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        clock = time.process_time

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            outcome = None
            rec[1] = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if hook:
                    hook(args, outcome)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters, updated after each traced call with its result or error

    def _after_poset_build_poset(self, args, outcome):
        if not isinstance(outcome, Exception):
            self.counters["poset.build_poset.elements"] += len(outcome)

    def _after_roots_find_roots(self, args, outcome):
        self.counters["roots.find_roots.degree_sum"] += max(args[0].degree, 0)
        if type(outcome).__name__ == "NoConvergence":
            self.counters["roots.find_roots.failed"] += 1

    def _after_zeta_g_from_chain_vector(self, args, outcome):
        if not isinstance(outcome, Exception):
            bits = max(
                (max(abs(c.numerator), c.denominator).bit_length()
                 for c in outcome.coeffs),
                default=0,
            )
            key = "polynomial.max_coeff_bits"
            self.counters[key] = max(self.counters[key], bits)

    def _after_primes_squarefree_sieve(self, args, outcome):
        # The sieve is cached; a table not seen before is a rebuild.
        if outcome is not self._table and not isinstance(outcome, Exception):
            self._table = outcome
            self.counters["primes.squarefree_sieve.rebuilds"] += 1

    # -- results

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def summary(self, cpu):
        """Per-function calls, total and self seconds, plus trace totals.

        Returns {metric name: [value, unit]}.

        Self time is a span's duration minus the durations of its direct
        children.  The reported self times, ``trace.other_self_s`` and
        ``trace.outside_s`` add up to `cpu`, the CPU time of all operations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per = {}
        in_spans = 0.0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            row = per.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
            if parent < 0:
                in_spans += end - start
        out = {}
        for name in REPORTED:
            calls, total, self_s = per.pop(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = [calls, "count"]
            out[f"{name}.total_s"] = [total, "s"]
            out[f"{name}.self_s"] = [self_s, "s"]
        for name, unit in COUNTERS.items():
            out[name] = [self.counters[name], unit]
        calls = out["roots.find_roots.calls"][0]
        failed = self.counters["roots.find_roots.failed"]
        out["roots.find_roots.ok_ratio"] = [
            (calls - failed) / calls if calls else 0.0, "ratio"
        ]
        out["trace.other_self_s"] = [sum(row[2] for row in per.values()), "s"]
        out["trace.outside_s"] = [cpu - in_spans, "s"]
        out["trace.spans"] = [len(self.spans), "count"]
        out["trace.cpu_s"] = [cpu, "s"]
        return out

"""Runtime tracing shims for the benchmark's traced run.

The shims wrap the public functions of each infharm module from outside the
package; the package itself is never edited.  ``calculus``, ``classify``,
``cli`` and ``mapspec`` bind names with ``from .exprcore import ...``, so
every module's binding of a wrapped function is replaced, not only the
defining one.  ``Expr`` operators and ``NumericTension`` methods are
replaced on their classes.

Each call becomes a span (name, start, end, parent, op id) held in flat
arrays.  A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute) for every wrapped module-level function.
FUNCTIONS = (
    ("exprcore.partial", "exprcore", "partial_derivative"),
    ("exprcore.substitute", "exprcore", "substitute"),
    ("exprcore.evaluate", "exprcore", "evaluate"),
    ("exprcore.evaluate", "exprcore", "evaluate_float"),
    ("exprcore.evaluate", "exprcore", "max_term_magnitude"),
    ("exprcore.to_string", "exprcore", "to_string"),
    ("spaces.build_space", "spaces", "build_space"),
    ("spaces.build_space", "spaces", "build_euclidean"),
    ("spaces.christoffel", "spaces", "christoffel"),
    ("mapspec.parse", "mapspec", "parse_mapspec"),
    ("mapspec.materialize", "mapspec", "materialize"),
    ("mapspec.realify", "mapspec", "realify"),
    ("calculus.energy", "calculus", "energy_density"),
    ("calculus.tension", "calculus", "_tension_components"),
    ("calculus.infinity_tension", "calculus", "infinity_tension"),
    ("calculus.witness", "calculus", "_find_witness"),
    ("calculus.sample_points", "calculus", "sample_points"),
    ("calculus.numeric_zero_check", "calculus", "numeric_zero_check"),
    ("calculus.p_tension", "calculus", "p_tension"),
    ("calculus.hessian_form", "calculus", "hessian_form"),
    ("calculus.infinity_laplacian", "calculus", "infinity_laplacian"),
    ("calculus.fd_p_tension", "calculus", "fd_p_tension"),
    ("classify.predict", "classify", "predict"),
    ("classify.cross_validate", "classify", "cross_validate"),
    ("cli", "cli", "main"),
)

# (metric prefix, module, class, attribute) for every wrapped method.
METHODS = (
    ("exprcore.mul", "exprcore", "Expr", "__mul__"),
    ("exprcore.mul", "exprcore", "Expr", "__rmul__"),
    ("exprcore.add", "exprcore", "Expr", "__add__"),
    ("exprcore.add", "exprcore", "Expr", "__radd__"),
    ("exprcore.pow", "exprcore", "Expr", "__pow__"),
    ("calculus.fallback", "calculus", "NumericTension", "__init__"),
    ("calculus.fallback", "calculus", "NumericTension", "at"),
)

OP_SPAN = "op"


class Tracer:
    """Span recorder plus the shims that feed it; install() and uninstall() bracket a traced pass."""

    def __init__(self, ih):
        self.ih = ih
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        # Candidate lists are computed before any shim is in place, so that
        # counting witness points records no spans of its own.  The workloads'
        # domains have at most 4 coordinates.
        find = ih.calculus._witness_candidates
        self._candidates = {n: find(n) for n in range(1, 7)}

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, call):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        idx = self._open(self._id(OP_SPAN))
        try:
            return call()
        finally:
            self._close(idx)
            self.op_id = -1

    def wrap(self, name: str, fn, after=None, on_error=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if on_error is not None:
                    on_error(args, idx, exc)
                raise
            close(idx)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters fed by the shims -------------------------------------------

    def _hooks(self):
        ih, counts = self.ih, self.counts
        Expr = ih.exprcore.Expr
        UnsupportedExpressionError = ih.exprcore.UnsupportedExpressionError
        UnsupportedPairError = ih.classify.UnsupportedPairError

        def mul(args, out):
            a, b = args
            counts["exprcore.mul.term_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, Expr) else 1)
            if isinstance(out, Expr):
                counts["exprcore.mul.out_terms"] += len(out.terms)

        def energy(args, out):
            counts["calculus.energy.out_terms"] += len(out.num.terms)

        def tension(args, out):
            components, clearing, _ = out
            counts["calculus.tension.out_terms"] += sum(len(c.terms) for c in components)
            counts["calculus.tension.clearing_terms"] += len(clearing.terms)
            counts["calculus.symbolic_attempt.attempts"] += 1
            counts["calculus.symbolic_attempt.useful"] += 1

        def tension_failed(args, idx, exc):
            counts["calculus.symbolic_attempt.attempts"] += 1
            if isinstance(exc, UnsupportedExpressionError):
                counts["calculus.symbolic_attempt.wasted_s"] += self.end[idx] - self.start[idx]

        def witness(args, out):
            candidates = self._candidates[args[1]]
            counts["calculus.witness.points_tried"] += candidates.index(out.point) + 1

        def witness_failed(args, idx, exc):
            counts["calculus.witness.points_tried"] += len(self._candidates[args[1]])

        def fallback_point(args, out):
            counts["calculus.fallback.points"] += 1

        def no_predictor(args, idx, exc):
            if isinstance(exc, UnsupportedPairError):
                counts["classify.no_predictor"] += 1

        def verdict(args, out):
            counts[f"classify.verdicts.{out.verdict}"] += 1

        return {
            "__mul__": (mul, None),
            "__rmul__": (mul, None),
            "energy_density": (energy, None),
            "_tension_components": (tension, tension_failed),
            "_find_witness": (witness, witness_failed),
            "at": (fallback_point, None),
            "predict": (None, no_predictor),
            "infinity_tension": (verdict, None),
        }

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items() if name == "infharm" or name.startswith("infharm.")]

    def install(self) -> None:
        hooks = self._hooks()
        modules = self._modules()
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(self.ih, module), attr)
            after, on_error = hooks.get(attr, (None, None))
            shim = self.wrap(name, original, after, on_error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, shim)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(getattr(self.ih, module), cls_name)
            original = cls.__dict__[attr]
            after, on_error = hooks.get(attr, (None, None))
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, after, on_error))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )

"""Seeded workload generators for the benchmark.

A workload is a fixed list of operations, one pass.  Operation ``i`` depends only on
the seed and ``i``, so two runs with the same seed see the same inputs.  A
run repeats the list in passes; the outputs of the first pass make the
workload's digest.  Expected verdicts come from ``reference.json``, which is
written by hand.

The module takes the infharm modules as an argument instead of importing
them, because the set-up phase re-imports the package several times to time
the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

L = "(x1+x2/2+x3/3)"
DEFECT_S = "(x1+3/5*x2+4/5*x3)"
CAMPAIGN_TRIALS_PER_ID = 60     # 1,020 trials a pass, so that op_p99_ms has 1,000 samples
FALLBACK_WINDOWS = 13           # 208 maps a pass, so that op_p95_ms has 200 samples


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``call`` is the timed call into the program.  ``outcome`` turns its
    result into a verdict and a digest record and is not timed.
    """

    key: str
    expected: str
    call: Callable[[], object]
    outcome: Callable[[object], tuple[str, dict]]


VERTICAL_DOMAINS = ("euclid:2", "euclid:3", "semi-euclid:2:-+", "semi-euclid:3:-++")

# Spaces each workload uses; set-up builds them and their connections.
LABELS = {
    "campaign": (
        "euclid:1", "euclid:2", "euclid:3", "euclid:4", "sphere:1", "sphere:2", "sphere:3",
        "conformal:2:1+x1^2+x2^2", "conformal:2:3", "nil", "sol", "semi-euclid:2:-+",
    ),
    "ladder": ("nil", "euclid:3", "sol", "sphere:3", "semi-euclid:3:-++"),
    "fallback": VERTICAL_DOMAINS + ("sol",),
}


def _expected(section: str, key: str, field: str) -> str:
    for entry in REFERENCE[section]:
        if entry[field] == key:
            return entry["verdict"]
    raise KeyError(f"no reference verdict for {section} {key}")


def _rat(rng: random.Random, num: int = 3, den: int = 4) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice([k for k in range(-num, num + 1) if k]), rng.randint(1, den))


def _null_form(rng: random.Random, dim: int) -> str:
    """A linear form s with g(ds, ds) = 0 on semi-euclid:dim with signature -+ or -++."""
    if dim == 2:
        return f"(x1{rng.choice('+-')}x2)"
    p, q = rng.choice([(2, 3), (3, 2)])
    return f"(x1{rng.choice('+-')}3/5*x{p}{rng.choice('+-')}4/5*x{q})"


def _poly(rng: random.Random, s: str, degree: int) -> str:
    """sum_{k=1..degree} c_k s^k with nonzero rational c_k."""
    return "+".join(f"({_rat(rng)})*{s}^{k}" for k in range(1, degree + 1))


# ---------------------------------------------------------------------------
# campaign


def campaign(ih, seed: int) -> list[Op]:
    """One op is one theorem trial, run exactly as run_suite runs it."""
    ids = tuple(ih.classify.THEOREMS)

    def op(i: int) -> Op:
        tid, trial = ids[i % len(ids)], i // len(ids)

        def call():
            classify = ih.classify
            return classify.THEOREMS[tid][1](trial, classify._rng_for(seed, tid, trial), seed)

        def outcome(result):
            ok, detail = result
            return ("agree" if ok else "disagree"), {"detail": detail}

        return Op(f"{tid}#{trial}", REFERENCE["campaign"]["verdict"], call, outcome)

    return [op(i) for i in range(CAMPAIGN_TRIALS_PER_ID * len(ids))]


# ---------------------------------------------------------------------------
# ladder


def _ladder_rungs(seed: int) -> list[tuple[str, str, str, int, list[str]]]:
    """(pair, domain, codomain, degree, components) for every rung, in ladder order."""
    rng = random.Random(f"ladder:{seed}")
    rungs = []
    for entry in REFERENCE["ladder"]:
        pair = entry["pair"]
        for d in entry["degrees"]:
            sign = rng.choice("+-")
            if pair == "nil-euclid3":
                comps = [str(_rat(rng, 5, 4)) for _ in range(3)]
                comps[rng.randrange(3)] = f"{sign}{L}^{d}"
            elif pair == "euclid3-sol":
                comps = ["x1", "x2", f"{sign}{L}^{d}"]
            elif pair == "sphere3-sphere3":
                comps = ["0", "0", "0"]
                comps[rng.randrange(3)] = f"{sign}{L}^{d}"
            else:
                s = _null_form(rng, 3)
                comps = [f"{s}^{d}", f"{s}^2", s]
            rungs.append((pair, entry["domain"], entry["codomain"], d, comps))
    return rungs


def rung_metric(pair: str, degree: int) -> str:
    return f"ladder.rung.{pair}.d{degree}_s"


def check_op(ih, key: str, expected: str, domain: str, codomain: str, document: dict, workdir: str) -> Op:
    """`infharm check` on one map document, in-process, writing its JSON report."""
    name = key.replace("#", "-")
    path = os.path.join(workdir, f"map-{name}.json")
    report = os.path.join(workdir, f"report-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    argv = ["check", "--domain", domain, "--codomain", codomain, "--map", path, "--json", report]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ih.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def outcome(result):
        code, out, err = result
        record = {"exit": code, "stdout": out, "stderr": err}
        if code == 2 or not os.path.exists(report):
            return "error", record
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(report)
        doc.pop("elapsed_s", None)
        record["report"] = doc
        verdict = doc["verdict"]
        if code != {"zero": 0, "nonzero": 1}.get(verdict):
            verdict = "inconsistent"
        return verdict, record

    return Op(key, expected, call, outcome)


def ladder(ih, seed: int, workdir: str) -> list[Op]:
    """One op is `infharm check` on one rung; a pass is every rung once."""
    return [
        check_op(
            ih, f"{pair}.d{d}", _expected("ladder", pair, "pair"), domain, codomain,
            {"kind": "custom", "m": 3, "components": comps}, workdir,
        )
        for pair, domain, codomain, d, comps in _ladder_rungs(seed)
    ]


def ladder_keys() -> list[tuple[str, int]]:
    return [(entry["pair"], d) for entry in REFERENCE["ladder"] for d in entry["degrees"]]


# ---------------------------------------------------------------------------
# fallback

# One window of the fallback workload.  The structure of every slot is fixed,
# so that a window costs about the same under every seed; the seed draws the
# coefficients, the null form and the coordinate.
#   ("null", domain dim, degree of p, "poly" | "exp" second component, its degree, degree of r)
#   ("vertical", domain, f)
FALLBACK_WINDOW = (
    ("null", 2, 1, "poly", 1, 1),
    ("vertical", "euclid:2", "cos"),
    ("null", 3, 1, "poly", 1, 1),
    ("vertical", "euclid:3", "sin"),
    ("null", 2, 2, "exp", 1, 2),
    ("vertical", "semi-euclid:2:-+", "exp"),
    ("null", 3, 2, "poly", 2, 1),
    ("vertical", "semi-euclid:3:-++", "cos"),
    ("null", 2, 2, "poly", 2, 1),
    ("vertical", "euclid:2", "sin"),
    ("null", 3, 1, "exp", 1, 1),
    ("vertical", "euclid:3", "exp"),
    ("null", 3, 2, "exp", 1, 1),
    ("vertical", "semi-euclid:2:-+", "cos"),
    ("vertical", "semi-euclid:3:-++", "sin"),
    ("sol-null-defect",),
)


def fallback_map(seed: int, i: int) -> tuple[str, str, list[str], int]:
    """(family, domain label, components, cross_validate seed) of fallback op i."""
    slot = FALLBACK_WINDOW[i % len(FALLBACK_WINDOW)]
    family = slot[0]
    if family == "sol-null-defect":
        return family, "semi-euclid:3:-++", [f"{DEFECT_S}^2", "0", f"exp({DEFECT_S})"], 0
    rng = random.Random(f"fallback:{seed}:{i}")
    cv_seed = rng.randrange(2**32)
    if family == "vertical":
        _, domain, kind = slot
        x = f"x{rng.randint(1, int(domain.split(':')[1]))}"
        a = _rat(rng)
        if kind == "exp":
            f = f"({a})*exp(({_rat(rng)})*{x})"
        else:
            f = f"({a})*{kind}({x})"
        return family, domain, [str(_rat(rng)), str(_rat(rng)), f], cv_seed
    _, dim, dp, second, dq, dr = slot
    s = _null_form(rng, dim)
    q = _poly(rng, s, dq) if second == "poly" else f"exp({_poly(rng, s, dq)})"
    comps = [_poly(rng, s, dp), q, f"exp({_poly(rng, s, dr)})"]
    return family, f"semi-euclid:{dim}:{'-++' if dim == 3 else '-+'}", comps, cv_seed


def cross_validate_op(ih, key: str, expected: str, domain, codomain, comps: list[str], cv_seed: int) -> Op:
    """cross_validate on a custom map between two prebuilt spaces."""
    to_string = ih.exprcore.to_string  # bound now, so that rendering stays outside any traced span
    spec = ih.mapspec.parse_mapspec({"kind": "custom", "m": domain.dim, "components": comps})

    def render(e):
        return None if e is None else to_string(e)

    def call():
        return ih.classify.cross_validate(domain, codomain, spec, seed=cv_seed)

    def outcome(report):
        direct = report.direct
        w = direct.witness
        return direct.verdict, {
            "map": comps,
            "mode": direct.mode,
            "witness": None if w is None else [[str(v) for v in w.point], w.component, repr(w.value)],
            "components": None if direct.components is None else [render(c) for c in direct.components],
            "tension_clearing": render(direct.tension_clearing),
            "energy": [render(direct.energy_density), render(direct.energy_clearing)],
            "predicted": None if report.predicted is None else report.predicted.tag,
            "agree": report.agree,
            "numeric_ok": report.numeric_ok,
        }

    return Op(key, expected, call, outcome)


def fallback(ih, seed: int, spaces: dict) -> list[Op]:
    """One op is cross_validate on a map into Sol that leaves the decidable class."""

    def op(i: int) -> Op:
        family, domain, comps, cv_seed = fallback_map(seed, i)
        expected = _expected("fallback", family, "family")
        return cross_validate_op(ih, f"{family}#{i}", expected, spaces[domain], spaces["sol"], comps, cv_seed)

    return [op(i) for i in range(FALLBACK_WINDOWS * len(FALLBACK_WINDOW))]

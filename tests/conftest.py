"""Shared generators for seeded random-expression campaigns, and reference float evaluators."""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from infharm.exprcore import Expr, cos_of, exp_of, sin_of


def rand_coeff(rng: Random, num: int = 4, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_polynomial(rng: Random, nvars: int, max_deg: int = 3, terms: int = 4) -> Expr:
    total = Expr.zero(nvars)
    for _ in range(terms):
        t = Expr.const(nvars, rand_coeff(rng))
        for _ in range(rng.randint(0, max_deg)):
            t = t * Expr.coord(nvars, rng.randrange(nvars))
        total = total + t
    return total


def random_expr(
    rng: Random,
    nvars: int,
    max_deg: int = 3,
    terms: int = 3,
    allow_exp: bool = True,
    allow_trig: bool = True,
) -> Expr:
    """Random member of the full expression class, kept numerically tame."""
    total = Expr.zero(nvars)
    for _ in range(terms):
        t = Expr.const(nvars, rand_coeff(rng))
        for _ in range(rng.randint(0, max_deg)):
            t = t * Expr.coord(nvars, rng.randrange(nvars))
        if allow_exp and rng.random() < 0.35:
            exponent = Expr.zero(nvars)
            for _ in range(rng.randint(1, 2)):
                exponent = exponent + rng.randint(-2, 2) * Expr.coord(nvars, rng.randrange(nvars))
            t = t * exp_of(exponent)
        if allow_trig and rng.random() < 0.35:
            i = rng.randrange(nvars)
            t = t * (cos_of(nvars, i) if rng.random() < 0.5 else sin_of(nvars, i))
            if rng.random() < 0.3:
                j = rng.randrange(nvars)
                t = t * (cos_of(nvars, j) if rng.random() < 0.5 else sin_of(nvars, j))
        total = total + t
    return total


def random_point(rng: Random, nvars: int, den: int = 8) -> list[Fraction]:
    return [Fraction(rng.randint(-den, den), den) for _ in range(nvars)]


# ---------------------------------------------------------------------------
# Exponent keys as the oracles read them: (coords, Fraction) pairs in coords
# order.  ``exprcore`` stores a key as ``(den, ((coords, num), ...))``.


def decode_key(expk) -> tuple:
    """The (coords, Fraction) pairs of an exponent key; () when there is no exponential."""
    if not expk:
        return ()
    den, nums = expk
    return tuple((coords, Fraction(n, den)) for coords, n in nums)


def encode_key(pairs) -> tuple:
    """The exponent key of (coords, nonzero Fraction) pairs; () when there are none."""
    pairs = sorted(pairs)
    if not pairs:
        return ()
    den = math.lcm(*(c.denominator for _, c in pairs))
    return (den, tuple((coords, c.numerator * (den // c.denominator)) for coords, c in pairs))


# ---------------------------------------------------------------------------
# Per-expression float evaluation, kept as the reference for the compiled
# evaluator (``exprcore.FloatProgram``): one call per expression, one
# monomial at a time, every exponent recomputed for every monomial.


def _reference_key_float(key, point) -> float:
    num, den = 0, 1
    for coords, c in decode_key(key):
        n, d = c.numerator, c.denominator
        for i, p in coords:
            x = point[i]
            n *= x.numerator ** p
            d *= x.denominator ** p
        num = num * d + n * den
        den *= d
    return num / den


def _reference_mono(mono, coeff, pt, fl) -> float:
    coords, expk, trig = mono
    v = coeff.numerator / coeff.denominator
    for i, p in coords:
        v *= fl[i] ** p
    if expk:
        try:
            v *= math.exp(_reference_key_float(expk, pt))
        except OverflowError:
            v = math.inf if v > 0 else -math.inf
    for i, cp, sp in trig:
        x = fl[i]
        if cp:
            v *= math.cos(x) ** cp
        if sp:
            v *= math.sin(x) ** sp
    return v


def reference_evaluate(e: Expr, point) -> float:
    pt = [x if isinstance(x, Fraction) else Fraction(x) for x in point]
    assert len(pt) == e.nvars
    fl = [x.numerator / x.denominator for x in pt]
    total = 0.0
    for mono, c in e.terms.items():
        total += _reference_mono(mono, c, pt, fl)
    return total


def reference_max_term_magnitude(e: Expr, point) -> float:
    pt = [x if isinstance(x, Fraction) else Fraction(x) for x in point]
    fl = [x.numerator / x.denominator for x in pt]
    best = 0.0
    for mono, c in e.terms.items():
        best = max(best, abs(_reference_mono(mono, c, pt, fl)))
    return best


def reference_evaluate_float(e: Expr, point) -> float:
    assert len(point) == e.nvars
    total = 0.0
    for (coords, expk, trig), c in e.terms.items():
        v = float(c)
        for i, p in coords:
            v *= point[i] ** p
        if expk:
            arg = 0.0
            for kcoords, kc in decode_key(expk):
                t = float(kc)
                for i, p in kcoords:
                    t *= point[i] ** p
                arg += t
            try:
                v *= math.exp(arg)
            except OverflowError:
                v = math.inf if v > 0 else -math.inf
        for i, cp, sp in trig:
            if cp:
                v *= math.cos(point[i]) ** cp
            if sp:
                v *= math.sin(point[i]) ** sp
        total += v
    return total


# ---------------------------------------------------------------------------
# Rendering as it was before the integer storage, kept as the reference for
# ``exprcore.to_string``: one Fraction per coefficient, and every exponent
# key rendered again for every monomial that carries it.


def _reference_sort_key(mono):
    coords, expk, trig = mono
    deg = sum(p for _, p in coords) + sum(cp + sp for _, cp, sp in trig)
    return (-deg, coords, decode_key(expk), trig)


def _reference_max_index(mono) -> int:
    coords, expk, trig = mono
    idx = [i for i, _ in coords] + [i for i, _, _ in trig]
    for kcoords, _ in decode_key(expk):
        idx.extend(i for i, _ in kcoords)
    return max(idx, default=0)


def _reference_render_mono(mono) -> str:
    coords, expk, trig = mono
    parts = []
    for i, p in coords:
        parts.append(f"x{i + 1}" + (f"^{p}" if p > 1 else ""))
    if expk:
        inner = reference_to_string(
            Expr(_reference_max_index(mono) + 1, {(kc, (), ()): c for kc, c in decode_key(expk)})
        )
        parts.append(f"exp({inner})")
    for i, cp, sp in trig:
        if cp:
            parts.append(f"cos(x{i + 1})" + (f"^{cp}" if cp > 1 else ""))
        if sp:
            parts.append(f"sin(x{i + 1})")
    return "*".join(parts)


def reference_to_string(e: Expr) -> str:
    if not e.terms:
        return "0"
    pieces = []
    for mono in sorted(e.terms, key=_reference_sort_key):
        c = e.terms[mono]
        body = _reference_render_mono(mono)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + text)
    return " ".join(pieces)

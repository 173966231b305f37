"""Shared generators for seeded random-expression campaigns, and reference evaluators and parsers."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from random import Random

from infharm.exprcore import Expr, ExprParseError, cos_of, exp_of, sin_of
from infharm.mapspec import _cpoly_add, _cpoly_const, _cpoly_mul, _cpoly_pow, _cpoly_var


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


def random_cpoly(rng: Random, m: int) -> dict:
    """A nonzero Gaussian-rational polynomial in m variables: 1-3 terms of degree <= 3."""
    poly = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * m
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(m)] += 1
        poly[tuple(mono)] = (rand_coeff(rng), rand_coeff(rng))
    poly = {k: v for k, v in poly.items() if v != (Fraction(0), Fraction(0))}
    return poly or {(0,) * m: (Fraction(1), Fraction(0))}


def reference_materialize(spec) -> tuple[Expr, ...]:
    """An affine or quadratic map's components as the running sum b + sum_ij q_ij x_i x_j + sum_j A_j x_j."""
    m = spec.domain_dim
    xs = [Expr.coord(m, i) for i in range(m)]
    out = []
    for alpha in range(spec.codomain_dim):
        comp = Expr.const(m, spec.b[alpha])
        q = () if spec.quad is None else spec.quad[alpha]
        for i, row in enumerate(q):
            for j, v in enumerate(row):
                if v != 0:
                    comp = comp + v * xs[i] * xs[j]
        for j in range(m):
            comp = comp + spec.A[alpha][j] * xs[j]
        out.append(comp)
    return tuple(out)


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


def _overflowed(v: float) -> float:
    """A partial product times an overflowing exponential: +-inf by its sign; 0.0 and nan stay."""
    if v > 0:
        return math.inf
    if v < 0:
        return -math.inf
    return v


def _reference_mono(mono, coeff, pt, fl) -> float:
    coords, expk, trig = mono
    v = coeff.numerator / coeff.denominator
    for i, p in coords:
        v *= fl[i] ** p
    if expk:
        try:
            v *= math.exp(_reference_key_float(expk, pt))
        except OverflowError:
            v = _overflowed(v)
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


def _reference_mono_float(mono, coeff, point) -> float:
    coords, expk, trig = mono
    v = float(coeff)
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
            v = _overflowed(v)
    for i, cp, sp in trig:
        if cp:
            v *= math.cos(point[i]) ** cp
        if sp:
            v *= math.sin(point[i]) ** sp
    return v


def reference_evaluate_float(e: Expr, point) -> float:
    assert len(point) == e.nvars
    total = 0.0
    for mono, c in e.terms.items():
        total += _reference_mono_float(mono, c, point)
    return total


def reference_max_term_magnitude_float(e: Expr, point) -> float:
    best = 0.0
    for mono, c in e.terms.items():
        best = max(best, abs(_reference_mono_float(mono, c, point)))
    return best


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


# ---------------------------------------------------------------------------
# Complex-polynomial parsing as it was before ``mapspec.parse_cpoly`` went
# through ``exprcore``'s parser, kept as its reference: its own tokenizer and
# recursive descent, with the operand order of every ``_cpoly_*`` call.


def _reference_ctokenize(s: str):
    tokens = []
    for match in re.finditer(r"\s*(\d+\.\d+|\d+|[A-Za-z_]\w*|[-+*/^()])", s):
        text = match.group(1)
        if text[0].isdigit():
            tokens.append(("num", text))
        elif text[0].isalpha() or text[0] == "_":
            tokens.append(("name", text))
        else:
            tokens.append((text, text))
    consumed = sum(len(t) for _, t in tokens)
    if len(s.replace(" ", "").replace("\t", "")) != consumed:
        raise ExprParseError(f"unexpected characters in complex polynomial {s!r}")
    tokens.append(("end", ""))
    return tokens


class _ReferenceCParser:
    def __init__(self, tokens, m: int):
        self.tokens = tokens
        self.pos = 0
        self.m = m

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprParseError(f"expected {kind}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.parse_term()
            if op == "-":
                rhs = {k: (-r, -i) for k, (r, i) in rhs.items()}
            value = _cpoly_add(value, rhs)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.parse_factor()
            if op == "*":
                value = _cpoly_mul(value, rhs)
            else:
                if set(rhs) - {(0,) * self.m}:
                    raise ExprParseError("division is allowed by constants only")
                re_, im = rhs.get((0,) * self.m, (Fraction(0), Fraction(0)))
                if im != 0 or re_ == 0:
                    raise ExprParseError("division is allowed by nonzero real constants only")
                value = _cpoly_mul(value, _cpoly_const(self.m, Fraction(1) / re_, Fraction(0)))
        return value

    def parse_factor(self):
        kind, _ = self.peek()
        if kind in "+-":
            self.take()
            inner = self.parse_factor()
            if kind == "-":
                inner = {k: (-r, -i) for k, (r, i) in inner.items()}
            return inner
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.take()
            num = self.take("num")[1]
            if "." in num:
                raise ExprParseError(f"power must be an integer, got {num!r}")
            return _cpoly_pow(base, self.m, int(num))
        return base

    def parse_base(self):
        kind, text = self.take()
        if kind == "num":
            return _cpoly_const(self.m, Fraction(text), Fraction(0))
        if kind == "(":
            inner = self.parse_expr()
            self.take(")")
            return inner
        if kind == "name":
            if text == "i":
                return _cpoly_const(self.m, Fraction(0), Fraction(1))
            idx = None
            if text.startswith("z") and text[1:].isdigit():
                idx = int(text[1:])
            elif text == "z":
                idx = 1
            elif text == "w":
                idx = 2
            if idx is None:
                raise ExprParseError(f"unknown name {text!r} in complex polynomial")
            if not 1 <= idx <= self.m:
                raise ExprParseError(
                    f"variable {text!r} out of range for {self.m} complex variables"
                )
            return _cpoly_var(self.m, idx - 1)
        raise ExprParseError(f"unexpected token {text!r}")


def reference_parse_cpoly(s: str, m: int) -> dict:
    parser = _ReferenceCParser(_reference_ctokenize(s), m)
    value = parser.parse_expr()
    parser.take("end")
    return value

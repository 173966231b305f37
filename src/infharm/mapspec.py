"""Map families with exact rational data.

Four kinds of maps are supported, mirroring the JSON schema below:

* ``affine``      X -> A X + b
* ``quadratic``   X -> (X^t A_1 X, ..., X^t A_n X) + A X + b, each A_i symmetric
* ``custom``      components given as expression strings
* ``holomorphic`` polynomial components C^m -> C^n with Gaussian-rational
                  coefficients, realified to a map R^2m -> R^2n using the
                  conventions z_j = x_j - i y_j and w_a = u_a - i v_a

JSON document::

    {"kind": "affine",      "A": [[rat]], "b": [rat]}
    {"kind": "quadratic",   "quad": [[[rat]]], "A": [[rat]], "b": [rat]}
    {"kind": "custom",      "m": int, "components": ["x1^2 + cos(x2)", ...]}
    {"kind": "holomorphic", "m": int, "complex": ["(1+i)*z1^2 + 3", ...]}

where ``rat`` is an integer or a string "p/q" / finite decimal.  Quadratic
matrices must be symmetric as given; asymmetric input is rejected rather
than silently symmetrized.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .exprcore import (
    MAX_POWER_TERMS,
    MONO_ONE,
    Expr,
    ExprParseError,
    UnsupportedExpressionError,
    _check_power,
    _coordinate,
    _Parser,
    _term_bound,
    parse_expr,
    parse_rational,
    to_string,
)

RatMatrix = tuple[tuple[Fraction, ...], ...]
RatVector = tuple[Fraction, ...]

# Gaussian-rational polynomial: exponent tuple -> (real, imag) coefficients
CPoly = dict[tuple[int, ...], tuple[Fraction, Fraction]]


class MapSpecError(ValueError):
    """Validation failure, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# complex polynomial helpers


def _cpoly_add(a: CPoly, b: CPoly) -> CPoly:
    out = dict(a)
    for mono, (re, im) in b.items():
        r0, i0 = out.get(mono, (Fraction(0), Fraction(0)))
        r, i = r0 + re, i0 + im
        if r == 0 and i == 0:
            out.pop(mono, None)
        else:
            out[mono] = (r, i)
    return out


def _cpoly_mul(a: CPoly, b: CPoly) -> CPoly:
    out: CPoly = {}
    for m1, (r1, i1) in a.items():
        for m2, (r2, i2) in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            re = r1 * r2 - i1 * i2
            im = r1 * i2 + i1 * r2
            r0, i0 = out.get(mono, (Fraction(0), Fraction(0)))
            r, i = r0 + re, i0 + im
            if r == 0 and i == 0:
                out.pop(mono, None)
            else:
                out[mono] = (r, i)
    return out


def _cpoly_const(m: int, re: Fraction, im: Fraction) -> CPoly:
    if re == 0 and im == 0:
        return {}
    return {(0,) * m: (re, im)}


def _cpoly_var(m: int, idx: int) -> CPoly:
    mono = tuple(1 if k == idx else 0 for k in range(m))
    return {mono: (Fraction(1), Fraction(0))}


def _cpoly_pow(a: CPoly, m: int, n: int) -> CPoly:
    out = _cpoly_const(m, Fraction(1), Fraction(0))
    for _ in range(n):
        out = _cpoly_mul(out, a)
    return out


def cpoly_degree(a: CPoly) -> int:
    return max((sum(mono) for mono in a), default=0)


@dataclass(frozen=True)
class ComplexPolyMap:
    """Polynomial map C^m -> C^n with Gaussian-rational coefficients."""

    m: int
    n: int
    components: tuple[CPoly, ...]


class _GaussianRing:
    """Gaussian-rational polynomials in z1..z<m> (aliases z, w) for exprcore's parser.

    ``i`` is the imaginary unit, there are no functions, and a divisor must be
    a nonzero real constant.
    """

    funcs = ()
    add, mul = staticmethod(_cpoly_add), staticmethod(_cpoly_mul)

    def __init__(self, m: int):
        self.m = m

    def const(self, value: Fraction) -> CPoly:
        return _cpoly_const(self.m, value, Fraction(0))

    def name(self, text: str) -> CPoly:
        if text == "i":
            return _cpoly_const(self.m, Fraction(0), Fraction(1))
        return _cpoly_var(self.m, _coordinate(text, "z", {"z": 1, "w": 2}, self.m))

    def neg(self, value: CPoly) -> CPoly:
        return {k: (-r, -i) for k, (r, i) in value.items()}

    def power(self, value: CPoly, n: int) -> CPoly:
        """value^n, refused by ``_check_power`` before it is expanded.

        |re| + |im| is submultiplicative, so it plays the part of |coefficient|.
        """
        parts = [x for pair in value.values() for x in pair]
        den = math.lcm(*(x.denominator for x in parts))
        magnitude = sum(abs(x.numerator) * (den // x.denominator) for x in parts)
        shape = (len({i for mono in value for i, e in enumerate(mono) if e}), cpoly_degree(value))
        _check_power(n, len(value), _term_bound(len(value), n, MAX_POWER_TERMS, shape), magnitude, den)
        return _cpoly_pow(value, self.m, n)

    def div(self, value: CPoly, divisor: CPoly) -> CPoly:
        one = (0,) * self.m
        re, im = divisor.get(one, (Fraction(0), Fraction(0)))
        if set(divisor) - {one} or im != 0 or re == 0:
            raise ExprParseError("division is allowed by nonzero real constants only")
        return _cpoly_mul(value, _cpoly_const(self.m, Fraction(1) / re, Fraction(0)))


def parse_cpoly(s: str, m: int) -> CPoly:
    """Parse a polynomial string over z1..z<m> with Gaussian-rational coefficients."""
    return _Parser(s, _GaussianRing(m)).parse()


def cpoly_to_string(p: CPoly, m: int) -> str:
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=lambda mo: (-sum(mo), mo)):
        re, im = p[mono]
        body = "*".join(
            f"z{k + 1}" + (f"^{e}" if e > 1 else "")
            for k, e in enumerate(mono)
            if e
        )
        if im == 0:
            coeff = str(re)
        elif re == 0:
            coeff = f"{im}*i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        else:
            sign = "+" if im > 0 else "-"
            imag = f"{abs(im)}*i" if abs(im) != 1 else "i"
            coeff = f"({re}{sign}{imag})"
        if body:
            piece = body if coeff == "1" else (f"-{body}" if coeff == "-1" else f"{coeff}*{body}")
        else:
            piece = coeff
        pieces.append(piece)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-") and not piece.startswith("-("):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


# ---------------------------------------------------------------------------
# MapSpec


@dataclass(frozen=True)
class MapSpec:
    kind: str                                   # affine | quadratic | custom | holomorphic
    domain_dim: int                             # real dimension of the domain
    codomain_dim: int                           # real dimension of the codomain
    A: RatMatrix | None = None
    b: RatVector | None = None
    quad: tuple[RatMatrix, ...] | None = None
    components: tuple[Expr, ...] | None = None
    complex_map: ComplexPolyMap | None = None


def affine_map(A, b=None) -> MapSpec:
    A = tuple(tuple(Fraction(v) for v in row) for row in A)
    n = len(A)
    m = len(A[0]) if n else 0
    if any(len(row) != m for row in A):
        raise MapSpecError("A", "ragged matrix")
    bt = tuple(Fraction(v) for v in b) if b is not None else (Fraction(0),) * n
    if len(bt) != n:
        raise MapSpecError("b", f"expected {n} entries, got {len(bt)}")
    return MapSpec(kind="affine", domain_dim=m, codomain_dim=n, A=A, b=bt)


def quadratic_map(quad, A=None, b=None) -> MapSpec:
    quads = tuple(tuple(tuple(Fraction(v) for v in row) for row in q) for q in quad)
    n = len(quads)
    if n == 0:
        raise MapSpecError("quad", "needs at least one matrix")
    m = len(quads[0])
    for qi, q in enumerate(quads):
        if len(q) != m or any(len(row) != m for row in q):
            raise MapSpecError(f"quad[{qi}]", f"expected {m}x{m} matrix")
        for i in range(m):
            for j in range(i + 1, m):
                if q[i][j] != q[j][i]:
                    raise MapSpecError(
                        f"quad[{qi}]",
                        f"matrix is not symmetric at ({i},{j}); symmetrize"
                        " explicitly via (M + M^t)/2 if that is intended",
                    )
    if A is None:
        At = tuple((Fraction(0),) * m for _ in range(n))
    else:
        At = tuple(tuple(Fraction(v) for v in row) for row in A)
        if len(At) != n or any(len(row) != m for row in At):
            raise MapSpecError("A", f"expected {n}x{m} matrix")
    bt = tuple(Fraction(v) for v in b) if b is not None else (Fraction(0),) * n
    if len(bt) != n:
        raise MapSpecError("b", f"expected {n} entries, got {len(bt)}")
    return MapSpec(kind="quadratic", domain_dim=m, codomain_dim=n, A=At, b=bt, quad=quads)


def custom_map(m: int, components: list[Expr]) -> MapSpec:
    comps = tuple(components)
    for idx, comp in enumerate(comps):
        if comp.nvars != m:
            raise MapSpecError(
                f"components[{idx}]", f"uses {comp.nvars} coordinates, domain has {m}"
            )
    return MapSpec(kind="custom", domain_dim=m, codomain_dim=len(comps), components=comps)


def holomorphic_map(cmap: ComplexPolyMap) -> MapSpec:
    return MapSpec(
        kind="holomorphic",
        domain_dim=2 * cmap.m,
        codomain_dim=2 * cmap.n,
        complex_map=cmap,
    )


def realify(cmap: ComplexPolyMap) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
    """Real and imaginary parts (u_1..u_n), (v_1..v_n) of a holomorphic map.

    Coordinates of the real map are (x_1..x_m, y_1..y_m); the conventions
    z_j = x_j - i y_j and w = u - i v make u = Re(w) and v = -Im(w).
    """
    m, nv = cmap.m, 2 * cmap.m
    xs = [Expr.coord(nv, j) for j in range(m)]
    ys = [Expr.coord(nv, m + j) for j in range(m)]
    us, vs = [], []
    for comp in cmap.components:
        re_total = Expr.zero(nv)
        im_total = Expr.zero(nv)
        for mono, (cr, ci) in comp.items():
            re_part = Expr.const(nv, cr)
            im_part = Expr.const(nv, ci)
            for j, e in enumerate(mono):
                for _ in range(e):
                    # multiply (re + i*im) by z_j = x_j - i y_j
                    re_part, im_part = (
                        re_part * xs[j] + im_part * ys[j],
                        im_part * xs[j] - re_part * ys[j],
                    )
            re_total = re_total + re_part
            im_total = im_total + im_part
        us.append(re_total)
        vs.append(-im_total)
    return tuple(us), tuple(vs)


def _affine_component(spec: MapSpec, alpha: int) -> Expr:
    """Component alpha of an affine or quadratic map, as one {monomial: coefficient} dict.

    The terms come in the order of a running sum b + sum_ij q_ij x_i x_j +
    sum_j A_j x_j: the constant, the quadratic monomials in (i, j) scan
    order, then the linear terms; a coefficient that sums to zero is dropped.
    """
    terms: dict = {}

    def add(mono, value):
        if mono not in terms:
            terms[mono] = value
        elif terms[mono] + value:
            terms[mono] += value
        else:
            del terms[mono]

    if spec.b[alpha]:
        add(MONO_ONE, spec.b[alpha])
    for i, row in enumerate(() if spec.quad is None else spec.quad[alpha]):
        for j, v in enumerate(row):
            if v:
                add((((i, 2),) if i == j else ((min(i, j), 1), (max(i, j), 1)), (), ()), v)
    for j, v in enumerate(spec.A[alpha]):
        if v:
            add((((j, 1),), (), ()), v)
    return Expr(spec.domain_dim, terms)


def materialize(spec: MapSpec) -> tuple[Expr, ...]:
    """The map's components as canonical expressions over the domain coordinates."""
    if spec.kind in ("affine", "quadratic"):
        return tuple(_affine_component(spec, alpha) for alpha in range(spec.codomain_dim))
    if spec.kind == "custom":
        return spec.components
    if spec.kind == "holomorphic":
        us, vs = realify(spec.complex_map)
        return us + vs
    raise MapSpecError("kind", f"unknown kind {spec.kind!r}")


def pad_components(spec: MapSpec, codomain_dim: int) -> MapSpec:
    """Zero-pad a map to `codomain_dim` components (explicit opt-in only).

    Needed e.g. to feed a scalar quadratic into a three-dimensional target;
    padding never happens implicitly because it changes the map.
    """
    n = spec.codomain_dim
    if n == codomain_dim:
        return spec
    if n > codomain_dim:
        raise MapSpecError(
            "components", f"map has {n} components, cannot shrink to {codomain_dim}"
        )
    m = spec.domain_dim
    extra = codomain_dim - n
    if spec.kind == "custom":
        return replace(
            spec, codomain_dim=codomain_dim, components=spec.components + (Expr.zero(m),) * extra
        )
    if spec.kind not in ("affine", "quadratic"):
        raise MapSpecError("kind", f"cannot pad a {spec.kind} map")
    zero_row = (Fraction(0),) * m
    return replace(
        spec,
        codomain_dim=codomain_dim,
        A=spec.A + (zero_row,) * extra,
        b=spec.b + (Fraction(0),) * extra,
        quad=None if spec.quad is None else spec.quad + ((zero_row,) * m,) * extra,
    )


# ---------------------------------------------------------------------------
# JSON ingestion and serialization


def _rat(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise MapSpecError(path, str(exc)) from None


def _rat_matrix(rows, path: str) -> RatMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise MapSpecError(path, "expected a list of rows")
    width = len(rows[0])
    out = []
    for ri, row in enumerate(rows):
        if len(row) != width:
            raise MapSpecError(f"{path}[{ri}]", f"expected {width} entries, got {len(row)}")
        out.append(_rat_vector(row, f"{path}[{ri}]"))
    return tuple(out)


def _rat_vector(values, path: str) -> RatVector:
    if not isinstance(values, list):
        raise MapSpecError(path, "expected a list of entries")
    return tuple(_rat(v, f"{path}[{i}]") for i, v in enumerate(values))


def parse_mapspec(document) -> MapSpec:
    """Validate a map document (dict or JSON string) into a MapSpec."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MapSpecError("$", f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise MapSpecError("$", "expected a JSON object")
    kind = document.get("kind")
    try:
        if kind == "affine":
            A = _rat_matrix(document["A"], "A")
            b = _rat_vector(document["b"], "b") if "b" in document else None
            return affine_map(A, b)
        if kind == "quadratic":
            quads = document["quad"]
            if not isinstance(quads, list) or not quads:
                raise MapSpecError("quad", "expected a nonempty list of matrices")
            qs = [_rat_matrix(q, f"quad[{qi}]") for qi, q in enumerate(quads)]
            A = _rat_matrix(document["A"], "A") if "A" in document else None
            b = _rat_vector(document["b"], "b") if "b" in document else None
            return quadratic_map(qs, A, b)
        if kind == "custom":
            m = document.get("m")
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise MapSpecError("m", "custom maps need a positive integer domain dimension")
            comps = document.get("components")
            if not isinstance(comps, list) or not comps:
                raise MapSpecError("components", "expected a nonempty list of expression strings")
            parsed = []
            for i, text in enumerate(comps):
                if not isinstance(text, str):
                    raise MapSpecError(f"components[{i}]", "expected an expression string")
                try:
                    parsed.append(parse_expr(text, m))
                except (ExprParseError, UnsupportedExpressionError) as exc:
                    raise MapSpecError(f"components[{i}]", str(exc)) from None
            return custom_map(m, parsed)
        if kind == "holomorphic":
            m = document.get("m")
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise MapSpecError("m", "holomorphic maps need a positive integer variable count")
            comps = document.get("complex")
            if not isinstance(comps, list) or not comps:
                raise MapSpecError("complex", "expected a nonempty list of polynomial strings")
            parsed = []
            for i, text in enumerate(comps):
                if not isinstance(text, str):
                    raise MapSpecError(f"complex[{i}]", "expected a polynomial string")
                try:
                    parsed.append(parse_cpoly(text, m))
                except ExprParseError as exc:
                    raise MapSpecError(f"complex[{i}]", str(exc)) from None
            cmap = ComplexPolyMap(m=m, n=len(parsed), components=tuple(parsed))
            return holomorphic_map(cmap)
    except KeyError as exc:
        raise MapSpecError(str(exc.args[0]), "missing required field") from None
    raise MapSpecError("kind", f"unknown kind {kind!r}")


def serialize_mapspec(spec: MapSpec) -> dict:
    if spec.kind in ("affine", "quadratic"):
        doc = {
            "kind": spec.kind,
            "A": [[str(v) for v in row] for row in spec.A],
            "b": [str(v) for v in spec.b],
        }
        if spec.quad is not None:
            doc["quad"] = [[[str(v) for v in row] for row in q] for q in spec.quad]
        return doc
    if spec.kind == "custom":
        return {
            "kind": "custom",
            "m": spec.domain_dim,
            "components": [to_string(c) for c in spec.components],
        }
    if spec.kind == "holomorphic":
        cm = spec.complex_map
        return {
            "kind": "holomorphic",
            "m": cm.m,
            "complex": [cpoly_to_string(c, cm.m) for c in cm.components],
        }
    raise MapSpecError("kind", f"unknown kind {spec.kind!r}")


def map_digest(spec: MapSpec) -> str:
    return _digest(serialize_mapspec(spec))


def _digest(document: dict) -> str:
    """The digest of a map from its ``serialize_mapspec`` document."""
    blob = json.dumps(document, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]

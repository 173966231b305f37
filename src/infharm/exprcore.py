"""Exact symbolic expressions with a decidable zero test.

An expression is a finite sum of monomials with rational coefficients.
Monomials are built from three kinds of atoms over ``nvars`` coordinates:

* coordinate powers ``x_i^k``,
* at most one exponential factor ``exp(p)`` whose exponent ``p`` is a
  nonzero polynomial in the coordinates (products merge additively:
  ``exp(p)*exp(q) -> exp(p+q)``, and ``exp(0)`` disappears),
* trigonometric factors ``cos(x_i)^a * sin(x_i)^e`` of single
  coordinates, normalized so that ``e <= 1`` via ``sin^2 = 1 - cos^2``.

A monomial is stored as a hashable triple ``(coords, expkey, trig)``:

  coords:  tuple of (index, power), sorted, powers >= 1
  expkey:  storage of the exponent polynomial, () when absent: a pair
           (den, ((coords, num), ...)) normalised like an Expr (below),
           its int numerators sorted by coords
  trig:    tuple of (index, cos_power, sin_power), sorted, with
           sin_power in {0, 1} and (cos_power, sin_power) != (0, 0)

Because coefficients are exact rationals and the canonical form stores no
zero coefficients, an expression is identically zero iff it stores no
terms: exponentials with distinct exponent polynomials are linearly
independent over rational-coefficient trig polynomials, and the
sin-reduced trig monomials are linearly independent over the polynomial
ring.  ``is_zero`` is therefore a structural check.

Storage.  An ``Expr`` holds one positive integer denominator ``den`` and a
dict ``nums`` from monomial to nonzero integer numerator, so the
coefficient of ``m`` is ``nums[m] / den``.  The pair is normalised:
``gcd(den, *nums) == 1`` (and ``den == 1`` when there are no terms), which
makes ``den`` the lcm of the reduced coefficient denominators and equality
a comparison of ``den`` and ``nums``.  Every exact operation runs on Python
ints: a sum scales both operands to the lcm of their denominators, a
product multiplies numerators over ``den_a * den_b``, a derivative puts
the chain-rule factors of the exponents over their lcm denominator, and
each result is normalised by one gcd.  ``Expr.terms`` is a read-only
mapping view that builds a ``Fraction`` only when a coefficient is read;
its length, truth value, membership and key iteration read ``nums``
directly.  An exponent key reads back as an ``Expr`` (``_key_expr``), so
key sums, derivatives, substitution and evaluation run the code of every
other polynomial; only the term order of ``to_string`` turns a key's
coefficients into ``Fraction`` values, so that keys compare by value.

The iteration order of ``Expr.terms`` is part of the contract: float
evaluation sums the terms in that order, so a different order can change
the last bits of a value and move a witness near a numeric threshold.  A
product visits the pairs of terms in nested term order and lists each
output monomial where it was first inserted; a running sum that reaches
zero is dropped, and a later contribution re-inserts it at the end.  A
product with a constant operand is therefore the other operand's terms in
their own order, scaled; it takes that shortcut.

Multiplication is one integer kernel for every kind of term:

* the stored numerators are multiplied as they are, and the product sums
  ``na*nb`` in Python ints over ``den_a * den_b``;
* each coordinate tuple is packed into one int, with a field width taken
  from the operands, ``(max power of a + max power of b).bit_length()``,
  so a field never carries and packed keys add like coordinate tuples;
* the exp-key sum and the sin^2 reduction depend only on the
  ``(expkey, trig)`` parts of two terms, so they are computed once per
  distinct pair of parts in a product and replayed for every term pair;
* each output term is unpacked once.

Float evaluation is one compiled evaluator, ``FloatProgram``.  It serves
``evaluate``, ``evaluate_float`` and ``max_term_magnitude``, and the sampled
checks in ``calculus`` evaluate their expressions at all their points in one
batch.  Compilation turns each expression into rows in ``Expr.terms`` order.
A batch computes one column (a value per point) per coordinate power,
distinct cos/sin power and distinct exponent key (its slot); then, row by
row, it multiplies the row's coefficient by its factor columns in the order
(coordinate powers, exponential, trig factors) and adds the terms to the
expression's running column, one C-level ``map`` per step.  The values are
bit-identical to a loop that evaluates point by point and monomial by
monomial: each point sees the same floats (``x**p``, ``cos(x)**a``, ``exp``
of the exponent summed exactly at a rational point, or in floats at a float
point) and the same operations in the same order, and ``max(best, abs(v))``
replaces ``best`` exactly when ``abs(v) > best`` does, nan included.  An
overflowing ``exp`` makes the term +-inf by the sign of the product so far,
and keeps a product of 0.0 or nan.  A row's float coefficient is
``num / den`` on the stored ints; int true division is correctly rounded, so
it equals float() of the reduced ``Fraction`` coefficient.  ``at`` and
``at_float`` are batches of one point.

Evaluation modulo a prime.  ``jet_residues`` evaluates an expression, its
gradient and its Hessian under one map psi into F_q for a prime q: x_i goes
to an integer p_i, (cos x_i, sin x_i) to a point (c_i, s_i) of the circle
c^2 + s^2 = 1 over F_q, and exp(g) to chi(g) for a ``Character`` chi, a
homomorphism from the additive group of exponents into the units of F_q.
On the expressions whose denominators q does not divide, psi is a ring
homomorphism of the group ring of the exponent group over Q[x, cos, sin]:
it respects sin^2 = 1 - cos^2 and exp(g) exp(h) = exp(g + h).  That ring
embeds in the functions on the chart.  For polynomial exponents this is the
linear independence stated above.  An exponent may also carry exp or trig
terms of its own (a tower, which arises when a metric with exponentials is
composed with a map); then it is Borel's theorem on sums of exponentials
(Borel 1897), with Lindemann-Weierstrass for exponents that differ by a
rational constant.  So psi(e) != 0 proves that e is not the zero function.
A zero image proves nothing: a nonzero e vanishes at a random point only
with small probability (Schwartz 1980, Zippel 1979), and a caller treats a
zero as undecided.

All values are immutable after construction and all operations are pure;
expressions may be shared freely across threads.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter, mul
from typing import Sequence

Coords = tuple[tuple[int, int], ...]
PolyKey = tuple[int, tuple[tuple[Coords, int], ...]]  # or () for no exponential
Trig = tuple[tuple[int, int, int], ...]
Mono = tuple[Coords, PolyKey, Trig]

MONO_ONE: Mono = ((), (), ())


class DimensionError(ValueError):
    """Operands disagree on the number of coordinates, or an index is out of range."""


class UnsupportedExpressionError(ValueError):
    """The requested operation would leave the supported expression class."""


def parse_rational(value) -> Fraction:
    """Convert an int or a string ('p/q', integer, or finite decimal) to an exact Fraction.

    Floats are rejected: binary floats do not round-trip decimal input exactly.
    A string whose digits plus decimal exponent exceed the limit of
    ``sys.get_int_max_str_digits()`` is refused before ``Fraction`` expands it.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        if limit and _rational_size(value) > limit:
            raise ValueError(f"the value of rational {value[:24]!r} would have more than {limit} digits")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}: {exc}") from None
    raise ValueError(
        f"expected int or string rational, got {type(value).__name__} {value!r}"
        " (write decimals and fractions as strings)"
    )


def _rational_size(text: str) -> int:
    """Digits in a rational string plus its decimal exponent: a bound on the digits of its value."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(ch.isdigit() for ch in mantissa)
    if not exponent.isdecimal():  # no exponent, or a malformed one that Fraction refuses
        return digits
    return digits + (int(exponent) if len(exponent) < 18 else 10**18)


# ---------------------------------------------------------------------------
# coords helper


def _coords_mul(a: Coords, b: Coords) -> Coords:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, p in b:
        acc[i] = acc.get(i, 0) + p
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# Expr


class Terms(Mapping):
    """Read-only view of an expression's terms: monomial -> Fraction coefficient.

    Only reading a coefficient builds a ``Fraction``; length, truth value,
    membership and key iteration read the integer storage.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, den: int, nums: dict[Mono, int]):
        self._den = den
        self._nums = nums

    def __getitem__(self, mono: Mono) -> Fraction:
        return Fraction(self._nums[mono], self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __iter__(self):
        return iter(self._nums)

    def __contains__(self, mono) -> bool:
        return mono in self._nums

    def __repr__(self) -> str:
        return f"Terms({dict(self.items())!r})"


class Expr:
    """Canonical expression: integer numerators over one denominator (see the module docstring)."""

    __slots__ = ("nvars", "_den", "_nums")

    def __init__(self, nvars: int, terms: Mapping[Mono, Fraction]):
        if nvars < 0:
            raise DimensionError(f"nvars must be >= 0, got {nvars}")
        den = 1
        for c in terms.values():
            d = c.denominator
            if den % d:
                den = den * d // math.gcd(den, d)
        self.nvars = nvars
        self._den, self._nums = _normalised(
            den, {m: c.numerator * (den // c.denominator) for m, c in terms.items() if c}
        )

    @property
    def terms(self) -> Terms:
        return Terms(self._den, self._nums)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Expr":
        return _expr(nvars, 1, {})

    @staticmethod
    def const(nvars: int, value) -> "Expr":
        c = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return _expr(nvars, c.denominator, {MONO_ONE: c.numerator} if c else {})

    @staticmethod
    def coord(nvars: int, i: int) -> "Expr":
        if not 0 <= i < nvars:
            raise DimensionError(f"coordinate index {i} out of range for nvars={nvars}")
        return _expr(nvars, 1, {(((i, 1),), (), ()): 1})

    # -- canonical structure -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Expr)
            and self.nvars == other.nvars
            and self._den == other._den
            and self._nums == other._nums
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Expr({self.nvars}, {to_string(self)!r})"

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.nvars != self.nvars:
                raise DimensionError(
                    f"mixed coordinate counts: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # o's terms accumulate into a copy of self's, over the lcm of the denominators.
        da, db = self._den, o._den
        if da == db:
            den, fb = da, 1
            acc = dict(self._nums)
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            den = da * fa
            acc = {m: n * fa for m, n in self._nums.items()}
        get = acc.get
        for m, n in o._nums.items():
            s = get(m, 0) + n * fb
            if s:
                acc[m] = s
            else:
                del acc[m]
        return _expr(self.nvars, *_normalised(den, acc))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr(self.nvars, self._den, {m: -n for m, n in self._nums.items()})

    def __sub__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Expr":
        return (-self) + other

    def __mul__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _product(self, o)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power must be a nonnegative integer, got {n!r}")
        # 1 * base is base itself, so the first factor is taken as it is.
        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Expr.const(self.nvars, 1) if result is None else result

    # -- queries -------------------------------------------------------------

    def is_polynomial(self) -> bool:
        return all(not expk and not trig for _, expk, trig in self._nums)

    def constant_value(self) -> Fraction | None:
        """The Fraction value if this expression is a constant, else None."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        if len(nums) == 1 and MONO_ONE in nums:
            return Fraction(nums[MONO_ONE], self._den)
        return None


def _expr(nvars: int, den: int, nums: dict[Mono, int]) -> Expr:
    """An Expr from storage that is already normalised."""
    e = object.__new__(Expr)
    e.nvars = nvars
    e._den = den
    e._nums = nums
    return e


def _normalised(den: int, nums: dict[Mono, int]) -> tuple[int, dict[Mono, int]]:
    """Divide ``den`` and every numerator by their gcd; no terms means ``den == 1``."""
    if den == 1:
        return den, nums
    if not nums:
        return 1, nums
    g = math.gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {m: n // g for m, n in nums.items()}


def _key_of(p: Expr) -> PolyKey:
    """The exponent key of a polynomial: its storage, sorted by coords; () for 0."""
    if not p._nums:
        return ()
    return (p._den, tuple(sorted((coords, n) for (coords, _, _), n in p._nums.items())))


def _key_expr(nvars: int, key: PolyKey) -> Expr:
    """The exponent polynomial of a key, its terms in coords order."""
    den, nums = key
    return _expr(nvars, den, {(coords, (), ()): n for coords, n in nums})


def _reduced_trig(trig: Trig) -> tuple[tuple[Trig, int], ...]:
    """Rewrite sin^2 -> 1 - cos^2 until sin powers <= 1.

    Returns the reduced trig parts with their signs, in the order in which
    they are accumulated; a part may appear more than once.
    """
    if not trig:
        return (((), 1),)
    out = []
    work = [(trig, 1)]
    while work:
        tr, sign = work.pop()
        hot = next((t for t in tr if t[2] >= 2), None)
        if hot is None:
            out.append((tuple(t for t in tr if t[1] or t[2]), sign))
            continue
        i, cp, sp = hot
        rest = tuple(t for t in tr if t[0] != i)
        work.append((tuple(sorted(rest + ((i, cp, sp - 2),))), sign))
        work.append((tuple(sorted(rest + ((i, cp + 2, sp - 2),))), -sign))
    return tuple(out)


def _reduce_sin(mono: Mono, num: int, out: dict[Mono, int]) -> None:
    """Accumulate num*mono into out, rewriting sin^2 -> 1 - cos^2 until sin powers <= 1."""
    coords, expk, trig = mono
    for tr, sign in _reduced_trig(trig):
        m = (coords, expk, tr)
        s = out.get(m, 0) + (num if sign > 0 else -num)
        if s:
            out[m] = s
        else:
            del out[m]


def _trig_mul(a: Trig, b: Trig) -> Trig:
    if not a:
        return b
    if not b:
        return a
    tr = {i: (cp, sp) for i, cp, sp in a}
    for i, cp, sp in b:
        c0, s0 = tr.get(i, (0, 0))
        tr[i] = (c0 + cp, s0 + sp)
    return tuple(sorted((i, cp, sp) for i, (cp, sp) in tr.items()))


def _operand(nums: dict[Mono, int]):
    """Largest coordinate power, distinct (expkey, trig) parts, and per-term rows."""
    top = 0
    parts: dict[tuple[PolyKey, Trig], int] = {}
    rows = []
    for (coords, expk, trig), n in nums.items():
        for _, p in coords:
            if p > top:
                top = p
        rows.append((coords, n, parts.setdefault((expk, trig), len(parts))))
    return top, parts, rows


def _pack(coords: Coords, width: int) -> int:
    key = 0
    for i, p in coords:
        key += p << (i * width)
    return key


def _product(a: Expr, b: Expr) -> Expr:
    """Canonical product of two expressions (see the module docstring)."""
    ta, tb = a._nums, b._nums
    if not ta or not tb:
        return _expr(a.nvars, 1, {})
    den = a._den * b._den
    # A constant factor meets every term of the other operand once, with
    # nothing to merge, cancel or reduce: the pair loop would give the
    # other operand's terms in their order, scaled.
    if len(ta) == 1 and MONO_ONE in ta:
        ta, tb = tb, ta
    if len(tb) == 1 and MONO_ONE in tb:
        c = tb[MONO_ONE]
        return _expr(a.nvars, *_normalised(den, {m: n * c for m, n in ta.items()}))
    top_a, parts_a, rows_a = _operand(ta)
    top_b, parts_b, rows_b = _operand(tb)
    width = (top_a + top_b).bit_length()
    # Exp-key sum and sin reduction, once per distinct pair of parts.  Each
    # output part gets an index j; table[ia][ib] replays the pair as (j, sign).
    out_parts: dict[tuple[PolyKey, Trig], int] = {}
    table = []
    nvars = a.nvars
    for ea, ra in parts_a:
        row = []
        for eb, rb in parts_b:
            expk = _key_of(_key_expr(nvars, ea) + _key_expr(nvars, eb)) if ea and eb else ea or eb
            row.append([
                (out_parts.setdefault((expk, tr), len(out_parts)), sign)
                for tr, sign in _reduced_trig(_trig_mul(ra, rb))
            ])
        table.append(row)
    # A key is packed coords * nparts + j.  Coordinate fields cannot carry:
    # each is at most top_a + top_b < 2**width.
    nparts = len(out_parts)
    b_terms = [(_pack(coords, width) * nparts, nb, ib) for coords, nb, ib in rows_b]
    flat = [
        [(kb + j, nb if sign > 0 else -nb) for kb, nb, ib in b_terms for j, sign in row[ib]]
        for row in table
    ]
    acc: dict[int, int] = {}
    get = acc.get
    for coords, na, ia in rows_a:
        ka = _pack(coords, width) * nparts
        for kb, nb in flat[ia]:
            k = ka + kb
            s = get(k, 0) + na * nb
            if s:
                acc[k] = s
            else:
                del acc[k]
    mask = (1 << width) - 1
    part_list = list(out_parts)
    out: dict[Mono, int] = {}
    for k, n in acc.items():
        packed, j = divmod(k, nparts)
        coords = []
        i = 0
        while packed:
            if packed & mask:
                coords.append((i, packed & mask))
            packed >>= width
            i += 1
        out[(tuple(coords), *part_list[j])] = n
    return _expr(nvars, *_normalised(den, out))


# ---------------------------------------------------------------------------
# core operations


def is_zero(e: Expr) -> bool:
    """True iff e is identically zero (sound on this expression class)."""
    return not e._nums


def exp_of(p: Expr) -> Expr:
    """exp(p) for a polynomial exponent p; exp(0) canonicalizes to 1."""
    if not p.is_polynomial():
        raise UnsupportedExpressionError(
            "exponentials take polynomial exponents only"
        )
    key = _key_of(p)
    if not key:
        return Expr.const(p.nvars, 1)
    return _expr(p.nvars, 1, {((), key, ()): 1})


def cos_of(nvars: int, i: int) -> Expr:
    if not 0 <= i < nvars:
        raise DimensionError(f"coordinate index {i} out of range for nvars={nvars}")
    return _expr(nvars, 1, {((), (), ((i, 1, 0),)): 1})


def sin_of(nvars: int, i: int) -> Expr:
    if not 0 <= i < nvars:
        raise DimensionError(f"coordinate index {i} out of range for nvars={nvars}")
    return _expr(nvars, 1, {((), (), ((i, 0, 1),)): 1})


def partial_derivative(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate i.

    The chain rule for exp(P) needs dP/dx_i, taken once per distinct key;
    these derivatives are put over one denominator ``scale`` first, so that
    every contribution is an integer numerator over ``den * scale``.
    """
    if not 0 <= i < e.nvars:
        raise DimensionError(f"coordinate index {i} out of range for nvars={e.nvars}")
    dkeys: dict[PolyKey, Expr] = {}
    for _, expk, _ in e._nums:
        if expk and expk not in dkeys:
            dkeys[expk] = partial_derivative(_key_expr(e.nvars, expk), i)
    scale = math.lcm(*(d._den for d in dkeys.values()))
    # Chain-rule terms run in coords order, which fixes the order of the result's terms.
    chains = {
        expk: sorted((dcoords, n * (scale // d._den)) for (dcoords, _, _), n in d._nums.items())
        for expk, d in dkeys.items()
    }
    acc: dict[Mono, int] = {}
    for (coords, expk, trig), n in e._nums.items():
        ns = n * scale
        # d/dx_i of the coordinate part
        for j, p in coords:
            if j != i:
                continue
            rest = tuple((k, q) for k, q in coords if k != j)
            if p > 1:
                rest = tuple(sorted(rest + ((j, p - 1),)))
            _reduce_sin((rest, expk, trig), ns * p, acc)
        # d/dx_i of exp(P) contributes (dP/dx_i) * exp(P) * rest
        if expk:
            for dcoords, dn in chains[expk]:
                _reduce_sin((_coords_mul(coords, dcoords), expk, trig), n * dn, acc)
        # d/dx_i of cos^a sin^e on coordinate i
        for j, cp, sp in trig:
            if j != i:
                continue
            rest_tr = tuple(t for t in trig if t[0] != j)
            if cp:
                m = tuple(sorted(rest_tr + ((j, cp - 1, sp + 1),)))
                _reduce_sin((coords, expk, m), -ns * cp, acc)
            if sp:
                m = tuple(sorted(rest_tr + ((j, cp + 1, sp - 1),)))
                _reduce_sin((coords, expk, m), ns * sp, acc)
    return _expr(e.nvars, *_normalised(e._den * scale, acc))


def _coord_image_index(image: Expr) -> int | None:
    """Index j if image is exactly the coordinate x_j, else None."""
    if len(image._nums) != 1 or image._den != 1:
        return None
    (mono, n), = image._nums.items()
    coords, expk, trig = mono
    if n == 1 and not expk and not trig and len(coords) == 1 and coords[0][1] == 1:
        return coords[0][0]
    return None


def substitute(e: Expr, images: Sequence[Expr]) -> Expr:
    """Replace coordinate i by images[i] and re-canonicalize.

    Exponent polynomials must stay polynomial after substitution, and
    cos/sin arguments must map to plain coordinates; anything else raises
    UnsupportedExpressionError.
    """
    if len(images) != e.nvars:
        raise DimensionError(
            f"expected {e.nvars} images, got {len(images)}"
        )
    if images:
        n2 = images[0].nvars
        for im in images:
            if im.nvars != n2:
                raise DimensionError("substitution images disagree on nvars")
    else:
        n2 = 0
    out = Expr.zero(n2)
    den = e._den
    for (coords, expk, trig), n in e._nums.items():
        g = math.gcd(n, den)
        acc = _expr(n2, den // g, {MONO_ONE: n // g})
        for i, p in coords:
            acc = acc * images[i] ** p
        if expk:
            new_exp = substitute(_key_expr(e.nvars, expk), images)
            if not new_exp.is_polynomial():
                raise UnsupportedExpressionError(
                    f"substitution produced a non-polynomial exponent {to_string(new_exp)}"
                )
            acc = acc * exp_of(new_exp)
        for i, cp, sp in trig:
            j = _coord_image_index(images[i])
            if j is None:
                raise UnsupportedExpressionError(
                    "cos/sin accept single coordinates only; substitution image"
                    f" of x{i + 1} is not a coordinate"
                )
            acc = acc * cos_of(n2, j) ** cp * sin_of(n2, j) ** sp
        out = out + acc
    return out


def _rational_point(point: Sequence) -> list[Fraction]:
    return [x if isinstance(x, Fraction) else Fraction(x) for x in point]


class FloatProgram:
    """Expressions over ``nvars`` coordinates, compiled once for float evaluation at many points.

    Each expression becomes rows ``(coefficient, factors)`` in ``Expr.terms``
    order.  ``factors`` are keys into a per-batch table of columns, one value
    per point: the term's own coords pairs ``(i, p)`` for its coordinate
    powers, then the int slot of its exponent key (one column per distinct
    key), then ``(cos|sin, i, k)`` for its trig powers (one column per
    distinct power).  ``at_points`` and ``at_float_points`` return one column
    per expression; ``at`` and ``at_float`` are the same loop over a batch of
    one point.  A coefficient past the float range raises
    ``UnsupportedExpressionError``.
    """

    __slots__ = ("nvars", "_rows", "_key_rows", "_powers", "_key_powers", "_keys", "_trig")

    def __init__(self, nvars: int, exprs: Sequence[Expr]):
        for e in exprs:
            if e.nvars != nvars:
                raise DimensionError(f"expression uses {e.nvars} coordinates, expected {nvars}")
        slots: dict[PolyKey, int] = {}
        trig_keys: dict[tuple, None] = {}

        def tail(expk: PolyKey, trig: Trig) -> tuple:
            out = [slots.setdefault(expk, len(slots))] if expk else []
            for i, cp, sp in trig:
                for f, k in ((math.cos, cp), (math.sin, sp)):
                    if k:
                        out.append((f, i, k))
                        trig_keys[f, i, k] = None
            return tuple(out)

        def compile_expr(e: Expr) -> tuple:
            d = e._den
            try:
                return tuple([
                    (n / d, coords + tail(expk, trig) if expk or trig else coords)
                    for (coords, expk, trig), n in e._nums.items()
                ])
            except OverflowError:
                raise UnsupportedExpressionError("a coefficient is beyond the float range") from None

        self.nvars = nvars
        self._rows = (len(exprs), [(n, compile_expr(e)) for n, e in enumerate(exprs) if e._nums])
        self._keys = tuple(slots)
        key_exprs = [_key_expr(nvars, key) for key in self._keys]
        self._key_rows = (len(key_exprs), [(n, compile_expr(k)) for n, k in enumerate(key_exprs)])
        # Powers that only the float-point exponent sums need are kept apart,
        # so that a rational point never computes them.
        powers = _powers_of(exprs)
        self._powers = tuple(powers)
        self._key_powers = tuple(_powers_of(key_exprs) - powers)
        self._trig = tuple(trig_keys)

    def _columns(self, points: Sequence[Sequence]) -> list[tuple]:
        """The points as one column per coordinate, after a length check."""
        for pt in points:
            if len(pt) != self.nvars:
                raise DimensionError(f"expected {self.nvars} coordinates, got {len(pt)}")
        return list(zip(*points)) if points else [()] * self.nvars

    def _table(self, cols: list[list[float]], powers: tuple) -> dict:
        """The power and cos/sin columns; slot columns are filled by the caller."""
        table = {(i, p): list(map(pow, cols[i], repeat(p))) for i, p in powers}
        for key in self._trig:
            f, i, k = key
            table[key] = list(map(pow, map(f, cols[i]), repeat(k)))
        return table

    def at_points(
        self, points: Sequence[Sequence], magnitudes: bool = True
    ) -> tuple[list[list[float]], list[list[float]] | None]:
        """Value columns and largest-|monomial| columns (None unless asked) at rational points.

        Each exponent is evaluated exactly and rounded once; ``n / d`` on the
        integer parts is exactly how float() converts a Fraction.
        """
        pts = [_rational_point(pt) for pt in points]
        cols = [[x.numerator / x.denominator for x in col] for col in self._columns(pts)]
        table = self._table(cols, self._powers)
        overflowed = set()
        for slot, (den, nums) in enumerate(self._keys):
            column = []
            for pt in pts:
                num, d = _poly_ratio(nums, pt)
                try:
                    column.append(math.exp(num / (d * den)))
                except OverflowError:
                    column.append(None)
                    overflowed.add(slot)
            table[slot] = column
        return _run_columns(self._rows, table, overflowed, len(pts), magnitudes)

    def at_float_points(
        self, points: Sequence[Sequence[float]], magnitudes: bool = True
    ) -> tuple[list[list[float]], list[list[float]] | None]:
        """Value and magnitude columns at float points; exponents are summed in floats."""
        cols = [list(map(float, col)) for col in self._columns(points)]
        table = self._table(cols, self._powers + self._key_powers)
        overflowed = set()
        args, _ = _run_columns(self._key_rows, table, overflowed, len(points), False)
        for slot, arg in enumerate(args):
            try:
                table[slot] = list(map(math.exp, arg))
            except OverflowError:
                table[slot] = [_exp_or_none(x) for x in arg]
                overflowed.add(slot)
        return _run_columns(self._rows, table, overflowed, len(points), magnitudes)

    def at(self, point: Sequence, magnitudes: bool = True) -> tuple[list[float], list[float] | None]:
        """Values and largest |monomial| (None unless asked) of every expression at one rational point."""
        return _one_point(self.at_points((point,), magnitudes))

    def at_float(
        self, point: Sequence[float], magnitudes: bool = True
    ) -> tuple[list[float], list[float] | None]:
        """Values and largest |monomial| (None unless asked) of every expression at one float point."""
        return _one_point(self.at_float_points((point,), magnitudes))


def _powers_of(exprs: Sequence[Expr]) -> set[tuple[int, int]]:
    """Every (i, p) coordinate power in the terms of ``exprs``."""
    monos = chain.from_iterable(e._nums for e in exprs)
    return set(chain.from_iterable(map(itemgetter(0), monos)))


def _one_point(columns: tuple) -> tuple[list[float], list[float] | None]:
    values, sizes = columns
    return [v for v, in values], None if sizes is None else [s for s, in sizes]


def _exp_or_none(x: float) -> float | None:
    try:
        return math.exp(x)
    except OverflowError:
        return None


def _times_exp(v: float, x: float | None) -> float:
    """v times an exponential; one that overflowed (None) gives +-inf by the sign of v, 0.0 and nan stay."""
    if x is not None:
        return v * x
    if v > 0:
        return math.inf
    if v < 0:
        return -math.inf
    return v


def _run_columns(
    program: tuple[int, list], table: dict, overflowed: set, npoints: int, magnitudes: bool
) -> tuple[list[list[float]], list[list[float]] | None]:
    """The one float loop: each expression's sum in row order, and its largest |term|, per point.

    ``program`` is the expression count and the rows of each nonzero
    expression by position; a zero expression is a column of 0.0.  Rows are
    on the outside and points on the inside: a row's terms are its
    coefficient multiplied by each factor column in turn with ``mul``, or
    with ``_times_exp`` for a slot that ``overflowed`` at some point, as one
    chain of C-level ``map``s over the points, so each point passes through
    the factors in order.  The terms are added to the expression's running
    column, which starts at 0.0, and ``max(best, abs(v))`` keeps ``best``
    unless ``abs(v) > best``, nan included.
    """
    count, rows_by_position = program
    values = [[0.0] * npoints for _ in range(count)]
    sizes = [[0.0] * npoints for _ in range(count)] if magnitudes else None
    for n, rows in rows_by_position:
        total = values[n]
        best = sizes[n] if magnitudes else None
        for coefficient, factors in rows:
            v = repeat(coefficient, npoints)
            for f in factors:
                v = map(_times_exp if overflowed and f in overflowed else mul, v, table[f])
            if magnitudes:
                v = list(v)
                best = list(map(max, best, map(abs, v)))
            total = list(map(add, total, v))
        values[n] = total
        if magnitudes:
            sizes[n] = best
    return values, sizes


def evaluate(e: Expr, point: Sequence) -> float:
    """Evaluate at a rational point in double precision."""
    return FloatProgram(e.nvars, (e,)).at(point, magnitudes=False)[0][0]


def evaluate_float(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a float point (internal numeric paths; no exactness claims)."""
    return FloatProgram(e.nvars, (e,)).at_float(point, magnitudes=False)[0][0]


def max_term_magnitude(e: Expr, point: Sequence) -> float:
    """Largest |monomial value| at the point; used to normalize numeric tolerances."""
    return FloatProgram(e.nvars, (e,)).at(point)[1][0]


def _poly_ratio(terms, pt: Sequence[Fraction]) -> tuple[int, int]:
    """The exact value of a sum of ``(coords, n)`` terms at a rational point.

    The value is one unreduced integer ratio ``(num, den)``; true division
    of ints is correctly rounded, so ``num / den`` equals float() of the
    reduced Fraction.
    """
    num, den = 0, 1
    for coords, n in terms:
        d = 1
        for i, p in coords:
            x = pt[i]
            n *= x.numerator ** p
            d *= x.denominator ** p
        num = num * d + n * den
        den *= d
    return num, den


def evaluate_exact(e: Expr, point: Sequence) -> Fraction:
    """Exact evaluation; raises UnsupportedExpressionError on exp/cos/sin terms."""
    pt = _rational_point(point)
    if len(pt) != e.nvars:
        raise DimensionError(f"expected {e.nvars} coordinates, got {len(pt)}")
    if not e.is_polynomial():
        raise UnsupportedExpressionError(
            "exact evaluation is defined for pure polynomials only"
        )
    # One unreduced integer ratio, reduced once at the end.
    num, den = _poly_ratio(((coords, n) for (coords, _, _), n in e._nums.items()), pt)
    return Fraction(num, den * e._den)


# ---------------------------------------------------------------------------
# evaluation modulo a prime (see the module docstring)
#
# The jet of a term takes the derivatives d exp(g) = g' exp(g),
# cos' = -sin and sin' = cos, so the gradient and the Hessian of the jet are
# psi of the partial derivatives.


class Character:
    """A character chi of the additive group of expressions, into the units modulo a prime.

    ``chi(g) = prod_b u_b^(scale * c_b)`` over the terms ``c_b * b`` of g,
    so chi(g + h) = chi(g) chi(h).  ``scale`` must be a multiple of the
    denominator of every g that chi meets, so that every power is an
    integer.  ``u_b`` is a unit derived from the canonical monomial b by a
    keyed BLAKE2 hash: the same in every process and under every
    ``PYTHONHASHSEED``.  A monomial b may carry exp and trig parts (a tower
    term of an exponent); it is one more generator.  The units and values
    are kept for the life of the object only.
    """

    __slots__ = ("modulus", "scale", "_units", "_keys")

    def __init__(self, modulus: int, scale: int):
        self.modulus = modulus
        self.scale = scale
        self._units: dict[Mono, int] = {}
        self._keys: dict[PolyKey, int] = {}

    def unit(self, mono: Mono) -> int:
        """u_b of the monomial b, in [1, modulus - 1]."""
        u = self._units.get(mono)
        if u is None:
            digest = hashlib.blake2b(repr(mono).encode(), digest_size=16, key=b"infharm character").digest()
            u = self._units[mono] = int.from_bytes(digest, "big") % (self.modulus - 1) + 1
        return u

    def _power(self, den: int, items) -> int:
        """prod u_b^(scale * n / den) over the ``(mono, n)`` items."""
        if self.scale % den:
            raise ValueError(f"character scale {self.scale} is not a multiple of {den}")
        q = self.modulus
        f = self.scale // den
        # The powers with negative exponents are inverted once, as one product.
        up = down = 1
        for mono, n in items:
            if n > 0:
                up = up * pow(self.unit(mono), f * n, q) % q
            else:
                down = down * pow(self.unit(mono), -f * n, q) % q
        return up if down == 1 else up * pow(down, -1, q) % q

    def of(self, g: Expr, divisor: int = 1) -> int:
        """chi(g / divisor) for any expression g; ``scale`` must be a multiple of ``divisor`` times its denominator."""
        return self._power(g._den * divisor, g._nums.items())

    def __call__(self, key: PolyKey) -> int:
        """chi of the exponent polynomial that ``key`` stores."""
        value = self._keys.get(key)
        if value is None:
            den, nums = key
            value = self._keys[key] = self._power(den, (((coords, (), ()), n) for coords, n in nums))
        return value


def residue(e: Expr, point: Sequence[int], modulus: int, circle=None, character=None) -> int | None:
    """psi(e) modulo the prime ``modulus``: e at an integer point, with the images of its other atoms.

    ``circle[i]`` is the image (c_i, s_i) of (cos x_i, sin x_i), a point with
    c_i^2 + s_i^2 = 1; ``character`` maps an exponent key to the image of
    its exp, a unit.  None when e has a trig term and no ``circle`` is
    given, an exp term and no ``character``, or ``modulus`` divides a
    denominator of e.  This is the value part of ``jet_residues``.
    """
    if not e._nums:
        return 0
    out = jet_residues(e, point, None, modulus, circle, character)
    return None if out is None else out[0]


def jet_residues(
    e: Expr, point: Sequence[int], inverses: Sequence[int] | None, modulus: int, circle=None, character=None
) -> tuple | None:
    """psi of e, of its gradient and of its Hessian, as ``residue`` takes them; (psi(e),) when ``inverses`` is None.

    ``inverses[i]`` is the inverse of ``point[i]`` modulo ``modulus``, so
    every coordinate must be a unit, and so must every c_i and s_i.  A term
    of value v is v times a product of factors f_i(x_i) = x_i^k cos^a sin^e
    and exp(g).  Its log-derivative is L_i = f_i'/f_i + d_i g, with
    x'/x = 1/x, cos'/cos = -s/c and sin'/sin = c/s, so it adds v L_i to d_i e
    and v (L_i L_j + d_i d_j g + [i == j] (f_i'/f_i)') to d_i d_j e, where
    (f_i'/f_i)' = -k/x^2 - a/c^2 - e/s^2.  The jet of g is taken by the same
    evaluator.
    """
    q = modulus
    den = e._den % q
    if not den:
        return None
    m = e.nvars
    jet = inverses is not None
    value = 0
    if jet:
        grad = [0] * m
        hess = [[0] * m for _ in range(m)]
    keys: dict[PolyKey, tuple] = {}
    for (coords, expk, trig), n in e._nums.items():
        for i, k in coords:
            n = n * pow(point[i], k, q) % q
        if not (expk or trig):
            value += n
            if jet:
                # A monomial of value v and exponents k adds k_i v / x_i to d_i e
                # and (k_j - [i == j]) k_i v / (x_i x_j) to d_i d_j e.
                for i, ki in coords:
                    gi = n * ki * inverses[i] % q
                    grad[i] += gi
                    row = hess[i]
                    for j, kj in coords:
                        row[j] += gi * (kj - (i == j)) * inverses[j]
            continue
        if trig:
            if circle is None:
                return None
            for i, cp, sp in trig:
                c, s = circle[i]
                n = n * pow(c, cp, q) * (s if sp else 1) % q
        if expk:
            if character is None:
                return None
            key = keys.get(expk)
            if key is None:
                exponent = jet_residues(_key_expr(m, expk), point, inverses, q) if jet else ()
                if exponent is None:
                    return None
                key = keys[expk] = (character(expk), *exponent[1:])
            n = n * key[0] % q
        value += n
        if not jet:
            continue
        log = [0] * m
        slope = [0] * m
        for i, k in coords:
            log[i] = k * inverses[i]
            slope[i] = -k * inverses[i] * inverses[i]
        for i, cp, sp in trig:
            c, s = circle[i]
            ci, si = pow(c, -1, q), pow(s, -1, q)
            log[i] += sp * c * si - cp * s * ci
            slope[i] -= cp * ci * ci + sp * si * si
        if expk:
            _, kgrad, khess = key
            log = [a + b for a, b in zip(log, kgrad)]
        for i in range(m):
            li = log[i]
            if li:
                grad[i] += n * li
            row = hess[i]
            for j in range(m):
                h = li * log[j] + (khess[i][j] if expk else 0)
                if i == j:
                    h += slope[i]
                if h:
                    row[j] += n * h
    inv = pow(den, -1, q)
    if not jet:
        return (value * inv % q,)
    return (
        value * inv % q,
        [g * inv % q for g in grad],
        [[h * inv % q for h in row] for row in hess],
    )


# ---------------------------------------------------------------------------
# rendering and parsing
#
# Rendered strings are themselves valid expression inputs, so reports can be
# fed back in as custom map components.  Grammar:
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*' factor) | ('/' number))*
#   factor := ('-'|'+') factor | base ('^' INT)?
#   base   := number | name | ('exp'|'cos'|'sin') '(' expr ')' | '(' expr ')'
#   name   := x<k>  (aliases: x=x1, y=x2, z=x3)
#
# Division is exact and only by numeric literals.


def _mono_sort_key(mono: Mono, values: dict):
    coords, expk, trig = mono
    deg = sum(p for _, p in coords) + sum(cp + sp for _, cp, sp in trig)
    return (-deg, coords, values[expk], trig)


def _key_value(expk: PolyKey) -> tuple:
    """An exponent key in comparable form: term by term, coords and then the coefficient's value."""
    return tuple((kc, Fraction(n, expk[0])) for kc, n in expk[1]) if expk else ()


def _reduced(den: int, items) -> list[tuple[Mono, int, int]]:
    """(mono, numerator, denominator) triples of ``(mono, n)`` items over ``den``, each reduced."""
    out = []
    for m, n in items:
        g = math.gcd(n, den)
        out.append((m, n // g, den // g))
    return out


def _render_terms(terms, keys: dict) -> str:
    """Render (mono, numerator, denominator) triples, each ratio reduced, in graded order.

    ``keys`` caches the text of each exponent key for one top-level call;
    the comparable value of each distinct key is built once per call.
    """
    values = {expk: _key_value(expk) for expk in {mono[1] for mono, _, _ in terms}}
    pieces = []
    for mono, n, d in sorted(terms, key=lambda t: _mono_sort_key(t[0], values)):
        body = _render_mono(mono, keys)
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        if not body:
            text = mag
        elif d == 1 and (n == 1 or n == -1):
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if n > 0 else f"-{text}")
        else:
            pieces.append(("+ " if n > 0 else "- ") + text)
    return " ".join(pieces)


def _render_mono(mono: Mono, keys: dict) -> str:
    coords, expk, trig = mono
    parts = []
    for i, p in coords:
        parts.append(f"x{i + 1}" + (f"^{p}" if p > 1 else ""))
    if expk:
        inner = keys.get(expk)
        if inner is None:
            den, nums = expk
            terms = _reduced(den, [((kc, (), ()), n) for kc, n in nums])
            inner = keys[expk] = _render_terms(terms, keys)
        parts.append(f"exp({inner})")
    for i, cp, sp in trig:
        if cp:
            parts.append(f"cos(x{i + 1})" + (f"^{cp}" if cp > 1 else ""))
        if sp:
            parts.append(f"sin(x{i + 1})")
    return "*".join(parts)


def to_string(e: Expr) -> str:
    """Deterministic canonical rendering (graded order, explicit * and ^)."""
    if not e._nums:
        return "0"
    try:
        return _render_terms(_reduced(e._den, e._nums.items()), {})
    except ValueError:  # str() of an int past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise UnsupportedExpressionError(f"a coefficient has more than {limit} digits") from None


class ExprParseError(ValueError):
    """Malformed expression string."""


def _tokenize(s: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        elif ch.isdecimal() or (ch == "." and i + 1 < n and s[i + 1].isdecimal()):
            j = i
            while j < n and (s[j].isdecimal() or s[j] == "."):
                j += 1
            tokens.append(("num", s[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            tokens.append(("name", s[i:j]))
            i = j
        else:
            raise ExprParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


def _integer(digits: str, what: str) -> int:
    """``int(digits)``, with ``int``'s limit on the number of digits raised as a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise ExprParseError(f"{what} has {len(digits)} digits, too many to read") from None


def _coordinate(text: str, prefix: str, aliases: dict[str, int], nvars: int) -> int:
    """The index of coordinate ``<prefix><k>`` (k from 1) or of an alias, from 0."""
    if text[0] == prefix and text[1:].isdecimal():
        idx = _integer(text[1:], "a coordinate index")
    else:
        idx = aliases.get(text)
    if idx is None:
        raise ExprParseError(f"unknown name {text!r}")
    if not 1 <= idx <= nvars:
        raise ExprParseError(f"coordinate {text!r} out of range for {nvars} variables")
    return idx - 1


# The most terms that ``^`` may expand to, by the bound of ``_term_bound``.
# The largest accepted power of that shape, (x1+x2+x3+1)^44 with a bound of
# 16,215 terms, expands in about 0.9 s (Python 3.11, 2 shared cores).
MAX_POWER_TERMS = 16_500


def _power_shape(base: Expr) -> tuple[int, int] | None:
    """The shape that ``_term_bound`` takes for base: (coordinates, degree) of a polynomial, else None.

    The bound is then exact for polynomials, an estimate for exp and trig
    bases, whose sin^2 = 1 - cos^2 rewrite can add terms.
    """
    if not (base._nums and base.is_polynomial()):
        return None
    v = len({i for coords, _, _ in base._nums for i, _ in coords})
    return v, max(sum(p for _, p in coords) for coords, _, _ in base._nums)


def _term_bound(t: int, k: int, cap: int, shape: tuple[int, int] | None) -> int:
    """A bound on the terms of the k-th power of a t-term base, or cap + 1 once it is known to exceed cap.

    A product of k of the t terms is one of C(t + k - 1, k) multisets; for
    a polynomial base of ``shape`` (v coordinates, degree deg), it is also
    one of the C(v + k * deg, v) monomials of degree at most k * deg.  The
    bound is the smaller count.
    """
    if k == 0 or t <= 1:
        return 1 if k == 0 else t
    bound = _capped_comb(t + k - 1, k, cap)
    if shape is not None:
        v, deg = shape
        bound = min(bound, _capped_comb(v + k * deg, v, cap))
    return bound


def _check_power(k: int, t: int, shape: tuple[int, int] | None, magnitude: int, den: int) -> None:
    """Refuse base^k before it is expanded: more than ``MAX_POWER_TERMS`` terms, or too long coefficients.

    The base has t terms and the ``shape`` of ``_term_bound``, and its
    coefficients are integers over ``den`` whose absolute values sum
    to ``magnitude``.  Every coefficient of base^k is then an integer of at
    most k * bits(magnitude) bits over den^k, so k * (bits(magnitude) +
    bits(den)) bounds the bits of each; a power whose bound exceeds the
    digits of ``sys.get_int_max_str_digits()``, the limit that
    ``parse_rational`` applies to a written number, is refused too.
    """
    power = k if k < 10**9 else "n"
    if _term_bound(t, k, MAX_POWER_TERMS, shape) > MAX_POWER_TERMS:
        raise ExprParseError(f"a power ^{power} of {t} terms may expand to more than {MAX_POWER_TERMS} terms")
    limit = sys.get_int_max_str_digits()
    # An int compares with a float exactly, so a huge k cannot overflow here.
    if limit and k * (magnitude.bit_length() + den.bit_length()) > limit / math.log10(2):
        raise ExprParseError(f"a power ^{power} may have coefficients of more than {limit} digits")


def _capped_comb(n: int, r: int, cap: int) -> int:
    """C(n, r), or cap + 1 as soon as a partial product C(n, i) exceeds cap (they grow up to i = r)."""
    r = min(r, n - r)
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
        if out > cap:
            return cap + 1
    return out


class _ExprRing:
    """Expressions over coordinates x1..x<nvars> (aliases x, y, z), with exp, cos and sin."""

    funcs = ("exp", "cos", "sin")
    add, neg, mul = operator.add, operator.neg, operator.mul

    def __init__(self, nvars: int):
        self.nvars = nvars

    def const(self, value: Fraction) -> Expr:
        return Expr.const(self.nvars, value)

    def name(self, text: str) -> Expr:
        return Expr.coord(self.nvars, _coordinate(text, "x", {"x": 1, "y": 2, "z": 3}, self.nvars))

    def call(self, func: str, arg: Expr) -> Expr:
        if func == "exp":
            return exp_of(arg)
        j = _coord_image_index(arg)
        if j is None:
            raise ExprParseError(f"{func}() accepts a single coordinate")
        return cos_of(self.nvars, j) if func == "cos" else sin_of(self.nvars, j)

    def power(self, value: Expr, n: int) -> Expr:
        """value^n, refused by ``_check_power`` before it is expanded."""
        magnitude = sum(map(abs, value._nums.values()))
        _check_power(n, len(value._nums), _power_shape(value), magnitude, value._den)
        return value ** n

    def div(self, value: Expr, divisor: Expr) -> Expr:
        const = divisor.constant_value()
        if const is None or const == 0:
            raise ExprParseError("division is allowed by nonzero constants only")
        return value * (Fraction(1) / const)


class _Parser:
    """Recursive descent over sums, products, ``^`` and calls, in the values of a ring.

    A ring has ``funcs``, the names parsed as calls ``f(arg)``, and the methods
    ``const(Fraction)``, ``name(text)``, ``call(func, arg)``, ``add``, ``neg``,
    ``mul``, ``power(value, n)`` for an int n >= 0 and ``div(value, divisor)``,
    which raise ``ExprParseError`` for a value outside the ring.  ``a - b`` is
    ``add(a, neg(b))``, operands combine left to right, and a unary ``+`` is dropped.
    """

    def __init__(self, s: str, ring):
        self.tokens = _tokenize(s)
        self.pos = 0
        self.ring = ring

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprParseError(f"expected {kind}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.parse_expr()
        self.take("end")
        return value

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.parse_term()
            value = self.ring.add(value, rhs if op == "+" else self.ring.neg(rhs))
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.parse_factor()
            value = self.ring.mul(value, rhs) if op == "*" else self.ring.div(value, rhs)
        return value

    def parse_factor(self):
        kind, text = self.peek()
        if kind in "+-":
            self.take()
            inner = self.parse_factor()
            return inner if kind == "+" else self.ring.neg(inner)
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.take()
            if self.peek()[0] == "-":
                raise ExprParseError("negative powers are not supported")
            num = self.take("num")[1]
            if "." in num:
                raise ExprParseError(f"power must be an integer, got {num!r}")
            return self.ring.power(base, _integer(num, "a power"))
        return base

    def parse_base(self):
        kind, text = self.take()
        if kind == "num":
            try:
                return self.ring.const(Fraction(text))
            except ValueError:
                raise ExprParseError(f"malformed number {text!r}") from None
        if kind == "(":
            inner = self.parse_expr()
            self.take(")")
            return inner
        if kind == "name":
            if text not in self.ring.funcs:
                return self.ring.name(text)
            self.take("(")
            arg = self.parse_expr()
            self.take(")")
            return self.ring.call(text, arg)
        raise ExprParseError(f"unexpected token {text!r}")


def parse_expr(s: str, nvars: int) -> Expr:
    """Parse an expression string over coordinates x1..x<nvars> (aliases x, y, z)."""
    return _Parser(s, _ExprRing(nvars)).parse()

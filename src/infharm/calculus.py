"""Differential operators for maps between model spaces.

Everything is computed exactly.  Quantities that are honest rational
functions (maps into a conformally flat codomain, connection terms on
conformal spaces) are returned in cleared form: a polynomial-class
numerator together with the clearing divisor, which is a positive function
on the chart, so vanishing of the numerator is equivalent to vanishing of
the true quantity.

Tension components follow the convention g(grad phi^a, grad |dphi|^2)
without the 1/2 prefactor; the p-tension identity
``tau_p = |dphi|^{p-2} tau_2 + (p-2) |dphi|^{p-4} tau_inf`` holds with
``tau_inf`` equal to half the reported components, and the p=4 suite pins
that convention against an independent divergence-form computation.

Every scalar contraction ``g^{ij} u_i v_j`` goes through ``_contract``, in
fixed (i, j) order, because the order of ``Expr.terms`` is part of the
expression contract and the witness floats in the reports depend on it.

Each quantity is assembled in one way.  A scalar function u is the map
u: M -> R into ``REAL_LINE``, so the scalar operators are the map operators
applied to it: |grad u|^2 is the energy density of u, the infinity-Laplacian
is half its tension component, and the p-Laplacian is its p-tension.  The
harmonic tension ``tension_field`` is built from ``laplace_beltrami`` of each
component plus the codomain connection term.  The second routes kept on
purpose are oracles for the first: ``hessian_form`` (Hess u(grad u, grad u),
which the LEM1.1 suite compares with the infinity-Laplacian), the
divergence form of ``p_tension`` on Euclidean pairs, ``fd_p_tension``
(finite differences) and ``NumericTension`` (one plain float loop without
symbolic composition), which gives no verdict: it is the float cross-check
``independent_numeric_check`` and the witness of a map whose tension
leaves the decidable class.

Contract before composing.  The energy density composes a codomain entry
h_ab with the map only where the contraction g(dphi^a, dphi^b) is not the
zero ``Expr``, so a null map, or a vertical map (c1, c2, f) into Sol, which
meets only h_33 = 1, is decided symbolically.  The expansion leaves the
decidable class only where a needed entry composes out of it, such as
e^{2 sin x2} for (cos x1, x2, sin x2) into Sol.

Verdict first.  ``infinity_tension`` first evaluates
tau^a = g^ij d_i phi^a d_j |dphi|^2 at one fixed point p of F_P^m, with
P = ``PRIME`` = 2^61 - 1 and p drawn once per m from a fixed seed
(``_tension_mod_p``), in integer arithmetic modulo P.  The evaluation is
the ring homomorphism psi of ``exprcore``: x_i goes to p_i, (cos x_i,
sin x_i) to a fixed point of the circle over F_P, and exp(g) to chi(g) for
one character chi per call.  The codomain metric composes with the map
through its exponent keys: Sol's e^{+-2 y3} at phi is chi(+-2 phi^3), which
needs only the terms of phi^3, and an exp or trig term of phi^3 is one more
generator of chi, so a map whose composition leaves the symbolic class is
evaluated too.  The route checks that every divisor it uses is a unit: each
coefficient denominator, and the codomain scale at phi(p).  So a nonzero
residue proves tau^a != 0 (see ``exprcore`` for why psi is sound on exp and
trig terms, towers included), and the verdict is "nonzero" without
expanding anything.  At a random point, a nonzero tension vanishes with
small probability (the Schwartz-Zippel lemma: Schwartz 1980, Zippel 1979);
a zero residue costs only time, because the symbolic route then decides as
before.  That route also runs when P divides a denominator, when the
codomain scale vanishes mod P at phi(p), and when a codomain exponent is
not linear (no catalog space has one).  A map that neither route decides,
because its residues are all zero or the point route does not apply and
its expansion leaves the decidable class, raises
``UnsupportedExpressionError``: every verdict is exact.  A
``TensionReport`` of the point route expands its tension when a field is
first read, so every printed report is the same as an eager one.  Where
that expansion leaves the decidable class, the components read None and
the witness is sampled by ``NumericTension``; the verdict stays.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .exprcore import (
    Character,
    DimensionError,
    Expr,
    FloatProgram,
    UnsupportedExpressionError,
    is_zero,
    jet_residues,
    partial_derivative,
    residue,
    substitute,
)
from .mapspec import MapSpec, materialize
from .spaces import ModelSpace, build_space, christoffel

NUMERIC_TOL = 1e-9
SAMPLE_COUNT = 64
SAMPLE_DENOMINATOR = 64
WITNESS_SEED = 0xD1CE
# The largest domain dimension NumericTension takes: its loop does m^3 work per point and pair.
NUMERIC_MAX_DIM = 12
# The modulus of the exact point route: the Mersenne prime 2^61 - 1.
PRIME = 2**61 - 1
# The codomain of a scalar function: every scalar operator is a map operator into it.
REAL_LINE = build_space("euclid:1")


@dataclass(frozen=True)
class ClearedExpr:
    """A quantity num / clearing with polynomial-class num and positive clearing."""

    num: Expr
    clearing: Expr

    @property
    def is_plain(self) -> bool:
        return self.clearing.constant_value() == 1


@dataclass(frozen=True)
class Witness:
    point: tuple[Fraction, ...]
    component: int
    value: float

    def to_json(self) -> dict:
        """The witness as reports print it: the point's coordinates as exact strings."""
        return {
            "point": [str(v) for v in self.point],
            "component": self.component,
            "value": self.value,
        }


class TensionReport:
    """The exact verdict on a map, with the expanded tension behind it.

    ``TensionReport(verdict, (domain, codomain, comps), seed, expansion)``
    takes the ``_tension_components`` triple as ``expansion`` where its
    builder already has it.  The triple is a ``functools.cached_property``,
    so a report built without it expands the tension when a field is first
    read, and an error of that expansion or of ``_find_witness`` surfaces at
    that read.  The fields are the cleared tension ``components`` and their
    ``tension_clearing``, the cleared ``energy_density`` and its
    ``energy_clearing``, and the ``witness`` of a "nonzero" verdict.  Where
    the expansion leaves the decidable class, the first four read None and
    the witness is ``_sampled_witness``'s at ``seed``; the verdict stays as
    it was decided.  Every verdict is exact, so ``mode`` is the constant
    "exact" that reports print.
    """

    mode = "exact"

    def __init__(self, verdict: str, source: tuple, seed: int = 0, expansion: tuple | None = None):
        self.verdict = verdict    # "zero" | "nonzero"
        self._source = source
        self._seed = seed
        if expansion is not None:
            self._expansion = expansion

    @property
    def is_harmonic(self) -> bool:
        return self.verdict == "zero"

    @functools.cached_property
    def _expansion(self) -> tuple | None:
        try:
            return _tension_components(*self._source)
        except UnsupportedExpressionError:
            return None

    components = functools.cached_property(lambda self: self._expansion and self._expansion[0])
    tension_clearing = functools.cached_property(lambda self: self._expansion and self._expansion[1])
    energy_density = functools.cached_property(lambda self: self._expansion and self._expansion[2].num)
    energy_clearing = functools.cached_property(lambda self: self._expansion and self._expansion[2].clearing)

    @functools.cached_property
    def witness(self) -> Witness | None:
        if self.verdict == "zero":
            return None
        if self.components is None:
            witness = _sampled_witness(*self._source, self._seed)
            if witness is None:
                raise UnsupportedExpressionError(
                    "no witness point found for a nonzero tension: every sampled value is within tolerance"
                )
            return witness
        return _find_witness(self.components, self._source[0].dim)


def _components_of(phi) -> tuple[Expr, ...]:
    if isinstance(phi, MapSpec):
        return materialize(phi)
    return tuple(phi)


def _check_dims(domain: ModelSpace, codomain: ModelSpace, comps: Sequence[Expr]) -> None:
    if len(comps) != codomain.dim:
        raise DimensionError(
            f"map has {len(comps)} components, codomain {codomain.label} has dim"
            f" {codomain.dim}; zero-pad explicitly if that is intended"
        )
    for c in comps:
        if c.nvars != domain.dim:
            raise DimensionError(
                f"component uses {c.nvars} coordinates, domain {domain.label} has dim {domain.dim}"
            )


def _jacobian(comps: Sequence[Expr], m: int) -> list[list[Expr]]:
    """jac[a][i] = d_i phi^a."""
    return [[partial_derivative(c, i) for i in range(m)] for c in comps]


def _contract(space: ModelSpace, u: Sequence[Expr], v: Sequence[Expr]) -> Expr:
    """g^{ij} u_i v_j, summed in (i, j) order over the entries where g^ij, u_i and v_j are nonzero.

    A zero factor makes an empty product, which adds nothing and moves no term.
    """
    total = Expr.zero(space.dim)
    for i in range(space.dim):
        ui = u[i]
        if not ui:
            continue
        for j in range(space.dim):
            gij = space.g_upper[i][j]
            if gij and v[j]:
                total = total + gij * ui * v[j]
    return total


# ---------------------------------------------------------------------------
# scalar operators: a function is a map into REAL_LINE


def metric_gradient(space: ModelSpace, f: Expr) -> tuple[Expr, ...]:
    """Vector components (grad f)^i = g^{ij} d_j f."""
    if f.nvars != space.dim:
        raise DimensionError(
            f"scalar uses {f.nvars} coordinates, space has dim {space.dim}"
        )
    partials = [partial_derivative(f, j) for j in range(space.dim)]
    out = []
    for i in range(space.dim):
        total = Expr.zero(space.dim)
        for j in range(space.dim):
            gij = space.g_upper[i][j]
            if gij:
                total = total + gij * partials[j]
        out.append(total)
    return tuple(out)


def gradient_norm_squared(space: ModelSpace, f: Expr) -> Expr:
    """|grad f|^2_g = g^{ij} f_i f_j: the energy density of f as a map into R."""
    return energy_density(space, REAL_LINE, (f,)).num


def infinity_laplacian(space: ModelSpace, u: Expr) -> Expr:
    """(1/2) g(grad u, grad |grad u|^2_g): half the tension component of u as a map into R."""
    _check_dims(space, REAL_LINE, (u,))
    return _tension_components(space, REAL_LINE, (u,))[0][0] * Fraction(1, 2)


def _hessian_against(space: ModelSpace, u: Expr, weight) -> ClearedExpr:
    """sum_ij weight[i][j] Hess_u(d_i, d_j), cleared by the connection scale."""
    table = christoffel(space)
    du = [partial_derivative(u, k) for k in range(space.dim)]
    total = Expr.zero(space.dim)
    for i in range(space.dim):
        for j in range(space.dim):
            wij = weight[i][j]
            if not wij:
                continue
            hij = table.scale * partial_derivative(du[i], j)
            for k in range(space.dim):
                gk = table.gamma[k][i][j]
                if gk:
                    hij = hij - gk * du[k]
            total = total + wij * hij
    return ClearedExpr(num=total, clearing=table.scale)


def hessian_form(space: ModelSpace, u: Expr) -> ClearedExpr:
    """Hess_u(grad u, grad u), cleared by the connection scale."""
    v = metric_gradient(space, u)
    return _hessian_against(space, u, [[vi * vj for vj in v] for vi in v])


def laplace_beltrami(space: ModelSpace, u: Expr) -> ClearedExpr:
    """Trace of the Hessian, cleared by the connection scale."""
    return _hessian_against(space, u, space.g_upper)


def p_laplacian(space: ModelSpace, u: Expr, p: int) -> ClearedExpr:
    """Cleared p-Laplacian |grad u|^{p-4} (|grad u|^2 Lap u + (p-2) InfLap u).

    This is the p-tension of u as a map into R, so p must be an even integer
    >= 2; p = 2 gives the Laplace-Beltrami operator.
    """
    (num,), clearing = p_tension(space, REAL_LINE, (u,), p)
    return ClearedExpr(num=num, clearing=clearing)


# ---------------------------------------------------------------------------
# map operators


def energy_density(domain: ModelSpace, codomain: ModelSpace, phi) -> ClearedExpr:
    """|dphi|^2 = g^{ij} phi^a_i phi^b_j (h_ab o phi), cleared by the codomain scale."""
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    return _energy(domain, codomain, comps)[0]


def _energy(
    domain: ModelSpace, codomain: ModelSpace, comps: Sequence[Expr]
) -> tuple[ClearedExpr, list[list[Expr]]]:
    """The cleared energy density and the Jacobian it contracts.

    The Jacobian is built first, and an entry h_ab of the codomain metric is
    composed with the map only where the contraction g(dphi^a, dphi^b) is
    not the zero ``Expr``: a zero contraction makes a zero product, and
    adding the zero ``Expr`` moves no term.  So a null map, or a vertical
    map (c1, c2, f) into Sol, which meets only h_33 = 1, stays in the
    decidable class; a map that needs an entry whose composition leaves it
    raises there.
    """
    m = domain.dim
    jac = _jacobian(comps, m)
    num = Expr.zero(m)
    for a, row in enumerate(codomain.g_lower):
        for b, hab in enumerate(row):
            if not hab:
                continue
            contraction = _contract(domain, jac[a], jac[b])
            if contraction:
                num = num + contraction * substitute(hab, comps)
    clearing = substitute(codomain.lower_scale, comps)
    return ClearedExpr(num=num, clearing=clearing), jac


def _tension_components(
    domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...]
) -> tuple[tuple[Expr, ...], Expr, ClearedExpr]:
    """Cleared tension components, their clearing, and the cleared energy."""
    energy, jac = _energy(domain, codomain, comps)
    m = domain.dim
    dnum = [partial_derivative(energy.num, j) for j in range(m)]
    if energy.is_plain:
        grad_w = dnum
    else:
        # Quotient rule D*dN - N*dD for d(N/D), up to the 1/D^2 clearing.
        grad_w = [
            dnum[j] * energy.clearing - energy.num * partial_derivative(energy.clearing, j)
            for j in range(m)
        ]
    out = tuple(_contract(domain, row, grad_w) for row in jac)
    return out, energy.clearing * energy.clearing, energy


def _child_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_points(
    nvars: int, count: int, seed: int, denominator: int = SAMPLE_DENOMINATOR
) -> list[tuple[Fraction, ...]]:
    """Deterministic rational sample points in [-1, 1]^nvars."""
    rng = random.Random(_child_seed(seed, f"points:{nvars}:{count}"))
    grid = _grid(denominator)
    # choice(grid) draws _randbelow(len(grid)) once, exactly as
    # grid[randint(-denominator, denominator) + denominator] does.
    return [tuple(map(rng.choice, repeat(grid, nvars))) for _ in range(count)]


@functools.cache
def _grid(denominator: int) -> tuple[Fraction, ...]:
    """The 2*denominator + 1 values k/denominator for k = -denominator..denominator."""
    return tuple(Fraction(k, denominator) for k in range(-denominator, denominator + 1))


@functools.cache
def _witness_candidates(nvars: int) -> tuple[tuple[Fraction, ...], ...]:
    """The same fixed points for every call, so they are built once per nvars."""
    ones = tuple(Fraction(1) for _ in range(nvars))
    candidates = [ones]
    for i in range(nvars):
        for s in (1, -1):
            pt = [Fraction(0)] * nvars
            pt[i] = Fraction(s)
            candidates.append(tuple(pt))
    candidates.extend(sample_points(nvars, 200, WITNESS_SEED, denominator=8))
    return tuple(candidates)


def _find_witness(components: Sequence[Expr], nvars: int) -> Witness:
    """The first candidate point and component whose value is finite and above NUMERIC_TOL times its largest |term|.

    The threshold is relative to that point's terms, so a tension with small
    coefficients, such as 16/10^12 x1^2, has a witness too.
    """
    # Compiled one component at a time, when the search first reaches it:
    # most searches stop at the first candidate.
    programs: dict[int, FloatProgram] = {}
    for pt in _witness_candidates(nvars):
        for idx, comp in enumerate(components):
            if not comp:
                continue
            program = programs.get(idx)
            if program is None:
                program = programs[idx] = FloatProgram(comp.nvars, (comp,))
            (val,), (mag,) = program.at(pt)
            if math.isfinite(val) and abs(val) > NUMERIC_TOL * mag:
                return Witness(point=pt, component=idx, value=val)
    raise UnsupportedExpressionError(
        "no witness point found for a symbolically nonzero tension"
    )


# No verdict samples through it any more; it stays because bench/tracing.py wraps it by name.
def numeric_zero_check(components: Sequence[Expr], nvars: int, seed: int = 0) -> bool:
    """All components stay below NUMERIC_TOL at SAMPLE_COUNT sample points.

    Tolerance is absolute after normalizing by 1 + |largest monomial| at the
    point, which keeps the test meaningful for large cleared numerators.
    A value or magnitude that is not finite (inf/inf, nan) fails.
    Structurally zero components evaluate to 0.0 everywhere, so they are
    dropped, and no point is sampled when none is left.
    """
    live = [c for c in components if c]
    if not live:
        return True
    points = sample_points(nvars, SAMPLE_COUNT, seed)
    values, magnitudes = FloatProgram(nvars, live).at_points(points)
    for value_column, magnitude_column in zip(values, magnitudes):
        for val, mag in zip(value_column, magnitude_column):
            if not (math.isfinite(val) and math.isfinite(mag)) or abs(val) > NUMERIC_TOL * (1.0 + mag):
                return False
    return True


@functools.cache
def _prime_point(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed point of F_P^m that the point route evaluates at, and its inverse coordinates."""
    rng = random.Random(_child_seed(WITNESS_SEED, f"prime point:{m}"))
    point = tuple(rng.randrange(1, PRIME) for _ in range(m))
    return point, tuple(pow(x, -1, PRIME) for x in point)


@functools.cache
def _prime_circle(m: int) -> tuple[tuple[int, int], ...]:
    """The images (c_i, s_i) of (cos x_i, sin x_i) at the prime point: ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)).

    P = 3 mod 4, so 1 + t^2 is never 0, and t is not 0 or +-1, so c_i and s_i are units.
    """
    rng = random.Random(_child_seed(WITNESS_SEED, f"prime circle:{m}"))
    circle = []
    for t in (rng.randrange(2, PRIME - 1) for _ in range(m)):
        inv = pow(1 + t * t, -1, PRIME)
        circle.append(((1 - t * t) * inv % PRIME, 2 * t * inv % PRIME))
    return tuple(circle)


def _linear_form(key) -> tuple | None:
    """((d, a_d), ...) of an exponent key h = a_0 + sum_d a_d y_d, d None for a_0; None when h is not linear."""
    den, nums = key
    if any(sum(p for _, p in coords) > 1 for coords, _ in nums):
        return None
    return tuple((coords[0][0] if coords else None, Fraction(n, den)) for coords, n in nums)


@functools.cache
def _exp_keys(space: ModelSpace) -> dict:
    """The exponent keys of the space's metric entries (lower, upper and scale), each with its ``_linear_form``."""
    metric = (space.lower_scale, *(e for row in (*space.g_lower, *space.g_upper) for e in row))
    return {key: _linear_form(key) for e in metric for _, key, _ in e.terms if key}


def _pulled_back(character: Character, forms: dict, comps: tuple[Expr, ...]) -> dict:
    """chi(h o phi) per codomain exponent key h = a_0 + sum_d a_d y_d: the product of chi(a_d phi^d).

    chi(a phi^d) = chi(phi^d / r)^p for a = p / r, and each chi(phi^d / r)
    is taken once; the constant term is a_0 times the constant 1.
    """
    one = Expr.const(comps[0].nvars, 1)
    bases: dict[tuple, int] = {}
    out = {}
    for key, form in forms.items():
        value = 1
        for d, a in form:
            base = bases.get((d, a.denominator))
            if base is None:
                base = bases[d, a.denominator] = character.of(one if d is None else comps[d], a.denominator)
            value = value * pow(base, a.numerator, PRIME) % PRIME
        out[key] = value
    return out


@functools.cache
def _prime_metric(space: ModelSpace) -> tuple | None:
    """(entries, g^ij, dg^ij/dx_k) mod PRIME at the space's prime point, once per space.

    ``entries`` are ``_domain_metric``'s.  The residues of a metric with
    exp terms depend on the character of each call, so for such a space
    g and dg are None here and ``_metric_residues`` takes them per call.
    None when PRIME divides a denominator of a polynomial metric, so the
    space takes no part in the point route.
    """
    entries = _domain_metric(space)[1]
    if _exp_keys(space):
        return entries, None, None
    residues = _metric_residues(space, None)
    return None if residues is None else (entries, *residues)


def _metric_residues(space: ModelSpace, character) -> tuple | None:
    """g^ij and dg^ij/dx_k at the space's prime point, under ``character``; None where a residue is."""
    point = _prime_point(space.dim)[0]
    circle = _prime_circle(space.dim)
    dgu = _domain_metric(space)[0]
    g = [[residue(e, point, PRIME, circle, character) for e in row] for row in space.g_upper]
    dg = [[[residue(e, point, PRIME, circle, character) for e in col] for col in plane] for plane in dgu]
    if any(None in row for row in g) or any(None in col for plane in dg for col in plane):
        return None
    return g, dg


def _tension_mod_p(
    domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...]
) -> tuple[int, ...] | None:
    """tau^a = g^ij d_i phi^a d_j |dphi|^2 at the domain's prime point p, under psi, mod PRIME.

    psi sends x_i to p_i, (cos x_i, sin x_i) to ``_prime_circle``'s point
    and exp(g) to chi(g), for one ``Character`` chi whose scale is the lcm
    of the denominators of every exponent in play.  The map's value,
    gradient and Hessian come from ``jet_residues``.  The codomain metric
    composes with the map through its exponent keys: an entry's exp(h) at
    phi is chi(h o phi), which needs only the terms of h o phi, and a tower
    term of it (an exp or trig term of a component) is one more generator
    of chi.  |dphi|^2 uses h = g_lower / lower_scale at phi(p), and its
    derivative dh/dy_d = (dg_d * scale - g * dscale_d) / scale^2 uses the
    derivatives that ``_codomain_metric`` caches.  None where the route does
    not apply: a denominator that PRIME divides, or a codomain scale that
    vanishes mod PRIME at phi(p).
    """
    dom = _prime_metric(domain)
    if dom is None:
        return None
    m, n = domain.dim, codomain.dim
    forms = _exp_keys(codomain)
    if None in forms.values():
        return None
    dens = [key[0] for key in _exp_keys(domain)]
    dens += [key[0] for c in comps for _, key, _ in c.terms if key]
    dens += [a.denominator * (1 if d is None else comps[d]._den) for form in forms.values() for d, a in form]
    chi = Character(PRIME, math.lcm(*dens)) if dens else None
    entries, g, dg = dom
    if g is None:
        residues = _metric_residues(domain, chi)
        if residues is None:
            return None
        g, dg = residues
    point, inverses = _prime_point(m)
    circle = _prime_circle(m)
    jets = [jet_residues(c, point, inverses, PRIME, circle, chi) for c in comps]
    if None in jets:
        return None
    y = [value for value, _, _ in jets]
    jac = [grad for _, grad, _ in jets]
    hess = [h for _, _, h in jets]
    pulled = _pulled_back(chi, forms, comps).get if forms else None
    dh, dscale, pairs, _ = _codomain_metric(codomain)
    scale = residue(codomain.lower_scale, y, PRIME, None, pulled)
    ds = [residue(e, y, PRIME, None, pulled) for e in dscale]
    if not scale or None in ds:
        return None
    inv = pow(scale, -1, PRIME)
    inv2 = inv * inv
    dw = [0] * m
    for b, c in pairs:
        gv = residue(codomain.g_lower[b][c], y, PRIME, None, pulled)
        dgv = [residue(e, y, PRIME, None, pulled) for e in dh[b][c]]
        if gv is None or None in dgv:
            return None
        hv = gv * inv % PRIME
        dhv = [(dgd * scale - gv * dsd) * inv2 % PRIME for dgd, dsd in zip(dgv, ds)]
        chain = [sum(dhv[d] * jac[d][k] for d in range(n)) % PRIME for k in range(m)]
        jb, jc, hb, hc = jac[b], jac[c], hess[b], hess[c]
        for i, j in entries:
            gij, dgij = g[i][j], dg[i][j]
            jbc = jb[i] * jc[j]
            for k in range(m):
                hessian = hb[i][k] * jc[j] + jb[i] * hc[j][k]
                dw[k] += (dgij[k] * jbc + gij * hessian) * hv + gij * jbc * chain[k]
    return tuple(sum(g[i][j] * row[i] * dw[j] for i, j in entries) % PRIME for row in jac)


def infinity_tension(domain: ModelSpace, codomain: ModelSpace, phi, seed: int = 0) -> TensionReport:
    """Tension components g(grad phi^a, grad |dphi|^2) with an exact verdict.

    It first evaluates the tension at the domain's prime point
    (``_tension_mod_p``): a nonzero residue decides "nonzero", and the report
    expands the tension only when a caller reads it; where the expansion
    leaves the decidable class, its witness is sampled, seeded by ``seed``.
    Otherwise the symbolic zero test decides.  A map that leaves the
    decidable class there too raises ``UnsupportedExpressionError``.
    """
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    source = (domain, codomain, comps)
    if any(_tension_mod_p(*source) or ()):
        return TensionReport("nonzero", source, seed)
    try:
        expansion = _tension_components(*source)
    except UnsupportedExpressionError as exc:
        raise UnsupportedExpressionError(
            f"cannot decide: {exc} in the tension, and the prime point route did not decide it"
        ) from None
    return TensionReport("zero" if all(is_zero(c) for c in expansion[0]) else "nonzero", source, seed, expansion)


# ---------------------------------------------------------------------------
# sampled tension: evaluates the tension pointwise without symbolic
# composition of the codomain metric, for the float cross-check and the
# witness of a map whose contraction meets an entry that composes out of the
# class (e^{2 sin x2} for (cos x1, x2, sin x2) into Sol)


@functools.cache
def _domain_metric(space: ModelSpace) -> tuple:
    """(dg^ij/dx_k, the entries (i, j) whose g^ij is not the zero ``Expr``), once per space."""
    m, gu = space.dim, space.g_upper
    dgu = [[[partial_derivative(gu[i][j], k) for k in range(m)] for j in range(m)] for i in range(m)]
    entries = tuple((i, j) for i in range(m) for j in range(m) if gu[i][j])
    return dgu, entries


@functools.cache
def _codomain_metric(space: ModelSpace) -> tuple:
    """(dh_ab/dy_g, d(scale)/dy_g, the nonzero pairs, the metric program), once per space.

    The program evaluates the scale, its derivatives, and then per pair
    h_ab and its derivatives, in the order ``NumericTension`` reads them.
    """
    n, gl = space.dim, space.g_lower
    dh = [[[partial_derivative(gl[a][b], g) for g in range(n)] for b in range(n)] for a in range(n)]
    dscale = [partial_derivative(space.lower_scale, g) for g in range(n)]
    pairs = tuple((a, b) for a in range(n) for b in range(n) if gl[a][b])
    program = FloatProgram(n, [
        space.lower_scale,
        *dscale,
        *(e for a, b in pairs for e in (gl[a][b], *dh[a][b])),
    ])
    return dh, dscale, pairs, program


class NumericTension:
    """The tension of a map at a list of points, assembled in floats without symbolic composition.

    ``NumericTension(domain, codomain, comps, points)`` takes the map's
    Jacobian and Hessian symbolically once and evaluates both sides in one
    batch each: the domain side (g^ij, dg^ij/dx_k, J_ai, dJ_ai/dx_k, phi)
    at every rational point, then the codomain metric (g_ab, the scale and
    their derivatives) at every image phi(point) in floats.  ``_assemble``,
    one plain loop, then forms the tension at each point, and ``at(k)``
    returns the k-th result.  This is an independent route to the same
    quantity as the cleared symbolic components (up to the positive clearing
    factor): ``_sampled_witness`` reads it for ``independent_numeric_check``
    and for the witness of a map whose composition leaves the symbolic
    class.  A domain of more than ``NUMERIC_MAX_DIM`` dimensions is refused.

    The float operations and their order are the contract: ``reference_at``
    in the tests assembles the same values from one evaluation per
    expression, and they are equal bit for bit, at huge and non-finite
    points too.
    """

    def __init__(
        self, domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...], points: Sequence
    ):
        m, n = domain.dim, codomain.dim
        if m > NUMERIC_MAX_DIM:
            raise UnsupportedExpressionError(
                f"the sampled tension takes a domain of at most {NUMERIC_MAX_DIM} dimensions;"
                f" {domain.label} has {m}"
            )
        self.domain = domain
        self.codomain = codomain
        self.comps = comps
        self.m, self.n = m, n
        self.dgu = _domain_metric(domain)[0]
        self.dh, self.dscale, pairs, codomain_side = _codomain_metric(codomain)
        self.jac = _jacobian(comps, m)
        self.hess = [
            [[partial_derivative(self.jac[a][i], k) for k in range(m)] for i in range(m)]
            for a in range(n)
        ]
        domain_side = FloatProgram(m, [
            *(e for row in domain.g_upper for e in row),
            *(e for plane in self.dgu for row in plane for e in row),
            *(e for row in self.jac for e in row),
            *(e for plane in self.hess for row in plane for e in row),
            *comps,
        ])
        domain_cols = domain_side.at_points(points, magnitudes=False)[0]
        cod = codomain_side.at_float_points(list(zip(*domain_cols[-n:])), magnitudes=False)[0]
        self._results = [
            _assemble(m, n, pairs, values, metric) for values, metric in zip(zip(*domain_cols), zip(*cod))
        ]

    def at(self, k: int) -> tuple[list[float], float]:
        """Tension component values at the k-th point, plus a size scale."""
        return self._results[k]


def _assemble(m: int, n: int, pairs: tuple, values: tuple, metric: tuple) -> tuple[list[float], float]:
    """The tension values at one point and a scale for the tolerance, from the point's float values.

    ``values`` is the domain side of ``NumericTension`` and ``metric`` the
    program of ``_codomain_metric`` at phi(point).  Each pair (a, b) takes
    h = g_ab / scale and dh/dy_g = (dg_ab/dy_g * scale - g_ab * dscale/dy_g)
    / scale^2, and a pair whose h and dh are all 0.0 (say where e^{-2z}
    underflows) adds nothing: at a huge or non-finite point its 0.0 times
    an infinite factor would add nan.  Per k, the loop sums the gradient of
    |dphi|^2 over every (i, j) and live pair into w_k, and the |summand|s,
    in the same order, into u_k; the chain-rule factor of a pair is one
    ``sum()`` over g (from Python 3.12 on it rounds unlike a chain of
    ``+``).  The values are g^ij J_ai w_j summed over (i, j), and the scale,
    kept by the comparison of ``max``, is the largest |g^ij J_ai| u_j, so
    it bounds every summand that cancels inside w, and a harmonic map's
    values stay within rounding error of it.
    """
    rm, rn = range(m), range(n)
    at = iter(values)
    gu = [[next(at) for _ in rm] for _ in rm]
    dgu = [[[next(at) for _ in rm] for _ in rm] for _ in rm]
    jv = [[next(at) for _ in rm] for _ in rn]
    hv = [[[next(at) for _ in rm] for _ in rm] for _ in rn]
    d, dd = metric[0], metric[1:n + 1]
    live = []
    for p, (a, b) in enumerate(pairs):
        base = n + 1 + p * (n + 1)
        gv, dgv = metric[base], metric[base + 1:base + 1 + n]
        h = gv / d
        dh = [(dgvg * d - gv * ddg) / (d * d) for dgvg, ddg in zip(dgv, dd)]
        if h or any(dh):
            live.append((a, b, h, dh))
    w, u = [], []
    for k in rm:
        chains = [sum(dh[g] * jv[g][k] for g in rn) for _, _, _, dh in live]
        total = size = 0.0
        for i in rm:
            for j in rm:
                for (a, b, h, _), chain in zip(live, chains):
                    dpart = dgu[i][j][k] * jv[a][i] * jv[b][j] + gu[i][j] * (
                        hv[a][i][k] * jv[b][j] + jv[a][i] * hv[b][j][k]
                    )
                    for summand in (dpart * h, gu[i][j] * jv[a][i] * jv[b][j] * chain):
                        total += summand
                        size += abs(summand)
        w.append(total)
        u.append(size)
    out = []
    scale = 0.0
    for a in rn:
        total = 0.0
        for i in rm:
            for j in rm:
                factor = gu[i][j] * jv[a][i]
                scale = max(scale, abs(factor) * u[j])
                total += factor * w[j]
        out.append(total)
    return out, scale


def independent_numeric_check(domain: ModelSpace, codomain: ModelSpace, phi, seed: int = 0) -> bool:
    """The float cross-check of a verdict: ``_sampled_witness`` finds no value above NUMERIC_TOL."""
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    return _sampled_witness(domain, codomain, comps, seed) is None


def _sampled_witness(
    domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...], seed: int
) -> Witness | None:
    """The sample point and component whose ``NumericTension`` value is largest against 1 + its scale.

    None when that ratio stays within NUMERIC_TOL at every one of the
    SAMPLE_COUNT points of ``seed``.  A non-finite value is never a witness,
    so that answer needs every tension value at every point to be finite,
    and it raises ``UnsupportedExpressionError`` where one is not.
    """
    points = sample_points(domain.dim, SAMPLE_COUNT, seed)
    evaluator = NumericTension(domain, codomain, comps, points)
    worst, witness, non_finite = NUMERIC_TOL, None, 0
    for k, pt in enumerate(points):
        values, scale = evaluator.at(k)
        non_finite += not (math.isfinite(scale) and all(map(math.isfinite, values)))
        for idx, val in enumerate(values):
            ratio = abs(val) / (1.0 + scale)
            if ratio > worst:
                worst, witness = ratio, Witness(point=pt, component=idx, value=val)
    if witness is None and non_finite:
        raise UnsupportedExpressionError(
            f"{non_finite} of the {len(points)} sample points are not points at which every tension"
            " value is finite, so the sampled tension cannot show that it vanishes"
        )
    return witness


# ---------------------------------------------------------------------------
# tension field and p-tension


def tension_field(
    domain: ModelSpace, codomain: ModelSpace, phi
) -> tuple[tuple[Expr, ...], Expr]:
    """Cleared harmonic-map tension tau_2 and its clearing divisor.

    tau_2^g = Lap(phi^g) + Gamma^g_ab(phi) g(dphi^a, dphi^b).  Lap(phi^g)
    comes from ``laplace_beltrami`` over the domain's connection scale, and
    Gamma^g_ab over the codomain's scale composed with phi, so each part is
    multiplied by the other's scale and the clearing is their product.
    """
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    n = codomain.dim
    scale = christoffel(domain).scale
    tcod = christoffel(codomain)
    sc_phi = substitute(tcod.scale, comps)
    jac = _jacobian(comps, domain.dim)
    out = []
    for g in range(n):
        total = laplace_beltrami(domain, comps[g]).num * sc_phi
        for a in range(n):
            for b in range(n):
                gamma = tcod.gamma[g][a][b]
                if gamma:
                    total = total + substitute(gamma, comps) * _contract(domain, jac[a], jac[b]) * scale
        out.append(total)
    return tuple(out), scale * sc_phi


def p_tension(
    domain: ModelSpace, codomain: ModelSpace, phi, p: int
) -> tuple[tuple[Expr, ...], Expr]:
    """Cleared p-tension components and their clearing divisor.

    Euclidean-to-Euclidean maps use the divergence form
    ``tau_p^g = sum_i d_i(|dphi|^{p-2} d_i phi^g)`` directly; other pairs
    compose |dphi|^{p-2} tau_2 + (p-2) |dphi|^{p-4} tau_inf.
    """
    if not isinstance(p, int) or p < 2 or p % 2 != 0:
        raise UnsupportedExpressionError(
            f"exact p-tension needs an even integer p >= 2, got {p!r}"
        )
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    if p == 2:
        return tension_field(domain, codomain, comps)
    m = domain.dim
    if domain.kind == "euclid" and codomain.kind == "euclid":
        w = energy_density(domain, codomain, comps).num
        wpow = w ** ((p - 2) // 2)
        out = []
        for c in comps:
            total = Expr.zero(m)
            for i in range(m):
                total = total + partial_derivative(wpow * partial_derivative(c, i), i)
            out.append(total)
        return tuple(out), Expr.const(m, 1)
    return phm_composed_p_tension(domain, codomain, comps, p)


def phm_composed_p_tension(
    domain: ModelSpace, codomain: ModelSpace, phi, p: int
) -> tuple[tuple[Expr, ...], Expr]:
    """The composed form |dphi|^{p-2} tau_2 + (p-2)|dphi|^{p-4} tau_inf, always.

    Used to cross-check the divergence route on Euclidean pairs.
    """
    comps = _components_of(phi)
    t2, c2 = tension_field(domain, codomain, comps)
    tinf, _, energy = _tension_components(domain, codomain, comps)
    d = energy.clearing
    wnum = energy.num
    half = Fraction(1, 2)
    wpow = wnum ** ((p - 4) // 2)
    out = tuple(
        wpow * (wnum * t2[g] * d + (p - 2) * (tinf[g] * half) * c2)
        for g in range(len(comps))
    )
    return out, d ** (p // 2) * c2


# ---------------------------------------------------------------------------
# finite-difference oracle for the p-tension (flat pairs), fourth order


def _fd4_stencil(x: Sequence[float], i: int, h: float) -> list[list[float]]:
    """The points x + s h e_i for s = 2, 1, -1, -2, in that order."""
    out = []
    for delta in (2 * h, h, -h, -2 * h):
        y = list(x)
        y[i] += delta
        out.append(y)
    return out


def _fd4(far, near, back, far_back, h: float) -> list[float]:
    """Fourth-order central difference from list-valued samples on ``_fd4_stencil``."""
    return [
        (-a + 8 * b - 8 * c + d) / (12 * h)
        for a, b, c, d in zip(far, near, back, far_back)
    ]


def fd_p_tension(comps: Sequence[Expr], p: int, point: Sequence[float]) -> list[float]:
    """Finite-difference p-tension of a Euclidean-to-Euclidean map.

    Computes sum_i d_i(W^{(p-2)/2} d_i phi^g) with all derivatives taken by
    fourth-order central differences of step 1e-2 on float evaluations of
    the components; independent of the symbolic differentiation path.  The
    divergence needs the flux at 4m points around ``point``, and each flux
    needs the gradient from 4m points around it; all 16 m^2 points are
    evaluated in one batch.
    """
    m, h = comps[0].nvars, 1e-2
    outer = [y for i in range(m) for y in _fd4_stencil(point, i, h)]
    inner = [z for y in outer for j in range(m) for z in _fd4_stencil(y, j, h)]
    values = list(zip(*FloatProgram(m, comps).at_float_points(inner, magnitudes=False)[0]))
    fluxes = []
    for o in range(len(outer)):
        # W^{(p-2)/2} d_i phi^g at the o-th outer point, which lies along direction i.
        base = 4 * m * o
        grad = [_fd4(*values[base + 4 * j:base + 4 * j + 4], h) for j in range(m)]  # grad[j][g] = d_j phi^g
        w = 0.0
        for g in range(len(comps)):
            for j in range(m):
                w += grad[j][g] ** 2
        wpow = w ** ((p - 2) / 2.0)
        fluxes.append([wpow * d for d in grad[o // 4]])
    divergence = [_fd4(*fluxes[4 * i:4 * i + 4], h) for i in range(m)]
    out = []
    for g in range(len(comps)):
        total = 0.0
        for i in range(m):
            total += divergence[i][g]
        out.append(total)
    return out

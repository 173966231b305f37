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
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exprcore import (
    DimensionError,
    Expr,
    FloatProgram,
    UnsupportedExpressionError,
    is_zero,
    partial_derivative,
    substitute,
)
from .mapspec import MapSpec, materialize
from .spaces import ModelSpace, christoffel

NUMERIC_TOL = 1e-9
SAMPLE_COUNT = 64
SAMPLE_DENOMINATOR = 64
WITNESS_SEED = 0xD1CE


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


@dataclass(frozen=True)
class TensionReport:
    energy_density: Expr | None           # cleared numerator; None in numeric-only mode
    energy_clearing: Expr | None
    components: tuple[Expr, ...] | None   # cleared tension components
    tension_clearing: Expr | None
    verdict: str                          # "zero" | "nonzero"
    witness: Witness | None
    mode: str                             # "exact" | "numeric"

    @property
    def is_harmonic(self) -> bool:
        return self.verdict == "zero"


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
    """g^{ij} u_i v_j, summed over nonzero inverse-metric entries in (i, j) order."""
    total = Expr.zero(space.dim)
    for i in range(space.dim):
        for j in range(space.dim):
            gij = space.g_upper[i][j]
            if gij:
                total = total + gij * u[i] * v[j]
    return total


# ---------------------------------------------------------------------------
# scalar operators


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
    """|grad f|^2_g = g^{ij} f_i f_j (polynomial class for catalog spaces)."""
    partials = [partial_derivative(f, j) for j in range(space.dim)]
    return _contract(space, partials, partials)


def infinity_laplacian(space: ModelSpace, u: Expr) -> Expr:
    """(1/2) g(grad u, grad |grad u|^2_g)."""
    w = gradient_norm_squared(space, u)
    du = [partial_derivative(u, j) for j in range(space.dim)]
    dw = [partial_derivative(w, j) for j in range(space.dim)]
    return _contract(space, du, dw) * Fraction(1, 2)


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

    p must be 2 or an even integer >= 4 to stay in the polynomial class;
    p = 2 reduces to the Laplace-Beltrami operator.
    """
    if not isinstance(p, int) or p < 2 or p % 2 != 0:
        raise UnsupportedExpressionError(
            f"exact p-Laplacian needs an even integer p >= 2, got {p!r}"
        )
    lb = laplace_beltrami(space, u)
    if p == 2:
        return lb
    w = gradient_norm_squared(space, u)
    dinf = infinity_laplacian(space, u)
    num = w ** ((p - 4) // 2) * (w * lb.num + (p - 2) * lb.clearing * dinf)
    return ClearedExpr(num=num, clearing=lb.clearing)


# ---------------------------------------------------------------------------
# map operators


def energy_density(domain: ModelSpace, codomain: ModelSpace, phi) -> ClearedExpr:
    """|dphi|^2 = g^{ij} phi^a_i phi^b_j (h_ab o phi), cleared by the codomain scale."""
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    m, n = domain.dim, codomain.dim
    jac = _jacobian(comps, m)
    num = Expr.zero(m)
    for a in range(n):
        for b in range(n):
            hab = codomain.g_lower[a][b]
            if hab:
                num = num + _contract(domain, jac[a], jac[b]) * substitute(hab, comps)
    clearing = substitute(codomain.lower_scale, comps)
    return ClearedExpr(num=num, clearing=clearing)


def _tension_components(
    domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...]
) -> tuple[tuple[Expr, ...], Expr, ClearedExpr]:
    """Cleared tension components, their clearing, and the cleared energy."""
    energy = energy_density(domain, codomain, comps)
    m = domain.dim
    jac = _jacobian(comps, m)
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
    return [
        tuple(grid[rng.randint(-denominator, denominator) + denominator] for _ in range(nvars))
        for _ in range(count)
    ]


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
            val = program.at(pt)[0][0]
            if math.isfinite(val) and abs(val) > NUMERIC_TOL:
                return Witness(point=pt, component=idx, value=val)
    raise UnsupportedExpressionError(
        "no witness point found for a symbolically nonzero tension"
    )


def numeric_zero_check(
    components: Sequence[Expr],
    nvars: int,
    seed: int = 0,
    count: int = SAMPLE_COUNT,
    tol: float = NUMERIC_TOL,
) -> bool:
    """All components stay below tol at `count` sample points.

    Tolerance is absolute after normalizing by 1 + |largest monomial| at the
    point, which keeps the test meaningful for large cleared numerators.
    Structurally zero components evaluate to 0.0 everywhere, so they are
    dropped, and no point is sampled when none is left.
    """
    live = [c for c in components if c]
    if not live:
        return True
    program = FloatProgram(nvars, live)
    for pt in sample_points(nvars, count, seed):
        values, magnitudes = program.at(pt)
        for val, mag in zip(values, magnitudes):
            if abs(val) > tol * (1.0 + mag):
                return False
    return True


def infinity_tension(
    domain: ModelSpace,
    codomain: ModelSpace,
    phi,
    mode: str = "exact",
    seed: int = 0,
) -> TensionReport:
    """Tension components g(grad phi^a, grad |dphi|^2) with an exact verdict.

    mode "exact" decides by the symbolic zero test and falls back to numeric
    sampling only when the composition leaves the decidable class; mode
    "numeric" forces the sampled verdict.
    """
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    try:
        components, clearing, energy = _tension_components(domain, codomain, comps)
    except UnsupportedExpressionError:
        return _numeric_tension_report(domain, codomain, comps, seed)
    exact = mode == "exact"
    if exact:
        zero = all(is_zero(c) for c in components)
    else:
        zero = numeric_zero_check(components, domain.dim, seed=seed)
    return TensionReport(
        energy_density=energy.num,
        energy_clearing=energy.clearing,
        components=components,
        tension_clearing=clearing,
        verdict="zero" if zero else "nonzero",
        witness=None if zero else _find_witness(components, domain.dim),
        mode="exact" if exact else "numeric",
    )


# ---------------------------------------------------------------------------
# numeric fallback: evaluates the tension pointwise without symbolic
# composition of the codomain metric (needed e.g. for trig maps into Sol)


class NumericTension:
    """Pointwise tension evaluator that bypasses symbolic composition.

    Domain-side derivatives are taken symbolically once at construction,
    and both sides are compiled once into a ``FloatProgram``; at each point
    the codomain metric is evaluated in floats at phi(point) and the tension
    is assembled numerically.  This is an independent route
    to the same quantity as the cleared symbolic components (up to the
    positive clearing factor), used for the exact/numeric coherence checks
    and as the fallback when composition leaves the symbolic class.
    """

    def __init__(self, domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...]):
        m, n = domain.dim, codomain.dim
        self.domain = domain
        self.codomain = codomain
        self.comps = comps
        self.m, self.n = m, n
        self.jac = _jacobian(comps, m)
        self.hess = [
            [[partial_derivative(self.jac[a][i], k) for k in range(m)] for i in range(m)]
            for a in range(n)
        ]
        self.dgu = [
            [[partial_derivative(domain.g_upper[i][j], k) for k in range(m)] for j in range(m)]
            for i in range(m)
        ]
        self.dh = [
            [[partial_derivative(codomain.g_lower[a][b], g) for g in range(n)] for b in range(n)]
            for a in range(n)
        ]
        self.dscale = [partial_derivative(codomain.lower_scale, g) for g in range(n)]
        # Each side is compiled once, in the order at() unpacks it; the
        # codomain side holds only the metric entries that are not zero.
        self._pairs = [(a, b) for a in range(n) for b in range(n) if codomain.g_lower[a][b]]
        self._domain_side = FloatProgram(m, [
            *(e for row in domain.g_upper for e in row),
            *(e for plane in self.dgu for row in plane for e in row),
            *(e for row in self.jac for e in row),
            *(e for plane in self.hess for row in plane for e in row),
            *comps,
        ])
        self._codomain_side = FloatProgram(n, [
            codomain.lower_scale,
            *self.dscale,
            *(e for a, b in self._pairs for e in (codomain.g_lower[a][b], *self.dh[a][b])),
        ])

    def at(self, point) -> tuple[list[float], float]:
        """Tension component values at a rational point, plus a size scale."""
        m, n = self.m, self.n
        take = iter(self._domain_side.at(point)[0]).__next__
        gu = [[take() for _ in range(m)] for _ in range(m)]
        dgu = [[[take() for _ in range(m)] for _ in range(m)] for _ in range(m)]
        jval = [[take() for _ in range(m)] for _ in range(n)]
        hval = [[[take() for _ in range(m)] for _ in range(m)] for _ in range(n)]
        phi_pt = [take() for _ in range(n)]
        take = iter(self._codomain_side.at_float(phi_pt)[0]).__next__
        d_val = take()
        dd_val = [take() for _ in range(n)]
        h_val = [[0.0] * n for _ in range(n)]
        dh_val = [[[0.0] * n for _ in range(n)] for _ in range(n)]  # [gamma][a][b]
        for a, b in self._pairs:
            gv = take()
            h_val[a][b] = gv / d_val
            for g in range(n):
                dgv = take()
                dh_val[g][a][b] = (dgv * d_val - gv * dd_val[g]) / (d_val * d_val)
        # Metric pairs with a zero value and zero derivatives add nothing.
        pairs = [
            (a, b)
            for a, b in self._pairs
            if not (h_val[a][b] == 0.0 and all(dh_val[g][a][b] == 0.0 for g in range(n)))
        ]
        wgrad = [0.0] * m
        for k in range(m):
            # The chain-rule factor depends on (k, a, b) only.
            terms = [
                (a, b, h_val[a][b], sum(dh_val[g][a][b] * jval[g][k] for g in range(n)))
                for a, b in pairs
            ]
            total = 0.0
            for i in range(m):
                for j in range(m):
                    gij = gu[i][j]
                    dgij = dgu[i][j][k]
                    for a, b, hab, chain in terms:
                        jai = jval[a][i]
                        jbj = jval[b][j]
                        dpart = dgij * jai * jbj + gij * (hval[a][i][k] * jbj + jai * hval[b][j][k])
                        total += dpart * hab
                        total += gij * jai * jbj * chain
            wgrad[k] = total
        values = []
        scale = 0.0
        for a in range(n):
            total = 0.0
            for i in range(m):
                for j in range(m):
                    term = gu[i][j] * jval[a][i] * wgrad[j]
                    scale = max(scale, abs(term))
                    total += term
            values.append(total)
        return values, scale


def independent_numeric_check(
    domain: ModelSpace,
    codomain: ModelSpace,
    phi,
    seed: int = 0,
    count: int = SAMPLE_COUNT,
    tol: float = NUMERIC_TOL,
) -> bool:
    """All numerically assembled tension values stay below tol at sample points."""
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    evaluator = NumericTension(domain, codomain, comps)
    for pt in sample_points(domain.dim, count, seed):
        values, scale = evaluator.at(pt)
        for val in values:
            if abs(val) > tol * (1.0 + scale):
                return False
    return True


def _numeric_tension_report(
    domain: ModelSpace, codomain: ModelSpace, comps: tuple[Expr, ...], seed: int
) -> TensionReport:
    evaluator = NumericTension(domain, codomain, comps)
    points = sample_points(domain.dim, SAMPLE_COUNT, seed)
    worst = 0.0
    worst_point = None
    worst_comp = 0
    worst_val = 0.0
    finite_points = 0
    for pt in points:
        values, scale = evaluator.at(pt)
        finite_points += math.isfinite(scale) and all(map(math.isfinite, values))
        for idx, val in enumerate(values):
            ratio = abs(val) / (1.0 + scale)
            if ratio > worst:
                worst = ratio
                worst_point = pt
                worst_comp = idx
                worst_val = val
    zero = worst <= NUMERIC_TOL
    # A non-finite value is never a witness, so with no finite point a zero
    # verdict would rest on nothing.
    if zero and not finite_points:
        raise UnsupportedExpressionError(
            f"the numeric fallback saw no sample point, of {len(points)}, at which every"
            " tension value is finite"
        )
    return TensionReport(
        energy_density=None,
        energy_clearing=None,
        components=None,
        tension_clearing=None,
        verdict="zero" if zero else "nonzero",
        witness=None if zero else Witness(point=worst_point, component=worst_comp, value=worst_val),
        mode="numeric",
    )


# ---------------------------------------------------------------------------
# tension field and p-tension


def tension_field(
    domain: ModelSpace, codomain: ModelSpace, phi
) -> tuple[tuple[Expr, ...], Expr]:
    """Cleared harmonic-map tension tau_2 and its clearing divisor."""
    comps = _components_of(phi)
    _check_dims(domain, codomain, comps)
    m, n = domain.dim, codomain.dim
    tdom = christoffel(domain)
    tcod = christoffel(codomain)
    jac = _jacobian(comps, m)
    sc_phi = substitute(tcod.scale, comps)
    gamma_phi = [
        [[substitute(tcod.gamma[g][a][b], comps) if tcod.gamma[g][a][b] else Expr.zero(m)
          for b in range(n)] for a in range(n)]
        for g in range(n)
    ]
    out = []
    for g in range(n):
        total = Expr.zero(m)
        for i in range(m):
            for j in range(m):
                gij = domain.g_upper[i][j]
                if not gij:
                    continue
                term = partial_derivative(jac[g][i], j) * tdom.scale * sc_phi
                for k in range(m):
                    gk = tdom.gamma[k][i][j]
                    if gk:
                        term = term - gk * jac[g][k] * sc_phi
                for a in range(n):
                    for b in range(n):
                        gp = gamma_phi[g][a][b]
                        if gp:
                            term = term + gp * jac[a][i] * jac[b][j] * tdom.scale
                total = total + gij * term
        out.append(total)
    clearing = tdom.scale * sc_phi
    return tuple(out), clearing


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


def _fd4(f, x: list[float], i: int, h: float) -> list[float]:
    """Fourth-order central difference along coordinate i of a list-valued f."""
    def at(delta: float) -> list[float]:
        y = list(x)
        y[i] += delta
        return f(y)

    far, near, back, far_back = at(2 * h), at(h), at(-h), at(-2 * h)
    return [
        (-a + 8 * b - 8 * c + d) / (12 * h)
        for a, b, c, d in zip(far, near, back, far_back)
    ]


def fd_p_tension(
    comps: Sequence[Expr], p: int, point: Sequence[float], h: float = 1e-2
) -> list[float]:
    """Finite-difference p-tension of a Euclidean-to-Euclidean map.

    Computes sum_i d_i(W^{(p-2)/2} d_i phi^g) with all derivatives taken by
    fourth-order central differences on float evaluations of the components;
    independent of the symbolic differentiation path.  Every component is
    evaluated in one compiled pass per point.
    """
    m = comps[0].nvars
    program = FloatProgram(m, comps)

    def values(y: list[float]) -> list[float]:
        return program.at_float(y)[0]

    def flux(i: int, y: list[float]) -> list[float]:
        """W^{(p-2)/2} d_i phi^g at y, for every g."""
        grad = [_fd4(values, y, j, h) for j in range(m)]  # grad[j][g] = d_j phi^g
        w = 0.0
        for g in range(len(comps)):
            for j in range(m):
                w += grad[j][g] ** 2
        wpow = w ** ((p - 2) / 2.0)
        return [wpow * d for d in grad[i]]

    divergence = [_fd4(lambda y, i=i: flux(i, y), list(point), i, h) for i in range(m)]
    out = []
    for g in range(len(comps)):
        total = 0.0
        for i in range(m):
            total += divergence[i][g]
        out.append(total)
    return out

"""Differential operators: worked examples and the operator identities."""

import math
from fractions import Fraction
from random import Random

import pytest

from infharm.calculus import (
    NumericTension,
    _child_seed,
    _witness_candidates,
    energy_density,
    fd_p_tension,
    gradient_norm_squared,
    hessian_form,
    independent_numeric_check,
    infinity_laplacian,
    infinity_tension,
    laplace_beltrami,
    metric_gradient,
    numeric_zero_check,
    p_laplacian,
    p_tension,
    phm_composed_p_tension,
    sample_points,
    tension_field,
)
from infharm.exprcore import (
    DimensionError,
    Expr,
    UnsupportedExpressionError,
    cos_of,
    evaluate,
    exp_of,
    is_zero,
    parse_expr,
    partial_derivative,
    to_string,
)
from infharm.mapspec import affine_map, custom_map, materialize, quadratic_map
from infharm.spaces import build_space

from conftest import (
    rand_coeff,
    random_expr,
    random_polynomial,
    reference_evaluate,
    reference_evaluate_float,
)

E1, E2, E3 = build_space("euclid:1"), build_space("euclid:2"), build_space("euclid:3")
NIL, SOL = build_space("nil"), build_space("sol")
S2 = build_space("sphere:2")


class TestMetricGradient:
    def test_euclidean(self):
        f = parse_expr("x1^2 + x2^2", 2)
        assert metric_gradient(E2, f) == (2 * Expr.coord(2, 0), 2 * Expr.coord(2, 1))

    def test_nil_vertical_coordinate(self):
        grad = metric_gradient(NIL, Expr.coord(3, 2))
        assert is_zero(grad[0])
        assert grad[1] == Expr.coord(3, 0)
        assert grad[2] == Expr.const(3, 1) + Expr.coord(3, 0) ** 2

    def test_sol_first_coordinate(self):
        grad = metric_gradient(SOL, Expr.coord(3, 0))
        assert grad[0] == exp_of(-2 * Expr.coord(3, 2))
        assert is_zero(grad[1]) and is_zero(grad[2])


class TestEnergyDensity:
    def test_identity_map_trace(self):
        e4 = build_space("euclid:4")
        spec = affine_map([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        en = energy_density(e4, e4, spec)
        assert en.num == Expr.const(4, 4) and en.is_plain

    def test_trig_map_constant_three(self):
        spec = custom_map(
            3,
            [
                parse_expr("cos(x1)+cos(x2)+cos(x3)", 3),
                parse_expr("sin(x1)+sin(x2)+sin(x3)", 3),
            ],
        )
        en = energy_density(E3, E2, spec)
        assert en.num == Expr.const(3, 3)

    def test_nil_polynomial_example(self):
        spec = custom_map(3, [parse_expr("x3 - x1*x2/2", 3), parse_expr("2*x3 - x1*x2", 3)])
        en = energy_density(NIL, E2, spec)
        x, y = Expr.coord(3, 0), Expr.coord(3, 1)
        assert en.num == 5 + Fraction(5, 4) * x * x + Fraction(5, 4) * y * y

    def test_semi_euclidean_null_energy(self):
        semi = build_space("semi-euclid:2:-+")
        spec = quadratic_map([[[12, 0], [0, 12]], [[13, 5], [5, 13]]])
        en = energy_density(semi, semi, spec)
        assert is_zero(en.num)

    def test_positivity_on_riemannian_spaces(self):
        rng = Random(77)
        pairs = [(E2, E2), (NIL, E2), (SOL, E2), (E2, NIL), (E2, SOL), (S2, E2), (E2, S2)]
        for dom, cod in pairs:
            spec = affine_map(
                [[rand_coeff(rng) for _ in range(dom.dim)] for _ in range(cod.dim)]
            )
            en = energy_density(dom, cod, spec)
            for pt in sample_points(dom.dim, 100, seed=13):
                assert evaluate(en.num, pt) >= -1e-12


class TestInfinityTension:
    def test_affine_euclidean_zero(self):
        spec = affine_map([[1, 2], [3, 4]], [5, 6])
        rep = infinity_tension(E2, E2, spec)
        assert rep.verdict == "zero" and rep.mode == "exact"

    def test_single_square_witness(self):
        rep = infinity_tension(E1, E1, quadratic_map([[[1]]]))
        assert rep.components[0] == 16 * Expr.coord(1, 0) ** 2
        assert rep.verdict == "nonzero"
        assert rep.witness is not None and abs(rep.witness.value) > 1e-9

    def test_nil_projection_energy_and_verdict(self):
        spec = affine_map([[0, 1, 0], [0, 0, 1]])
        rep = infinity_tension(NIL, E2, spec)
        assert rep.energy_density == Expr.coord(3, 0) ** 2 + 2
        assert rep.verdict == "zero"

    def test_witness_candidates_are_built_once(self):
        pts = _witness_candidates(3)
        assert isinstance(pts, tuple) and _witness_candidates(3) is pts
        assert len(pts) == 1 + 2 * 3 + 200
        assert pts[:3] == ((1, 1, 1), (1, 0, 0), (-1, 0, 0))

    def test_sample_points_equal_fresh_fractions(self):
        for nvars, count, seed, den in ((1, 64, 0, 64), (3, 64, 7, 64), (2, 200, 5, 8), (4, 9, 12, 3)):
            rng = Random(_child_seed(seed, f"points:{nvars}:{count}"))
            fresh = [
                tuple(Fraction(rng.randint(-den, den), den) for _ in range(nvars)) for _ in range(count)
            ]
            assert sample_points(nvars, count, seed, denominator=den) == fresh

    def test_zero_components_are_not_sampled(self, monkeypatch):
        x1 = Expr.coord(2, 0)
        assert not numeric_zero_check([Expr.zero(2), x1], 2, seed=1)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled an all-zero tension")

        monkeypatch.setattr("infharm.calculus.sample_points", no_sampling)
        assert numeric_zero_check([Expr.zero(2), x1 - x1], 2, seed=1)
        assert numeric_zero_check([], 2, seed=1)

    def test_quadratic_into_sol_nonzero(self):
        spec = quadratic_map([[[1]], [[0]], [[0]]])
        rep = infinity_tension(E1, SOL, spec)
        assert rep.verdict == "nonzero"

    def test_numeric_mode_agrees_on_zero(self):
        spec = affine_map([[0, 1, 0], [0, 0, 1]])
        rep = infinity_tension(NIL, E2, spec, mode="numeric", seed=3)
        assert rep.verdict == "zero" and rep.mode == "numeric"

    def test_numeric_fallback_for_unsupported_composition(self):
        # trig components into Sol: exp(trig) leaves the symbolic class
        spec = custom_map(1, [parse_expr("cos(x1)", 1), Expr.zero(1), parse_expr("sin(x1)", 1)])
        rep = infinity_tension(E1, SOL, spec)
        assert rep.mode == "numeric"
        assert rep.components is None

    def test_numeric_fallback_with_no_finite_point_is_unsupported(self):
        # z = exp(800 + x1) overflows at every sample point, and e^{2z} with it.
        comps = [Expr.coord(2, 0), Expr.coord(2, 1), parse_expr("exp(800 + x1)", 2)]
        nt = NumericTension(E2, SOL, comps)
        for pt in sample_points(2, 64, 0):
            values, scale = nt.at(pt)
            assert not all(math.isfinite(v) for v in (scale, *values))
        with pytest.raises(UnsupportedExpressionError, match="every tension value is finite"):
            infinity_tension(E2, SOL, comps)

    def test_exact_zero_passes_numeric_sampling(self):
        spec = custom_map(
            3,
            [
                parse_expr("cos(x1)+cos(x2)+cos(x3)", 3),
                parse_expr("sin(x1)+sin(x2)+sin(x3)", 3),
            ],
        )
        rep = infinity_tension(E3, E2, spec)
        assert rep.verdict == "zero"
        assert numeric_zero_check(rep.components, 3, seed=99)


class TestScalarOperators:
    def test_linear_functions_harmonic(self):
        u = parse_expr("2*x1 + 3*x2 - x3", 3)
        assert is_zero(infinity_laplacian(E3, u))

    def test_square_on_line(self):
        u = parse_expr("x1^2", 1)
        assert infinity_laplacian(E1, u) == 8 * Expr.coord(1, 0) ** 2

    def test_nil_linear_criterion(self):
        # A x + B y + C z on Nil: harmonic iff A = 0 or C = 0
        assert is_zero(infinity_laplacian(NIL, parse_expr("x2 + x3", 3)))
        assert is_zero(infinity_laplacian(NIL, parse_expr("x1 + x2", 3)))
        assert not is_zero(infinity_laplacian(NIL, parse_expr("x1 + x3", 3)))

    def test_sol_linear_criterion(self):
        # A x + B y + C z on Sol: harmonic iff C = 0 or A = B = 0
        assert is_zero(infinity_laplacian(SOL, parse_expr("x1 + x2", 3)))
        assert is_zero(infinity_laplacian(SOL, parse_expr("x3", 3)))
        assert not is_zero(infinity_laplacian(SOL, parse_expr("x2 + x3", 3)))

    def test_hessian_consistency_all_spaces(self):
        rng = Random(88)
        for label in ["euclid:2", "euclid:3", "nil", "sol", "sphere:2", "semi-euclid:2:-+"]:
            sp = build_space(label)
            for _ in range(20):
                u = random_polynomial(rng, sp.dim)
                dinf = infinity_laplacian(sp, u)
                hf = hessian_form(sp, u)
                assert is_zero(hf.clearing * dinf - hf.num), label

    def test_euclidean_coordinate_form(self):
        rng = Random(99)
        for _ in range(100):
            n = rng.randint(1, 3)
            sp = build_space(f"euclid:{n}")
            u = random_polynomial(rng, n)
            du = [partial_derivative(u, i) for i in range(n)]
            coord_form = Expr.zero(n)
            for i in range(n):
                for j in range(n):
                    coord_form = coord_form + partial_derivative(du[i], j) * du[i] * du[j]
            assert is_zero(infinity_laplacian(sp, u) - coord_form)


class TestPLaplacian:
    def test_p2_is_laplace_beltrami(self):
        u = parse_expr("x1^2 + x2^2", 2)
        pl = p_laplacian(E2, u, 2)
        assert pl.num == Expr.const(2, 4)

    def test_p4_linear_vanishes(self):
        u = parse_expr("x1 + 2*x2", 2)
        assert is_zero(p_laplacian(E2, u, 4).num)

    def test_p4_square(self):
        u = parse_expr("x1^2", 1)
        assert p_laplacian(E1, u, 4).num == 24 * Expr.coord(1, 0) ** 2

    def test_odd_p_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            p_laplacian(E1, parse_expr("x1^2", 1), 3)


class TestTensionFields:
    def test_affine_totally_geodesic(self):
        spec = affine_map([[1, 2], [3, 4]], [1, 1])
        t2, _ = tension_field(E2, E2, spec)
        assert all(is_zero(t) for t in t2)
        tp, _ = p_tension(E2, E2, spec, 4)
        assert all(is_zero(t) for t in tp)

    def test_p4_square_value(self):
        tp, clearing = p_tension(E1, E1, quadratic_map([[[1]]]), 4)
        assert tp[0] == 24 * Expr.coord(1, 0) ** 2
        assert clearing.constant_value() == 1

    def test_harmonic_but_not_infinity_harmonic(self):
        spec = custom_map(2, [parse_expr("x1^2 - x2^2", 2)])
        t2, _ = tension_field(E2, E1, spec)
        assert is_zero(t2[0])
        tp, _ = p_tension(E2, E1, spec, 4)
        rep = infinity_tension(E2, E1, spec)
        # with tau_2 = 0 the p=4 tension reduces to the tension report component
        assert is_zero(tp[0] - rep.components[0])
        x, y = Expr.coord(2, 0), Expr.coord(2, 1)
        assert tp[0] == 16 * x * x - 16 * y * y

    def test_sphere_identity_totally_geodesic(self):
        spec = affine_map([[1, 0], [0, 1]])
        t2, _ = tension_field(S2, S2, spec)
        assert all(is_zero(t) for t in t2)

    def test_phm_identity_random_maps(self):
        rng = Random(123)
        for _ in range(50):
            m, n = rng.randint(1, 3), rng.randint(1, 2)
            quads = []
            for _ in range(n):
                q = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        v = rand_coeff(rng)
                        q[i][j] = v
                        q[j][i] = v
                quads.append(tuple(tuple(r) for r in q))
            a = [[rand_coeff(rng) for _ in range(m)] for _ in range(n)]
            b = [rand_coeff(rng) for _ in range(n)]
            spec = quadratic_map(quads, a, b)
            dom, cod = build_space(f"euclid:{m}"), build_space(f"euclid:{n}")
            div_form, dc = p_tension(dom, cod, spec, 4)
            composed, cc = phm_composed_p_tension(dom, cod, spec, 4)
            assert dc.constant_value() == 1 and cc.constant_value() == 1
            for lhs, rhs in zip(div_form, composed):
                assert is_zero(lhs - rhs)

    def test_fd_oracle_agreement(self):
        rng = Random(321)
        for _ in range(10):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            quads = []
            for _ in range(n):
                q = [[Fraction(0)] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        v = rand_coeff(rng)
                        q[i][j] = v
                        q[j][i] = v
                quads.append(tuple(tuple(r) for r in q))
            spec = quadratic_map(quads)
            dom, cod = build_space(f"euclid:{m}"), build_space(f"euclid:{n}")
            tp, _ = p_tension(dom, cod, spec, 4)
            comps = materialize(spec)
            for pt in sample_points(m, 5, seed=17):
                fd = fd_p_tension(comps, 4, [float(v) for v in pt])
                for sym_expr, fd_val in zip(tp, fd):
                    sym_val = evaluate(sym_expr, pt)
                    assert abs(sym_val - fd_val) <= 1e-6 * max(1.0, abs(sym_val), abs(fd_val))


class TestHolomorphicDoubling:
    def test_energy_is_twice_real_part_energy(self):
        from infharm.mapspec import ComplexPolyMap, holomorphic_map, parse_cpoly, realify

        rng = Random(55)
        for _ in range(100):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            comps = []
            for _ in range(n):
                poly = {}
                for _ in range(rng.randint(1, 3)):
                    mono = [0] * m
                    for _ in range(rng.randint(0, 3)):
                        mono[rng.randrange(m)] += 1
                    poly[tuple(mono)] = (rand_coeff(rng), rand_coeff(rng))
                poly = {k: v for k, v in poly.items() if v != (Fraction(0), Fraction(0))}
                comps.append(poly or {(0,) * m: (Fraction(1), Fraction(0))})
            cmap = ComplexPolyMap(m, n, tuple(comps))
            spec = holomorphic_map(cmap)
            dom = build_space(f"euclid:{2 * m}")
            cod = build_space(f"euclid:{2 * n}")
            en = energy_density(dom, cod, spec)
            us, _ = realify(cmap)
            doubled = Expr.zero(2 * m)
            for u in us:
                for j in range(2 * m):
                    du = partial_derivative(u, j)
                    doubled = doubled + 2 * du * du
            assert is_zero(en.num - doubled)


def reference_at(nt: NumericTension, point) -> tuple[list[float], float]:
    """NumericTension.at assembled as before compilation: one evaluation per expression."""
    m, n = nt.m, nt.n
    gu = [[reference_evaluate(nt.domain.g_upper[i][j], point) for j in range(m)] for i in range(m)]
    dgu = [
        [[reference_evaluate(nt.dgu[i][j][k], point) for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    jval = [[reference_evaluate(nt.jac[a][i], point) for i in range(m)] for a in range(n)]
    hval = [
        [[reference_evaluate(nt.hess[a][i][k], point) for k in range(m)] for i in range(m)]
        for a in range(n)
    ]
    phi_pt = [reference_evaluate(c, point) for c in nt.comps]
    d_val = reference_evaluate_float(nt.codomain.lower_scale, phi_pt)
    dd_val = [reference_evaluate_float(nt.dscale[g], phi_pt) for g in range(n)]
    h_val = [[0.0] * n for _ in range(n)]
    dh_val = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            gab = nt.codomain.g_lower[a][b]
            if not gab.terms:
                continue
            gv = reference_evaluate_float(gab, phi_pt)
            h_val[a][b] = gv / d_val
            for g in range(n):
                dgv = reference_evaluate_float(nt.dh[a][b][g], phi_pt)
                dh_val[g][a][b] = (dgv * d_val - gv * dd_val[g]) / (d_val * d_val)
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if not (h_val[a][b] == 0.0 and all(dh_val[g][a][b] == 0.0 for g in range(n)))
    ]
    wgrad = [0.0] * m
    for k in range(m):
        total = 0.0
        for i in range(m):
            for j in range(m):
                for a, b in pairs:
                    dpart = (
                        dgu[i][j][k] * jval[a][i] * jval[b][j]
                        + gu[i][j] * (hval[a][i][k] * jval[b][j] + jval[a][i] * hval[b][j][k])
                    )
                    total += dpart * h_val[a][b]
                    chain = sum(dh_val[g][a][b] * jval[g][k] for g in range(n))
                    total += gu[i][j] * jval[a][i] * jval[b][j] * chain
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


def reference_fd_p_tension(comps, p, point, h=1e-2):
    """fd_p_tension as before compilation: one finite difference per (component, direction)."""
    m = comps[0].nvars

    def fd4(f, x, i):
        def at(delta):
            y = list(x)
            y[i] += delta
            return f(y)

        return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)

    def grad_entry(g, i, x):
        return fd4(lambda y: reference_evaluate_float(comps[g], y), x, i)

    def wpow(x):
        w = 0.0
        for g in range(len(comps)):
            for i in range(m):
                w += grad_entry(g, i, x) ** 2
        return w ** ((p - 2) / 2.0)

    out = []
    for g in range(len(comps)):
        total = 0.0
        for i in range(m):
            total += fd4(lambda y, gi=g, ii=i: wpow(y) * grad_entry(gi, ii, y), list(point), i)
        out.append(total)
    return out


class TestCompiledNumericPaths:
    """The compiled float paths against their per-expression assembly, bit for bit."""

    PAIRS = (
        ("euclid:2", "sol"),
        ("semi-euclid:3:-++", "sol"),
        ("sphere:2", "nil"),
        ("nil", "sphere:3"),
        ("euclid:3", "conformal:2:1+x1^2+x2^2"),
        ("sol", "euclid:3"),
    )

    def test_numeric_tension_matches_the_per_expression_assembly(self):
        rng = Random(2718)
        nonfinite = 0
        for trial in range(24):
            dlabel, clabel = self.PAIRS[trial % len(self.PAIRS)]
            dom, cod = build_space(dlabel), build_space(clabel)
            comps = tuple(random_expr(rng, dom.dim, max_deg=2, terms=3) for _ in range(cod.dim))
            nt = NumericTension(dom, cod, comps)
            for pt in sample_points(dom.dim, 6, seed=trial):
                values, scale = nt.at(pt)
                assert (repr(values), repr(scale)) == tuple(map(repr, reference_at(nt, pt)))
        # exp(800 x1) overflows at x1 = 1, and the metric factor exp(2 phi^3) at
        # x1 = 1/2; exp(700 x1) overflows only in its second derivative, where
        # the full assembly gives scale 0.0 and skipping the structurally zero
        # metric entries would give inf.
        x1, x2 = Expr.coord(2, 0), Expr.coord(2, 1)
        maps = (
            (x1, x2, exp_of(800 * x1)),
            (x2 * x1, x1, exp_of(800 * x1) - x2),
            (x1, exp_of(700 * x1), cos_of(2, 0)),
        )
        points = ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(-1), Fraction(1)))
        for comps in maps:
            nt = NumericTension(E2, SOL, comps)
            for pt in points:
                values, scale = nt.at(pt)
                expected = reference_at(nt, pt)
                assert (repr(values), repr(scale)) == tuple(map(repr, expected))
                nonfinite += not all(math.isfinite(v) for v in expected[0])
        assert nonfinite >= 3

    def test_fd_p_tension_matches_the_per_component_differences(self):
        rng = Random(161)
        for _ in range(8):
            m, n = rng.randint(1, 3), rng.randint(1, 2)
            comps = [random_polynomial(rng, m, max_deg=3, terms=3) for _ in range(n)]
            for pt in sample_points(m, 2, seed=m):
                fpt = [float(v) for v in pt]
                assert repr(fd_p_tension(comps, 4, fpt)) == repr(reference_fd_p_tension(comps, 4, fpt))

    def test_independent_check_rejects_a_short_map(self):
        with pytest.raises(DimensionError, match="codomain euclid:3 has dim 3"):
            independent_numeric_check(E2, E3, affine_map([[1, 0], [0, 1]]))

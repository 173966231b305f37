"""Differential operators: worked examples and the operator identities."""

import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from infharm import calculus, classify, exprcore
from infharm.calculus import (
    PRIME,
    NumericTension,
    _child_seed,
    _components_of,
    _prime_point,
    _tension_components,
    _tension_mod_p,
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
    residue,
    substitute,
    to_string,
)
from infharm.mapspec import affine_map, custom_map, materialize, quadratic_map
from infharm.spaces import CATALOG_EXAMPLES, build_conformal, build_space

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

    def test_a_vertical_map_into_sol_composes_only_h33(self, monkeypatch):
        calls = []
        monkeypatch.setattr(calculus, "substitute", lambda e, comps: calls.append(e) or substitute(e, comps))
        comps = (Expr.const(2, 2), Expr.const(2, Fraction(1, 4)), parse_expr("-cos(x2)", 2))
        en = energy_density(E2, SOL, comps)
        assert en.num == parse_expr("sin(x2)^2", 2) and en.is_plain
        assert len(calls) == 2 and calls[0] is SOL.g_lower[2][2] and calls[1] is SOL.lower_scale

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

    def test_non_finite_values_are_not_zero(self):
        # inf/inf and nan compare below any tolerance; they must not pass for zero.
        x1 = Expr.coord(1, 0)
        assert not numeric_zero_check([exp_of(x1 + 800)], 1, seed=1)
        assert not numeric_zero_check([exp_of(x1 + 800) - exp_of(x1 + 800) * (1 + x1 * x1)], 1, seed=1)

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

    def test_numeric_fallback_for_unsupported_composition(self):
        # trig components into Sol: exp(trig) leaves the symbolic class, so the
        # components read None and the witness is sampled; the verdict is the
        # prime point route's.
        comps = (parse_expr("cos(x1)", 1), Expr.zero(1), parse_expr("sin(x1)", 1))
        rep = infinity_tension(E1, SOL, custom_map(1, list(comps)), seed=3)
        assert (rep.verdict, rep.mode) == ("nonzero", "exact")
        assert rep.components is None
        assert rep.witness == calculus._sampled_witness(E1, SOL, comps, 3) is not None

    def test_numeric_fallback_with_no_finite_point_is_unsupported(self):
        # z = exp(800 + x1) overflows at every sample point, and e^{2z} with it.
        comps = [Expr.coord(2, 0), Expr.coord(2, 1), parse_expr("exp(800 + x1)", 2)]
        points = sample_points(2, 64, 0)
        nt = NumericTension(E2, SOL, comps, points)
        for k in range(len(points)):
            values, scale = nt.at(k)
            assert not all(math.isfinite(v) for v in (scale, *values))
        # The verdict is exact; the witness that the fallback cannot give is an error on its read.
        rep = infinity_tension(E2, SOL, comps)
        assert (rep.verdict, rep.mode) == ("nonzero", "exact")
        with pytest.raises(UnsupportedExpressionError, match="every tension value is finite"):
            rep.witness

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


class TestScalarOperatorsAreMapOperators:
    def test_p_laplacian_matches_the_composed_identity(self):
        """|grad u|^{p-4} (|grad u|^2 Lap u + (p-2) InfLap u), both sides cleared.

        On Euclidean spaces ``p_laplacian`` takes the divergence route, so
        there this compares it with the composed one.
        """
        rng = Random(404)
        for label in CATALOG_EXAMPLES:
            sp = build_space(label)
            for p in (4, 6):
                for _ in range(2):
                    u = random_polynomial(rng, sp.dim, max_deg=2, terms=3)
                    pl = p_laplacian(sp, u, p)
                    w = gradient_norm_squared(sp, u)
                    lb = laplace_beltrami(sp, u)
                    num = w ** ((p - 4) // 2) * (
                        w * lb.num + (p - 2) * lb.clearing * infinity_laplacian(sp, u)
                    )
                    assert is_zero(pl.num * lb.clearing - num * pl.clearing), (label, p)

    def test_lem11_checks_the_tension_assembly(self, monkeypatch):
        """The LEM1.1 suite tests the assembly that decides every verdict."""
        assert classify.run_suite("LEM1.1", 20, 0).disagreements == 0
        assemble = calculus._tension_components

        def perturbed(domain, codomain, comps):
            out, clearing, energy = assemble(domain, codomain, comps)
            return tuple(c + Expr.coord(c.nvars, 0) for c in out), clearing, energy

        monkeypatch.setattr(calculus, "_tension_components", perturbed)
        assert classify.run_suite("LEM1.1", 20, 0).disagreements > 0

    def test_scalar_dimension_mismatch_raises_the_map_message(self):
        for operator in (infinity_laplacian, gradient_norm_squared):
            with pytest.raises(DimensionError, match="component uses 3 coordinates"):
                operator(E2, parse_expr("x1", 3))

    def test_p_laplacian_names_the_p_tension_in_its_refusal(self):
        with pytest.raises(UnsupportedExpressionError, match="p-tension"):
            p_laplacian(E2, parse_expr("x1", 2), 4.0)


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

    def test_identity_has_zero_tension_on_every_catalog_space(self):
        """Lap x^g and the codomain connection term meet over one clearing."""
        for label in CATALOG_EXAMPLES:
            sp = build_space(label)
            identity = [[int(i == j) for j in range(sp.dim)] for i in range(sp.dim)]
            t2, clearing = tension_field(sp, sp, affine_map(identity))
            assert all(is_zero(t) for t in t2), label
            assert clearing

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
    """NumericTension.at assembled as before compilation: one evaluation per expression.

    It takes J_ai = d_i phi^a and dJ_ai/dx_k = d_k d_i phi^a from the
    components itself, every k and i in that order: the two orders of a
    mixed partial can come out in different term orders, and so round
    differently.
    """
    m, n = nt.m, nt.n
    jac = [[partial_derivative(c, i) for i in range(m)] for c in nt.comps]
    gu = [[reference_evaluate(nt.domain.g_upper[i][j], point) for j in range(m)] for i in range(m)]
    dgu = [
        [[reference_evaluate(nt.dgu[i][j][k], point) for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    jval = [[reference_evaluate(jac[a][i], point) for i in range(m)] for a in range(n)]
    hval = [
        [[reference_evaluate(partial_derivative(jac[a][i], k), point) for k in range(m)] for i in range(m)]
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
    # wsize[k] sums |summand| over the summands of wgrad[k], in the same order.
    wsize = [0.0] * m
    for k in range(m):
        total = size = 0.0
        for i in range(m):
            for j in range(m):
                for a, b in pairs:
                    dpart = (
                        dgu[i][j][k] * jval[a][i] * jval[b][j]
                        + gu[i][j] * (hval[a][i][k] * jval[b][j] + jval[a][i] * hval[b][j][k])
                    )
                    chain = sum(dh_val[g][a][b] * jval[g][k] for g in range(n))
                    for summand in (dpart * h_val[a][b], gu[i][j] * jval[a][i] * jval[b][j] * chain):
                        total += summand
                        size += abs(summand)
        wgrad[k] = total
        wsize[k] = size
    values = []
    scale = 0.0
    for a in range(n):
        total = 0.0
        for i in range(m):
            for j in range(m):
                factor = gu[i][j] * jval[a][i]
                scale = max(scale, abs(factor) * wsize[j])
                total += factor * wgrad[j]
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


def _bench_workloads(monkeypatch):
    """bench/workloads.py, which generates the fallback benchmark's maps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestContractBeforeComposing:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_fallback_shape_is_decided_exactly_without_numeric_tension(self, monkeypatch, seed):
        workloads = _bench_workloads(monkeypatch)
        built = []
        init = NumericTension.__init__
        monkeypatch.setattr(NumericTension, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        families = set()
        for i in range(workloads.FALLBACK_WINDOWS * len(workloads.FALLBACK_WINDOW)):
            family, label, texts, cv_seed = workloads.fallback_map(seed, i)
            dom = build_space(label)
            spec = custom_map(dom.dim, [parse_expr(t, dom.dim) for t in texts])
            report = classify.cross_validate(dom, SOL, spec, seed=cv_seed)
            direct = report.direct
            expected = workloads._expected("fallback", family, "family")
            assert (direct.verdict, direct.mode) == (expected, "exact"), (family, texts)
            assert direct.components is not None and direct.energy_density is not None, (family, texts)
            if direct.verdict == "zero":
                assert all(not c for c in direct.components) and not direct.energy_density
            else:
                assert direct.witness is not None
            families.add(family)
        assert families == {"null", "vertical", "sol-null-defect"}
        assert built == []


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
            points = sample_points(dom.dim, 6, seed=trial)
            nt = NumericTension(dom, cod, comps, points)
            for k, pt in enumerate(points):
                values, scale = nt.at(k)
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
            nt = NumericTension(E2, SOL, comps, points)
            for k, pt in enumerate(points):
                values, scale = nt.at(k)
                expected = reference_at(nt, pt)
                assert (repr(values), repr(scale)) == tuple(map(repr, expected))
                nonfinite += not all(math.isfinite(v) for v in expected[0])
        assert nonfinite >= 3

    # One map of each slot shape of the fallback benchmark's window: maps into
    # Sol that leave the decidable class, on each of the four domains.
    FALLBACK_SHAPES = (
        ("semi-euclid:2:-+", ["-(x1+x2)", "-(x1+x2)/4", "exp(-(x1+x2)/4)"]),
        ("euclid:2", ["2", "1/4", "-cos(x2)"]),
        ("semi-euclid:3:-++", ["x1-3/5*x3-4/5*x2", "-(x1-3/5*x3-4/5*x2)/3", "exp(2*(x1-3/5*x3-4/5*x2))"]),
        ("euclid:3", ["-1/2", "1/3", "-2/3*sin(x3)"]),
        ("semi-euclid:2:-+", ["-(x1-x2)-2*(x1-x2)^2", "exp(3/2*(x1-x2))", "exp(-(x1-x2)+3*(x1-x2)^2)"]),
        ("semi-euclid:2:-+", ["1/2", "1", "-1/4*exp(-x2)"]),
        (
            "semi-euclid:3:-++",
            [
                "-1/3*(x1+3/5*x3-4/5*x2)+1/2*(x1+3/5*x3-4/5*x2)^2",
                "2/3*(x1+3/5*x3-4/5*x2)+1/3*(x1+3/5*x3-4/5*x2)^2",
                "exp(2/3*(x1+3/5*x3-4/5*x2))",
            ],
        ),
        ("semi-euclid:3:-++", ["-3", "2", "-1/3*cos(x1)"]),
        ("semi-euclid:2:-+", ["-3/4*(x1-x2)-3*(x1-x2)^2", "-2*(x1-x2)+3/4*(x1-x2)^2", "exp((x1-x2)/2)"]),
        ("euclid:2", ["1/4", "1", "3*sin(x1)"]),
        (
            "semi-euclid:3:-++",
            ["2/3*(x1+3/5*x2-4/5*x3)", "exp(x1+3/5*x2-4/5*x3)", "exp(-(x1+3/5*x2-4/5*x3)/4)"],
        ),
        ("euclid:3", ["3/4", "1/3", "-3*exp(-x2/2)"]),
        (
            "semi-euclid:3:-++",
            [
                "1/3*(x1+3/5*x2-4/5*x3)-2/3*(x1+3/5*x2-4/5*x3)^2",
                "exp(-3/2*(x1+3/5*x2-4/5*x3))",
                "exp(x1+3/5*x2-4/5*x3)",
            ],
        ),
        ("semi-euclid:2:-+", ["1/2", "3/4", "-1/3*cos(x1)"]),
        ("semi-euclid:3:-++", ["-1", "3/4", "1/2*sin(x3)"]),
        ("semi-euclid:3:-++", ["(x1+3/5*x2+4/5*x3)^2", "0", "exp(x1+3/5*x2+4/5*x3)"]),
    )

    def test_every_fallback_shape_matches_the_per_expression_assembly(self):
        for seed, (label, texts) in enumerate(self.FALLBACK_SHAPES):
            dom = build_space(label)
            comps = tuple(parse_expr(text, dom.dim) for text in texts)
            points = sample_points(dom.dim, 64, seed=seed)
            nt = NumericTension(dom, SOL, comps, points)
            for k, pt in enumerate(points):
                values, scale = nt.at(k)
                expected = reference_at(nt, pt)
                assert (repr(values), repr(scale)) == tuple(map(repr, expected)), (label, texts, pt)

    def test_an_underflowing_metric_entry_matches_the_per_expression_assembly(self):
        # e^{2z} = e^{800 x1} underflows to 0.0 for x1 below about -0.93 and
        # overflows above about 0.89, and e^{-2z} the other way round, so some
        # sample points see a dead metric pair.
        x1, x2 = Expr.coord(2, 0), Expr.coord(2, 1)
        points = sample_points(2, 64, seed=0)
        nt = NumericTension(E2, SOL, (x1, x2, 400 * x1), points)
        for k, pt in enumerate(points):
            values, scale = nt.at(k)
            assert (repr(values), repr(scale)) == tuple(map(repr, reference_at(nt, pt)))
        # The smaller of e^{2z} and e^{-2z} is e^{-800 |x1|}.
        assert any(math.exp(-800 * abs(pt[0])) == 0.0 for pt in points)

    @pytest.mark.parametrize("texts", [
        # A vertical map on each coordinate: one live Jacobian entry of nine.
        ["1/2", "-3", "2*cos(x1)"],
        ["-1/4", "2/3", "-1/3*sin(x2)"],
        ["3", "1/5", "3/2*exp(-1/2*x3)"],
        # The second row and the third column of the Jacobian are zero.
        ["x1*x2 - x2", "7/4", "exp(x1 - 2*x2)"],
    ])
    def test_a_sparse_jacobian_matches_the_per_expression_assembly(self, texts):
        comps = tuple(parse_expr(text, 3) for text in texts)
        for seed in (0, 1):
            points = sample_points(3, 64, seed=seed)
            nt = NumericTension(E3, SOL, comps, points)
            for k, pt in enumerate(points):
                values, scale = nt.at(k)
                assert (repr(values), repr(scale)) == tuple(map(repr, reference_at(nt, pt))), (texts, pt)

    def test_a_structurally_zero_jacobian_entry_meets_an_overflowing_metric(self):
        # J_00 and the second row are the zero Expr; e^{2z} = e^{800 x1}
        # overflows for x1 above about 0.89, where the zero entries times inf
        # give nan, so they must not be dropped.
        x1, x2 = Expr.coord(2, 0), Expr.coord(2, 1)
        points = [*sample_points(2, 64, seed=3), (Fraction(1), Fraction(1, 2))]
        nt = NumericTension(E2, SOL, (x2, Expr.const(2, Fraction(1, 2)), 400 * x1), points)
        overflow = [k for k, pt in enumerate(points) if 800 * pt[0] > 709]
        assert overflow
        nonfinite = 0
        for k, pt in enumerate(points):
            values, scale = nt.at(k)
            expected = reference_at(nt, pt)
            assert (repr(values), repr(scale)) == tuple(map(repr, expected))
            nonfinite += not all(map(math.isfinite, expected[0]))
        assert nonfinite >= len(overflow)

    def test_mixed_partials_are_taken_in_the_kernel_order(self):
        # d_2 d_1 and d_1 d_2 of this component are one Expr with its terms in
        # two orders, whose floats differ at 7 of these 64 points; NumericTension
        # must take dJ_ai/dx_k as d_k of J_ai, for k < i too.
        text = "x1^2*x2*exp(-2/3*x1^3)*sin(x2) + 2 - 3*x1^2*x2^2"
        comps = (Expr.coord(2, 0), Expr.coord(2, 1), parse_expr(text, 2))
        points = sample_points(2, 64, seed=0)
        nt = NumericTension(E2, SOL, comps, points)
        for k, pt in enumerate(points):
            values, scale = nt.at(k)
            assert (repr(values), repr(scale)) == tuple(map(repr, reference_at(nt, pt))), pt

    def test_a_point_with_a_huge_or_nonfinite_value_matches_the_per_expression_assembly(self):
        x1 = Expr.coord(2, 0)
        # At x1 = 1 the Hessian of exp(700 x1) overflows; at x1 = 1/2 every value
        # is finite but exp(350) is huge; at x1 = -1 every value is small.
        points = [(Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(1))]
        nt = NumericTension(E2, SOL, (x1, exp_of(700 * x1), cos_of(2, 0)), points)
        for k, pt in enumerate(points):
            values, scale = nt.at(k)
            assert (repr(values), repr(scale)) == tuple(map(repr, reference_at(nt, pt)))

    def test_the_report_assembles_each_sample_point_once(self, monkeypatch):
        seen = []
        at = NumericTension.at

        def counting_at(self, k):
            seen.append(k)
            return at(self, k)

        monkeypatch.setattr(NumericTension, "at", counting_at)
        spec = custom_map(1, [parse_expr("cos(x1)", 1), Expr.zero(1), parse_expr("sin(x1)", 1)])
        rep = infinity_tension(E1, SOL, spec)
        assert rep.mode == "exact" and seen == []
        assert rep.witness is not None
        assert seen == list(range(64))

    def test_the_sol_null_map_is_harmonic_under_the_summand_scale(self):
        # phi = (s^2, 0, e^s) with s = x1 + 3/5 x2 + 4/5 x3 null for -dx1^2 + dx2^2 + dx3^2:
        # its tension cancels inside the gradient of |dphi|^2, so the scale must
        # bound those summands, not only the final contraction terms.
        semi = build_space("semi-euclid:3:-++")
        s = "(x1 + 3/5*x2 + 4/5*x3)"
        harmonic = custom_map(3, [parse_expr(f"{s}^2", 3), Expr.zero(3), parse_expr(f"exp({s})", 3)])
        bent = custom_map(3, [parse_expr(f"{s}^2 + x1^2", 3), Expr.zero(3), parse_expr(f"exp({s})", 3)])
        for seed in range(4):
            assert independent_numeric_check(semi, SOL, harmonic, seed=seed)
            assert not independent_numeric_check(semi, SOL, bent, seed=seed)
        # Its contractions vanish exactly, so the symbolic route decides it without the fallback.
        rep = infinity_tension(semi, SOL, harmonic)
        assert (rep.mode, rep.verdict) == ("exact", "zero")
        assert infinity_tension(semi, SOL, bent).verdict == "nonzero"

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

    def test_independent_check_is_the_fallback_verdict(self):
        # Every sampled value of this map into Sol is non-finite, so the fallback
        # refuses it, and the independent check with it.
        spec = custom_map(2, [parse_expr(c, 2) for c in ("x1", "x2", "exp(800 + x1)")])
        for check in (lambda *args: infinity_tension(*args).witness, independent_numeric_check):
            with pytest.raises(UnsupportedExpressionError, match="every tension value is finite"):
                check(E2, SOL, spec)
        trig = custom_map(1, [parse_expr(c, 1) for c in ("x1", "0", "cos(x1)")])
        for spec in (quadratic_map([[[1]], [[0]], [[0]]]), trig):
            assert independent_numeric_check(E1, SOL, spec) == infinity_tension(E1, SOL, spec).is_harmonic

    def test_the_independent_check_needs_every_sample_point_finite(self):
        # e^{2z} overflows at 5 of the 64 points of seed 0, and the other 59 alone read as zero.
        semi = build_space("semi-euclid:2:-+")
        spec = custom_map(2, [parse_expr(c, 2) for c in ("x1 + x2", "0", "exp(6*(x1 + x2))")])
        with pytest.raises(UnsupportedExpressionError, match="^5 of the 64 sample points .* every tension value is finite"):
            independent_numeric_check(semi, SOL, spec)
        assert infinity_tension(semi, SOL, spec).verdict == "zero"


# Every catalog space whose metric lies in Q[x], so the prime point route takes it.
POLYNOMIAL_SPACES = (
    "euclid:1", "euclid:2", "euclid:3", "semi-euclid:2:-+", "semi-euclid:3:-++",
    "sphere:2", "sphere:3", "conformal:2:1+x1^2+x2^2", "nil",
)
DEFERRED = ("components", "tension_clearing", "energy_density", "energy_clearing", "witness")


def _eager(monkeypatch, domain, codomain, phi, **kwargs):
    """infinity_tension with the prime point route switched off: today's symbolic report."""
    with monkeypatch.context() as patch:
        patch.setattr(calculus, "_tension_mod_p", lambda *args: None)
        return infinity_tension(domain, codomain, phi, **kwargs)


def _terms(e):
    return None if e is None else (e, list(e.terms))


class TestPrimePointRoute:
    def test_each_expanded_component_is_the_residue_times_the_clearing(self):
        rng = Random(2261)
        for dlabel in POLYNOMIAL_SPACES:
            for clabel in POLYNOMIAL_SPACES:
                dom, cod = build_space(dlabel), build_space(clabel)
                comps = tuple(random_polynomial(rng, dom.dim, max_deg=2, terms=3) for _ in range(cod.dim))
                residues = _tension_mod_p(dom, cod, comps)
                assert residues is not None, (dlabel, clabel)
                components, clearing, _ = _tension_components(dom, cod, comps)
                point = _prime_point(dom.dim)[0]
                at_p = residue(clearing, point, PRIME)
                for comp, tau in zip(components, residues):
                    assert residue(comp, point, PRIME) == tau * at_p % PRIME, (dlabel, clabel, comps)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_the_two_routes_agree_on_every_suite(self, monkeypatch, seed):
        decided = []

        def both(domain, codomain, phi, seed=0):
            report = infinity_tension(domain, codomain, phi, seed=seed)
            eager = _eager(monkeypatch, domain, codomain, phi, seed=seed)
            residues = _tension_mod_p(domain, codomain, _components_of(phi))
            assert report.verdict == eager.verdict and report.mode == eager.mode
            if eager.verdict == "nonzero" and eager.mode == "exact":
                assert any(residues), (domain.label, codomain.label, phi)
            if any(residues or ()):
                assert not set(DEFERRED) & set(vars(report))
                decided.append(report)
                for name in DEFERRED[:4]:
                    value, expected = getattr(report, name), getattr(eager, name)
                    if name == "components":
                        assert [_terms(c) for c in value] == [_terms(c) for c in expected]
                    else:
                        assert _terms(value) == _terms(expected)
                assert repr(report.witness) == repr(eager.witness)
            return report

        monkeypatch.setattr(classify, "infinity_tension", both)
        for tid in classify.THEOREMS:
            assert classify.run_suite(tid, 10, seed).disagreements == 0, tid
        assert len(decided) > 50

    def test_a_nonzero_verdict_is_not_expanded_until_read(self, monkeypatch):
        expansions = []
        monkeypatch.setattr(
            calculus, "_tension_components", lambda *a: expansions.append(a) or _tension_components(*a)
        )
        rep = infinity_tension(E1, E1, quadratic_map([[[1]]]))
        assert (rep.verdict, rep.mode, rep.is_harmonic) == ("nonzero", "exact", False)
        assert expansions == []
        assert rep.witness.point == (1,)
        assert len(expansions) == 1
        assert rep.components[0] == 16 * Expr.coord(1, 0) ** 2 and len(expansions) == 1

    def test_a_witness_error_surfaces_at_the_first_read(self):
        # The tension of exp(800 + x1^2) overflows at every candidate, so no value is finite.
        comps = (parse_expr("exp(800 + x1^2)", 1),)
        report = classify.cross_validate(E1, E1, custom_map(1, list(comps)))
        assert report.direct.verdict == "nonzero"
        with pytest.raises(UnsupportedExpressionError, match="no witness point found"):
            report.direct.witness
        assert report.direct.components == _tension_components(E1, E1, comps)[0]

    def test_the_pulled_back_character_is_the_character_of_the_composed_key(self):
        # Sol's keys are +-2 y3; a linear key with a constant and fractions checks the general form.
        rng = Random(2031)
        keys = {key: exprcore._key_expr(3, key) for key in calculus._exp_keys(SOL)}
        extra = parse_expr("2/3*x1 - 5/2*x3 + 1/7", 3)
        keys[exprcore._key_of(extra)] = extra
        forms = {key: calculus._linear_form(key) for key in keys}
        for _ in range(20):
            comps = tuple(random_expr(rng, 2) for _ in range(3))
            composed = {key: substitute(k, comps) for key, k in keys.items()}
            scale = 42 * math.lcm(*(c._den for c in comps), *(e._den for e in composed.values()))
            chi = exprcore.Character(PRIME, scale)
            assert calculus._pulled_back(chi, forms, comps) == {key: chi.of(e) for key, e in composed.items()}

    def test_a_trig_map_into_sol_is_decided_with_the_witness_of_the_fallback(self):
        # g(dphi^1, dphi^1) is not zero, so h_11 = e^{2 sin x2} is composed and
        # leaves the class.  The witness is the one the numeric fallback's own
        # "nonzero" report gave this map.
        spec = custom_map(2, [parse_expr(c, 2) for c in ("cos(x1)", "x2", "sin(x2)")])
        rep = infinity_tension(E2, SOL, spec)
        assert (rep.verdict, rep.mode) == ("nonzero", "exact")
        assert rep.components is None and rep.energy_density is None
        assert repr(rep.witness) == (
            "Witness(point=(Fraction(-51, 64), Fraction(63, 64)), component=0, value=-3.782411778166818)"
        )
        # A tension too small for the fallback to sample has no witness; reading it does not change the verdict.
        texts = ("cos(x1)/10^12", "x2", "sin(x2)/10^12")
        tiny = infinity_tension(E2, SOL, custom_map(2, [parse_expr(c, 2) for c in texts]))
        with pytest.raises(UnsupportedExpressionError, match="every sampled value is within tolerance"):
            tiny.witness
        assert (tiny.verdict, tiny.mode) == ("nonzero", "exact")
        # A vertical map meets only h_33 = 1, so its components are exact.
        vertical = infinity_tension(E2, SOL, custom_map(2, [parse_expr(c, 2) for c in ("1", "2", "cos(x1)")]))
        assert [to_string(c) for c in vertical.components] == ["0", "0", "2*cos(x1)^3 - 2*cos(x1)"]

    def test_the_route_falls_through_outside_its_class(self, monkeypatch):
        square = parse_expr("x1^2", 1)
        (p1,), _ = _prime_point(1)
        vanishing = build_conformal(1, parse_expr(f"x1 - {p1}", 1))
        decided = [
            (E1, SOL, custom_map(1, [square, Expr.zero(1), Expr.zero(1)])),   # exp in the codomain metric
            (SOL, E1, custom_map(3, [parse_expr("x1^2", 3)])),                # exp in the domain metric
            (E1, E1, custom_map(1, [parse_expr("cos(x1)", 1)])),              # trig in the map
        ]
        for dom, cod, spec in decided:
            assert any(_tension_mod_p(dom, cod, _components_of(spec)))
            rep = infinity_tension(dom, cod, spec)
            assert rep.verdict == "nonzero" and "_expansion" not in vars(rep)
        cases = [
            (E1, E1, custom_map(1, [parse_expr(f"x1^2 + x1^2/{PRIME}", 1)])),  # PRIME divides a denominator
            (E1, vanishing, custom_map(1, [Expr.coord(1, 0)])),               # the scale vanishes at phi(p)
        ]
        for dom, cod, spec in cases:
            assert _tension_mod_p(dom, cod, _components_of(spec)) is None
            rep = infinity_tension(dom, cod, spec)
            assert rep.verdict == "nonzero"
            assert vars(rep)["_expansion"] == _tension_components(dom, cod, _components_of(spec))


class TestEveryVerdictIsExact:
    # Components drawn from fixed atoms, with trig and exp terms that leave the
    # class once composed with Sol's e^{+-2z}: the prime point route decides
    # every map whose expansion cannot, so none is refused.
    ATOMS = {
        "euclid:1": ("0", "1", "x1", "-x1", "cos(x1)", "sin(x1)", "exp(x1)", "x1^2", "exp(-x1)", "x1*cos(x1)"),
        "euclid:2": ("0", "x1", "x2", "cos(x2)", "sin(x1)", "exp(x1+x2)"),
    }

    def test_every_map_of_the_census_into_sol_is_decided(self):
        verdicts, out_of_class = [], 0
        for label, texts in self.ATOMS.items():
            dom = build_space(label)
            atoms = [parse_expr(t, dom.dim) for t in texts]
            for comps in itertools.product(atoms, repeat=3):
                report = infinity_tension(dom, SOL, custom_map(dom.dim, list(comps)))
                verdicts.append((report.verdict, report.mode))
                out_of_class += report.components is None
        assert len(verdicts) == 1216 and out_of_class == 585
        assert set(verdicts) == {("zero", "exact"), ("nonzero", "exact")}

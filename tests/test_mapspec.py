"""Map families: materialization, realification, JSON ingestion."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from infharm.exprcore import Expr, ExprParseError, is_zero, partial_derivative, to_string
from infharm.mapspec import (
    ComplexPolyMap,
    MapSpec,
    MapSpecError,
    affine_map,
    cpoly_to_string,
    custom_map,
    map_digest,
    materialize,
    parse_cpoly,
    parse_expr,
    holomorphic_map,
    pad_components,
    parse_mapspec,
    quadratic_map,
    realify,
    serialize_mapspec,
)

from conftest import rand_coeff, random_cpoly, reference_materialize, reference_parse_cpoly


class TestMaterialize:
    def test_affine_identity(self):
        spec = affine_map([[1, 0], [0, 1]])
        assert materialize(spec) == (Expr.coord(2, 0), Expr.coord(2, 1))

    def test_single_square(self):
        spec = quadratic_map([[[1]]])
        assert materialize(spec) == (Expr.coord(1, 0) ** 2,)

    def test_trig_components(self):
        spec = custom_map(
            3,
            [
                parse_expr("cos(x1)+cos(x2)+cos(x3)", 3),
                parse_expr("sin(x1)+sin(x2)+sin(x3)", 3),
            ],
        )
        comps = materialize(spec)
        assert len(comps) == 2 and comps[0].nvars == 3

    def test_quadratic_affine_gradient_formula(self):
        # Euclidean gradient of component a is 2 X^t A_a + a-th row of A
        rng = Random(11)
        for _ in range(100):
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
            comps = materialize(spec)
            xs = [Expr.coord(m, i) for i in range(m)]
            for alpha in range(n):
                for i in range(m):
                    expected = Expr.const(m, a[alpha][i])
                    for j in range(m):
                        expected = expected + 2 * quads[alpha][i][j] * xs[j]
                    assert is_zero(partial_derivative(comps[alpha], i) - expected)


    def test_affine_and_quadratic_components_equal_the_running_sum_in_term_order(self):
        rng = Random(12)
        for trial in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 3)

            def coeff():
                return rand_coeff(rng) if rng.random() < 0.7 else Fraction(0)

            a = [[coeff() for _ in range(m)] for _ in range(n)]
            b = [coeff() for _ in range(n)]
            if trial % 2:
                spec = affine_map(a, b)
            else:
                quads = []
                for _ in range(n):
                    q = [[Fraction(0)] * m for _ in range(m)]
                    for i in range(m):
                        for j in range(i, m):
                            q[i][j] = q[j][i] = coeff()
                    quads.append(q)
                spec = quadratic_map(quads, a, b)
            for got, expected in zip(materialize(spec), reference_materialize(spec), strict=True):
                assert got == expected
                assert list(got._nums.items()) == list(expected._nums.items()), spec


def cauchy_riemann_residuals(cmap: ComplexPolyMap) -> list[Expr]:
    """All CR residuals du/dx_j - dv/dy_j and du/dy_j + dv/dx_j; zero for holomorphic input."""
    us, vs = realify(cmap)
    m = cmap.m
    out = []
    for u, v in zip(us, vs):
        for j in range(m):
            out.append(partial_derivative(u, j) - partial_derivative(v, m + j))
            out.append(partial_derivative(u, m + j) + partial_derivative(v, j))
    return out


class TestPadComponents:
    def test_affine(self):
        spec = affine_map([[1, 2]], [3])
        padded = pad_components(spec, 3)
        zero = Fraction(0)
        assert padded == MapSpec(
            kind="affine",
            domain_dim=2,
            codomain_dim=3,
            A=((1, 2), (zero, zero), (zero, zero)),
            b=(3, zero, zero),
        )
        assert materialize(padded) == materialize(spec) + (Expr.zero(2), Expr.zero(2))

    def test_quadratic(self):
        spec = quadratic_map([[[1, 0], [0, -1]]], [[1, 2]], [3])
        padded = pad_components(spec, 2)
        zero = Fraction(0)
        assert padded == MapSpec(
            kind="quadratic",
            domain_dim=2,
            codomain_dim=2,
            A=((1, 2), (zero, zero)),
            b=(3, zero),
            quad=(((1, 0), (0, -1)), ((zero, zero), (zero, zero))),
        )
        assert materialize(padded) == materialize(spec) + (Expr.zero(2),)

    def test_custom(self):
        comp = parse_expr("x1*x2 + cos(x1)", 2)
        padded = pad_components(custom_map(2, [comp]), 3)
        assert padded == MapSpec(
            kind="custom",
            domain_dim=2,
            codomain_dim=3,
            components=(comp, Expr.zero(2), Expr.zero(2)),
        )

    def test_same_size_is_unchanged_and_shrinking_is_refused(self):
        spec = affine_map([[1, 2]], [3])
        assert pad_components(spec, 1) is spec
        with pytest.raises(MapSpecError, match="cannot shrink"):
            pad_components(affine_map([[1], [2]]), 1)

    def test_holomorphic_is_refused(self):
        spec = holomorphic_map(ComplexPolyMap(1, 1, (parse_cpoly("z1^2", 1),)))
        with pytest.raises(MapSpecError, match="cannot pad a holomorphic map"):
            pad_components(spec, 4)


class TestRealify:
    def test_identity(self):
        cmap = ComplexPolyMap(1, 1, (parse_cpoly("z1", 1),))
        us, vs = realify(cmap)
        assert us[0] == Expr.coord(2, 0)
        assert vs[0] == Expr.coord(2, 1)

    def test_square(self):
        cmap = ComplexPolyMap(1, 1, (parse_cpoly("z1^2", 1),))
        us, vs = realify(cmap)
        xv, yv = Expr.coord(2, 0), Expr.coord(2, 1)
        assert us[0] == xv * xv - yv * yv
        assert vs[0] == 2 * xv * yv

    def test_affine(self):
        cmap = ComplexPolyMap(1, 1, (parse_cpoly("2*z1 + 1", 1),))
        us, vs = realify(cmap)
        assert us[0] == 2 * Expr.coord(2, 0) + 1
        assert vs[0] == 2 * Expr.coord(2, 1)

    def test_cauchy_riemann_and_gradient_norms(self):
        rng = Random(21)
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
            assert all(is_zero(r) for r in cauchy_riemann_residuals(cmap))
            us, vs = realify(cmap)
            for u, v in zip(us, vs):
                nu = Expr.zero(2 * m)
                nv = Expr.zero(2 * m)
                for j in range(2 * m):
                    du = partial_derivative(u, j)
                    dv = partial_derivative(v, j)
                    nu = nu + du * du
                    nv = nv + dv * dv
                assert is_zero(nu - nv)


class TestParsing:
    def test_affine_identity_document(self):
        spec = parse_mapspec({"kind": "affine", "A": [[1, 0], [0, 1]], "b": [0, 0]})
        assert spec.kind == "affine"
        assert spec.A == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_fraction_strings(self):
        spec = parse_mapspec({"kind": "quadratic", "quad": [[["1/2", "0"], ["0", "1/2"]]]})
        assert spec.quad[0][0][0] == Fraction(1, 2)

    def test_decimal_strings_exact(self):
        spec = parse_mapspec({"kind": "affine", "A": [["0.25"]]})
        assert spec.A[0][0] == Fraction(1, 4)

    def test_asymmetric_quad_rejected(self):
        with pytest.raises(MapSpecError, match=r"quad\[0\]"):
            parse_mapspec({"kind": "quadratic", "quad": [[[0, 1], [0, 0]]]})

    def test_malformed_rational_has_field_path(self):
        with pytest.raises(MapSpecError, match=r"A\[0\]\[1\]"):
            parse_mapspec({"kind": "affine", "A": [[1, "x/y"]]})

    def test_float_coefficients_rejected(self):
        with pytest.raises(MapSpecError):
            parse_mapspec({"kind": "affine", "A": [[0.1]]})

    def test_dimension_mismatch(self):
        with pytest.raises(MapSpecError, match="b"):
            parse_mapspec({"kind": "affine", "A": [[1, 0]], "b": [1, 2]})

    def test_unknown_kind(self):
        with pytest.raises(MapSpecError, match="kind"):
            parse_mapspec({"kind": "spline"})

    def test_expression_component_error_path(self):
        with pytest.raises(MapSpecError, match=r"components\[0\]"):
            parse_mapspec({"kind": "custom", "m": 2, "components": ["x7"]})

    @pytest.mark.parametrize("text", ["1.2.3*x1", "x1 + 2..5", "(1.2.3)^2"])
    def test_malformed_number_has_field_path(self, text):
        with pytest.raises(MapSpecError, match=r"components\[0\]: malformed number"):
            parse_mapspec({"kind": "custom", "m": 1, "components": [text]})

    def test_malformed_complex_number_has_field_path(self):
        with pytest.raises(MapSpecError, match=r"complex\[0\]"):
            parse_mapspec({"kind": "holomorphic", "m": 1, "complex": ["1.2.3*z"]})

    @pytest.mark.parametrize("entry", [7, 1.5, None, ["x1"], {"x": 1}])
    def test_non_string_component_has_field_path(self, entry):
        with pytest.raises(MapSpecError, match=r"components\[1\]: expected an expression string"):
            parse_mapspec({"kind": "custom", "m": 1, "components": ["x1", entry]})

    @pytest.mark.parametrize("entry", [3, None, ["z"]])
    def test_non_string_complex_entry_has_field_path(self, entry):
        with pytest.raises(MapSpecError, match=r"complex\[0\]: expected a polynomial string"):
            parse_mapspec({"kind": "holomorphic", "m": 1, "complex": [entry]})

    def test_the_complex_ring_takes_the_budgets_of_the_expression_ring(self):
        with pytest.raises(ExprParseError, match=r"a power \^60 of 5 terms may expand to more than"):
            parse_cpoly("(z1+z2+z3+z4+1)^60", 4)
        with pytest.raises(ExprParseError, match="may have coefficients of more than"):
            parse_cpoly("(1+i)^20000", 1)
        assert parse_cpoly("(z1+i*z2)^2", 2) == parse_cpoly("z1^2 + 2*i*z1*z2 - z2^2", 2)

    def test_fuzzed_strings_give_a_spec_or_a_field_error(self):
        """Seeded strings of at most 9 tokens, each as a component and as a complex polynomial.

        Every string gives a MapSpec or a MapSpecError under its field path, and
        never another exception.  The cap of 9 tokens is there because the
        expansion budgets (ROADMAP item 7) bound the terms and the coefficient
        size of every power, in both rings, but not its time: a power within
        both budgets, such as ``(z1+z2)^1500``, can still take many seconds,
        and a longer string could ask for one.
        """
        alphabet = [
            "x1", "z1", "z", "w", "i", "exp", "cos", "(", ")", "+", "-", "*", "/", "^",
            "0", "1", "2", ".5", "3.", "1.2.3", "\u00b2", "\u0663", "\n", " ", "$", "_",
        ]
        rng = Random(12)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
            for doc, path in (
                ({"kind": "custom", "m": 2, "components": [text]}, "components[0]: "),
                ({"kind": "holomorphic", "m": 2, "complex": [text]}, "complex[0]: "),
            ):
                try:
                    assert isinstance(parse_mapspec(doc), MapSpec)
                except MapSpecError as exc:
                    assert str(exc).startswith(path), (text, str(exc))


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        rng = Random(31)
        specs = [
            affine_map([[1, 2], [3, 4]], [Fraction(1, 2), 0]),
            quadratic_map(
                [[[1, Fraction(1, 2)], [Fraction(1, 2), 0]]],
                [[rand_coeff(rng), rand_coeff(rng)]],
                [rand_coeff(rng)],
            ),
            custom_map(2, [parse_expr("exp(x1 + 2*x2) - cos(x1)", 2)]),
            ComplexPolyMap(2, 1, (parse_cpoly("(1-2*i)*z1*z2 + 3/4", 2),)),
        ]
        from infharm.mapspec import holomorphic_map

        specs[3] = holomorphic_map(specs[3])
        for spec in specs:
            doc = serialize_mapspec(spec)
            assert parse_mapspec(doc) == spec

    def test_cpoly_string_round_trip(self):
        rng = Random(41)
        for _ in range(50):
            m = rng.randint(1, 2)
            poly = {}
            for _ in range(rng.randint(1, 3)):
                mono = [0] * m
                for _ in range(rng.randint(0, 3)):
                    mono[rng.randrange(m)] += 1
                poly[tuple(mono)] = (rand_coeff(rng), rand_coeff(rng))
            poly = {k: v for k, v in poly.items() if v != (Fraction(0), Fraction(0))}
            poly = poly or {(0,) * m: (Fraction(1), Fraction(0))}
            assert parse_cpoly(cpoly_to_string(poly, m), m) == poly

    def test_cpoly_parse_matches_the_reference_parser(self):
        """Equal values in equal key order; ``realify`` sums the terms in that order."""
        rng = Random(41)
        corpus = []
        for _ in range(50):
            m = rng.randint(1, 2)
            corpus.append((cpoly_to_string(random_cpoly(rng, m), m), m))
        rng = Random(43)
        for _ in range(50):
            m = rng.randint(1, 2)
            p, q = (cpoly_to_string(random_cpoly(rng, m), m) for _ in range(2))
            corpus.append((f"({p})*({q}) - i*z1^2 + (2-i)^3", m))
        for text, m in corpus:
            assert list(parse_cpoly(text, m).items()) == list(reference_parse_cpoly(text, m).items())

    # Powers, products with i and cancellations over z1, z2, with the items of
    # ``parse_cpoly`` in their key order, as computed before ``_cpoly_add`` and
    # ``_cpoly_mul`` shared their accumulate step.
    PINNED_CPOLYS = {
        "(z1+i*z2)^3": [((3, 0), (1, 0)), ((2, 1), (0, 3)), ((1, 2), (-3, 0)), ((0, 3), (0, -1))],
        "(1+i)*z1^2*(z2-i) + 3": [((2, 1), (1, 1)), ((2, 0), (1, -1)), ((0, 0), (3, 0))],
        "(z1+z2)^2 - (z1-z2)^2": [((1, 1), (4, 0))],
        "z1*z2 + i*z2^2 - z1*z2 + 2": [((0, 2), (0, 1)), ((0, 0), (2, 0))],
        "(z1-i)^2*(z2+i)^2": [
            ((2, 2), (1, 0)), ((2, 1), (0, 2)), ((2, 0), (-1, 0)), ((1, 2), (0, -2)), ((1, 1), (4, 0)),
            ((1, 0), (0, 2)), ((0, 2), (-1, 0)), ((0, 1), (0, -2)), ((0, 0), (1, 0)),
        ],
        "(z1+i*z2)^2 - z1^2 + z2^2": [((1, 1), (0, 2))],
        "(2-3*i)*z1*z2^2/5 + (z1+1)^3": [
            ((1, 2), (Fraction(2, 5), Fraction(-3, 5))), ((3, 0), (1, 0)), ((2, 0), (3, 0)), ((1, 0), (3, 0)),
            ((0, 0), (1, 0)),
        ],
        "i*(z1+z2)^2*i + (z1+z2)^2": [],
        # A product whose later term pairs add to monomials met earlier.
        "(z2+i*z1)*(z1-i*z2+1)": [
            ((1, 1), (2, 0)), ((0, 2), (0, -1)), ((0, 1), (1, 0)), ((2, 0), (0, 1)), ((1, 0), (0, 1)),
        ],
        "(z2+z1)^2*(1-i) + 2*i*z1*z2": [((0, 2), (1, -1)), ((1, 1), (2, 0)), ((2, 0), (1, -1))],
    }

    def test_cpoly_key_order_and_realify_term_order_are_pinned(self):
        """``realify`` sums terms in the key order of ``parse_cpoly``, and every witness float follows that order."""
        for text, items in self.PINNED_CPOLYS.items():
            assert list(parse_cpoly(text, 2).items()) == items, text
        # sha256 of the (den, _nums items) of every realified component, in order.
        comps = [sum(realify(ComplexPolyMap(2, 1, (parse_cpoly(text, 2),))), ()) for text in self.PINNED_CPOLYS]
        blob = repr([[(c._den, list(c._nums.items())) for c in cs] for cs in comps]).encode()
        assert hashlib.sha256(blob).hexdigest() == "ef5e35658d937254c5194e43dc1249b15ef2691c5623a36792c1d25440c63ae7"

    def test_digest_stability(self):
        spec = affine_map([[1, 0], [0, 1]])
        assert map_digest(spec) == map_digest(parse_mapspec(serialize_mapspec(spec)))

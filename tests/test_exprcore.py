"""Expression arithmetic: worked examples and the ring/calculus invariants."""

import math
import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from infharm import exprcore
from infharm.exprcore import (
    Character,
    DimensionError,
    Expr,
    ExprParseError,
    FloatProgram,
    UnsupportedExpressionError,
    cos_of,
    evaluate,
    evaluate_exact,
    evaluate_float,
    exp_of,
    is_zero,
    jet_residues,
    max_term_magnitude,
    parse_expr,
    parse_rational,
    partial_derivative,
    residue,
    sin_of,
    substitute,
    to_string,
)

from conftest import (
    decode_key,
    encode_key,
    rand_coeff,
    random_expr,
    random_point,
    random_polynomial,
    reference_evaluate,
    reference_evaluate_float,
    reference_max_term_magnitude,
    reference_max_term_magnitude_float,
    reference_to_string,
)


def x(n, i):
    return Expr.coord(n, i)


class TestArithmeticExamples:
    def test_additive_inverse(self):
        a = x(2, 0)
        assert is_zero(a + (-a))

    def test_exp_merge_to_one(self):
        z = x(3, 2)
        assert exp_of(2 * z) * exp_of(-2 * z) == Expr.const(3, 1)

    def test_trig_difference_of_squares(self):
        # (sin + cos)(sin - cos) = sin^2 - cos^2 = 1 - 2 cos^2
        s, c = sin_of(1, 0), cos_of(1, 0)
        assert (s + c) * (s - c) == Expr.const(1, 1) - 2 * c * c

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(DimensionError):
            x(2, 0) + x(3, 0)


class TestDerivativeExamples:
    def test_power_rule(self):
        e = x(2, 0) ** 2 * x(2, 1)
        assert partial_derivative(e, 0) == 2 * x(2, 0) * x(2, 1)

    def test_exp_chain_rule(self):
        z = x(3, 2)
        assert partial_derivative(exp_of(2 * z), 2) == 2 * exp_of(2 * z)

    def test_sin_squared_derivative_matches_cos_form(self):
        # sin^2 canonicalizes to 1 - cos^2; both derivative routes agree
        s, c = sin_of(1, 0), cos_of(1, 0)
        via_sin = partial_derivative(s * s, 0)
        via_cos = partial_derivative(Expr.const(1, 1) - c * c, 0)
        assert via_sin == via_cos == 2 * s * c

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            partial_derivative(x(2, 0), 2)


class TestSubstitutionExamples:
    def test_binomial(self):
        e = x(1, 0) ** 2
        image = x(2, 0) + x(2, 1)
        assert substitute(e, [image]) == image * image

    def test_exp_with_quadratic_exponent(self):
        z = x(3, 2)
        q = x(2, 0) ** 2 + x(2, 0) * x(2, 1)
        got = substitute(exp_of(2 * z), [x(2, 0), x(2, 1), q])
        assert got == exp_of(2 * q)

    def test_conformal_factor_at_linear_map(self):
        # (1 + x1^2 + x2^2)/2 composed with AX equals (1 + |AX|^2)/2
        lam = parse_expr("(1 + x1^2 + x2^2)/2", 2)
        a1 = 2 * x(3, 0) + x(3, 2)
        a2 = x(3, 1) - 3 * x(3, 2)
        got = substitute(lam, [a1, a2])
        assert got == (Expr.const(3, 1) + a1 * a1 + a2 * a2) * Fraction(1, 2)

    def test_trig_of_non_coordinate_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            substitute(sin_of(1, 0), [x(1, 0) + 1])

    def test_exp_in_exp_rejected(self):
        z = x(1, 0)
        with pytest.raises(UnsupportedExpressionError):
            substitute(exp_of(z), [exp_of(z)])


class TestZeroTest:
    def test_pythagorean_identity(self):
        s, c = sin_of(1, 0), cos_of(1, 0)
        assert is_zero(s * s + c * c - 1)

    def test_exp_product_merge(self):
        z = x(3, 2)
        assert is_zero(exp_of(2 * z) - exp_of(z) * exp_of(z))

    def test_distinct_exponentials_independent(self):
        z = x(3, 2)
        e = x(3, 0) * exp_of(2 * z) - x(3, 0) * exp_of(-2 * z)
        assert not is_zero(e)
        assert abs(evaluate(e, [1, 0, 1])) > 1


class TestEvaluation:
    def test_float_path(self):
        e = x(2, 0) ** 2 + x(2, 1) ** 2
        assert evaluate(e, [Fraction(3, 2), Fraction(1, 2)]) == pytest.approx(2.5)

    def test_exact_path(self):
        e = x(2, 0) ** 2 + x(2, 1) ** 2
        assert evaluate_exact(e, [Fraction(3, 2), Fraction(1, 2)]) == Fraction(5, 2)

    def test_exp_at_zero(self):
        z = x(3, 2)
        e = exp_of(2 * z) + exp_of(-2 * z)
        assert evaluate(e, [0, 0, 0]) == pytest.approx(2.0)

    def test_float_values_match_a_fraction_reference_bit_for_bit(self):
        # Reference: every coordinate and the exponent pass through Fraction,
        # then float(), monomial by monomial in term order.
        def reference(e, point):
            total = 0.0
            for (coords, expk, trig), c in e.terms.items():
                v = float(c)
                for i, p in coords:
                    v *= float(Fraction(point[i])) ** p
                if expk:
                    arg = sum(kc * math.prod(Fraction(point[i]) ** p for i, p in kcoords) for kcoords, kc in decode_key(expk))
                    try:
                        v *= math.exp(float(arg))
                    except OverflowError:
                        v = math.inf if v > 0 else -math.inf
                for i, cp, sp in trig:
                    if cp:
                        v *= math.cos(float(Fraction(point[i]))) ** cp
                    if sp:
                        v *= math.sin(float(Fraction(point[i]))) ** sp
                total += v
            return total

        rng = Random(909)
        for _ in range(300):
            n = rng.randint(1, 3)
            e = random_expr(rng, n, terms=5)
            if rng.random() < 0.2:
                e = e * exp_of(rng.randint(300, 900) * x(n, 0))
            point = [Fraction(rng.randint(-64, 64), rng.choice([1, 3, 64, 1000])) for _ in range(n)]
            assert evaluate(e, point).hex() == reference(e, point).hex()

    def test_exact_path_rejects_transcendentals(self):
        with pytest.raises(UnsupportedExpressionError):
            evaluate_exact(cos_of(1, 0), [Fraction(0)])


class TestInvariants:
    def test_ring_laws(self):
        rng = Random(101)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = random_expr(rng, n)
            b = random_expr(rng, n)
            c = random_expr(rng, n)
            assert is_zero(a * (b + c) - (a * b + a * c))
            assert is_zero((a * b) * c - a * (b * c))

    def test_leibniz_rule(self):
        rng = Random(202)
        for _ in range(200):
            n = rng.randint(1, 3)
            i = rng.randrange(n)
            a = random_expr(rng, n)
            b = random_expr(rng, n)
            lhs = partial_derivative(a * b, i)
            rhs = partial_derivative(a, i) * b + a * partial_derivative(b, i)
            assert is_zero(lhs - rhs)

    def test_clairaut(self):
        rng = Random(303)
        for _ in range(100):
            n = rng.randint(2, 3)
            e = random_expr(rng, n)
            i, j = rng.randrange(n), rng.randrange(n)
            a = partial_derivative(partial_derivative(e, i), j)
            b = partial_derivative(partial_derivative(e, j), i)
            assert is_zero(a - b)

    def test_evaluation_homomorphism(self):
        rng = Random(404)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = random_expr(rng, n)
            b = random_expr(rng, n)
            pt = random_point(rng, n)
            lhs = evaluate(a * b, pt)
            rhs = evaluate(a, pt) * evaluate(b, pt)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_canonical_idempotence(self):
        rng = Random(505)
        for _ in range(100):
            n = rng.randint(1, 3)
            e = random_expr(rng, n)
            rebuilt = Expr.zero(n)
            for mono, coeff in e.terms.items():
                rebuilt = rebuilt + Expr(n, {mono: coeff})
            assert rebuilt == e


class TestResidues:
    Q = 2**61 - 1

    def test_residue_is_the_exact_value_mod_the_prime(self):
        rng = Random(877)
        for _ in range(40):
            m = rng.randint(1, 4)
            e = random_polynomial(rng, m, max_deg=4, terms=5)
            point = [rng.randint(-9, 9) for _ in range(m)]
            value = evaluate_exact(e, point)
            expected = value.numerator * pow(value.denominator, -1, self.Q) % self.Q
            assert residue(e, [x % self.Q for x in point], self.Q) == expected

    def test_jet_is_the_residues_of_the_derivatives(self):
        rng = Random(878)
        for _ in range(40):
            m = rng.randint(1, 4)
            e = random_polynomial(rng, m, max_deg=5, terms=5)
            point = [rng.randrange(1, self.Q) for _ in range(m)]
            inverses = [pow(x, -1, self.Q) for x in point]
            value, grad, hess = jet_residues(e, point, inverses, self.Q)
            assert value == residue(e, point, self.Q)
            for i in range(m):
                di = partial_derivative(e, i)
                assert grad[i] == residue(di, point, self.Q)
                assert hess[i] == [residue(partial_derivative(di, j), point, self.Q) for j in range(m)]

    def test_outside_the_ring_there_is_no_residue(self):
        q = self.Q
        for text in ("exp(x1) + 1", "cos(x1)*x1", f"x1/{q}", f"1/{3 * q}"):
            e = parse_expr(text, 1)
            assert residue(e, [2], q) is None and jet_residues(e, [2], [pow(2, -1, q)], q) is None
        assert residue(parse_expr(f"x1 + x1/{q}", 1), [2], q) is None
        assert residue(parse_expr(f"{q}*x1/7", 1), [2], q) == 0

    # psi: x_i -> p_i, (cos x_i, sin x_i) -> a point of the circle, exp(g) -> chi(g).

    def images(self, rng, m):
        point = [rng.randrange(2, self.Q) for _ in range(m)]
        circle = []
        for _ in range(m):
            t = rng.randrange(2, self.Q - 1)
            inv = pow(1 + t * t, -1, self.Q)
            circle.append(((1 - t * t) * inv % self.Q, 2 * t * inv % self.Q))
        return point, [pow(v, -1, self.Q) for v in point], circle

    @staticmethod
    def scale(*exprs):
        """The lcm of the exponent denominators of the expressions."""
        return math.lcm(*(key[0] for e in exprs for _, key, _ in e.terms if key))

    def test_psi_is_a_ring_homomorphism_on_exp_and_trig_terms(self):
        rng = Random(2027)
        for _ in range(60):
            m = rng.randint(1, 3)
            e, f = rational_exponent_expr(rng, m), rational_exponent_expr(rng, m)
            point, _, circle = self.images(rng, m)
            chi = Character(self.Q, self.scale(e, f, e * f))

            def psi(g):
                return residue(g, point, self.Q, circle, chi)

            assert psi(e * f) == psi(e) * psi(f) % self.Q, (e, f)
            assert psi(e + f) == (psi(e) + psi(f)) % self.Q, (e, f)
            assert psi(e * e - f * f) == psi(e + f) * psi(e - f) % self.Q, (e, f)

    def test_the_jet_is_psi_of_the_partial_derivatives(self):
        rng = Random(2028)
        for _ in range(40):
            m = rng.randint(1, 3)
            e = rational_exponent_expr(rng, m)
            point, inverses, circle = self.images(rng, m)
            chi = Character(self.Q, self.scale(e))
            value, grad, hess = jet_residues(e, point, inverses, self.Q, circle, chi)
            assert value == residue(e, point, self.Q, circle, chi)
            for i in range(m):
                di = partial_derivative(e, i)
                assert grad[i] == residue(di, point, self.Q, circle, chi), (e, i)
                for j in range(m):
                    assert hess[i][j] == residue(partial_derivative(di, j), point, self.Q, circle, chi), (e, i, j)

    def test_the_character_is_additive_on_tower_exponents(self):
        # Exponents with exp and trig terms of their own: each such term is one more generator.
        rng = Random(2029)
        for _ in range(60):
            m = rng.randint(1, 3)
            g, h = rational_exponent_expr(rng, m), rational_exponent_expr(rng, m)
            chi = Character(self.Q, 3 * math.lcm(g._den, h._den))
            assert chi.of(g + h) == chi.of(g) * chi.of(h) % self.Q, (g, h)
            assert chi.of(g, 3) * chi.of(g, 3) * chi.of(g, 3) % self.Q == chi.of(g), g

    def test_psi_composes_through_exponent_keys(self):
        # psi(e o phi) for e over y with exp terms and phi with exp and trig terms:
        # exp(k) goes to chi(k o phi), a tower when phi has exp terms.
        rng = Random(2030)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            phi = [rational_exponent_expr(rng, m) for _ in range(n)]
            e, f = random_expr(rng, n, allow_trig=False), random_expr(rng, n, allow_trig=False)
            point, _, circle = self.images(rng, m)
            keys = {key for g in (e, f, e * f) for _, key, _ in g.terms if key}
            pulled = {key: substitute(exprcore._key_expr(n, key), phi) for key in keys}
            chi = Character(self.Q, self.scale(*phi) * math.lcm(1, *(p._den for p in pulled.values())))
            y = [residue(c, point, self.Q, circle, chi) for c in phi]

            def psi(g):
                return residue(g, y, self.Q, None, lambda key: chi.of(pulled[key]))

            assert psi(e * f) == psi(e) * psi(f) % self.Q, (e, f, phi)
            assert psi(e + f) == (psi(e) + psi(f)) % self.Q, (e, f, phi)

    def test_the_units_do_not_depend_on_the_hash_seed(self):
        chi = Character(self.Q, 1)
        mono = (((0, 1),), (), ())
        assert chi.unit(mono) == 129567416475382316
        assert chi.of(x(1, 0)) == chi.unit(mono) and chi.of(-2 * x(1, 0)) == pow(chi.unit(mono), -2, self.Q)


def power_bound(base, k):
    """The term bound of base^k that ``_check_power`` applies, uncapped."""
    return exprcore._term_bound(len(base._nums), k, 10**9, exprcore._power_shape(base))


class TestPowerBudget:
    def test_a_power_over_the_budget_is_refused_before_it_expands(self):
        with pytest.raises(ExprParseError, match=r"a power \^100 of 4 terms may expand to more than"):
            parse_expr("(x1+x2+x3+1)^100", 3)
        with pytest.raises(ExprParseError, match=r"a power \^n of 2 terms"):
            parse_expr("(x1+x2)^" + "9" * 40, 2)

    def test_a_power_with_long_coefficients_is_refused_before_it_expands(self):
        limit = sys.get_int_max_str_digits()
        for text, n in (("(x1+x2)^15000", 2), ("2^20000000", 1), ("(x1/3)^9000", 1)):
            with pytest.raises(ExprParseError, match=f"may have coefficients of more than {limit} digits"):
                parse_expr(text, n)
        # Two bits a factor for x1 (numerator 1, denominator 1): k = 7,000 is about 4,214 digits.
        assert parse_expr("x1^7000", 1) == Expr.coord(1, 0) ** 7000
        with pytest.raises(ExprParseError, match="coefficients"):
            parse_expr("x1^7200", 1)

    def test_the_bound_is_the_smaller_count(self):
        def bound(text, n, k):
            return power_bound(parse_expr(text, n), k)

        base = "x1+x2+x3+1"
        assert bound(base, 3, 44) == math.comb(47, 3) == 16215
        assert bound(base, 3, 44) <= exprcore.MAX_POWER_TERMS < bound(base, 3, 45)
        for k in range(0, 8):
            for text, n in (("x1+x2/2+x3/3", 3), ("x1^2 - x2 + 3", 2), ("x1*x2 + x1", 2), ("cos(x1) + exp(x2)", 2)):
                e = parse_expr(text, n)
                if e.is_polynomial():
                    assert len((e ** k).terms) <= bound(text, n, k), (text, k)
        assert bound("(x1+x2)^2", 2, 10**6) == 10**9 + 1

    def test_the_ladder_bases_and_a_large_constant_stay_accepted(self):
        for d in range(1, 13):
            assert power_bound(parse_expr("x1+x2/2+x3/3", 3), d) <= 91
            assert len(parse_expr(f"(x1+x2/2+x3/3)^{d}", 3).terms) == math.comb(d + 2, 2)
        assert power_bound(parse_expr("10", 1), 300) == 1
        assert parse_expr("10^300*x1^2", 1) == Expr.const(1, 10**300) * Expr.coord(1, 0) ** 2


class TestRendering:
    def test_round_trip_on_random_expressions(self):
        rng = Random(606)
        for _ in range(50):
            n = rng.randint(1, 3)
            e = random_expr(rng, n)
            assert parse_expr(to_string(e), n) == e

    def test_round_trip_on_polynomials(self):
        rng = Random(707)
        for _ in range(50):
            n = rng.randint(1, 3)
            e = random_polynomial(rng, n)
            assert parse_expr(to_string(e), n) == e

    def test_aliases(self):
        assert parse_expr("x + y + z", 3) == x(3, 0) + x(3, 1) + x(3, 2)

    def test_division_by_constant_only(self):
        from infharm.exprcore import ExprParseError

        with pytest.raises(ExprParseError):
            parse_expr("1/x1", 1)

    def test_out_of_range_coordinate_message(self):
        from infharm.exprcore import ExprParseError

        with pytest.raises(ExprParseError, match="out of range"):
            parse_expr("x5", 2)


class TestDigitLimit:
    """``int``'s limit on digits in a string, sys.get_int_max_str_digits(), bounds input and output."""

    @pytest.mark.parametrize(
        "text", ["1e5000", "1e-5000", "1e10000000", "2.5E+4300", pytest.param("1" * 4301, id="4301-digits")]
    )
    def test_a_rational_past_the_limit_is_refused_before_expansion(self, text):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e4299", "1e-4299", pytest.param("1" * 4300, id="4300-digits"), "1.5e10"])
    def test_a_rational_within_the_limit_is_read(self, text):
        value = parse_rational(text)
        assert value == Fraction(text)
        assert str(value)

    def test_a_coefficient_past_the_limit_is_not_rendered(self):
        with pytest.raises(UnsupportedExpressionError, match="more than 4300 digits"):
            to_string(Expr.const(1, 10**4400) * x(1, 0))
        assert to_string(Expr.const(1, 10**4299)) == "1" + "0" * 4299


class TestNumericGuards:
    def test_exp_overflow_is_contained(self):
        z = Expr.coord(1, 0)
        big = exp_of(1000 * z)
        value = evaluate(big, [Fraction(1)])
        assert value == float("inf")

    def test_max_term_magnitude_of_zero(self):
        from infharm.exprcore import max_term_magnitude

        assert max_term_magnitude(Expr.zero(2), [0, 0]) == 0.0


class TestFloatProgram:
    """The compiled evaluator against per-expression evaluation, bit for bit."""

    @staticmethod
    def batches():
        """Seeded batches of every kind of expression, with rational points."""
        rng = Random(8128)
        for _ in range(64):
            n = rng.randint(1, 3)
            exprs = [
                random_polynomial(rng, n),
                exp_of(random_polynomial(rng, n, max_deg=2, terms=3)) * rand_coeff(rng),
                random_expr(rng, n, terms=4, allow_exp=False),
                random_expr(rng, n, terms=5),
                Expr.zero(n),
                random_expr(rng, n, terms=3) * exp_of(rng.randint(300, 900) * x(n, 0)),
            ]
            points = [
                [Fraction(rng.randint(-64, 64), rng.choice([1, 3, 64, 1000])) for _ in range(n)]
                for _ in range(3)
            ]
            yield n, exprs, points

    def test_compiled_values_match_per_expression_evaluation(self):
        checked = nonfinite = 0
        for n, exprs, points in self.batches():
            program = FloatProgram(n, exprs)
            for pt in points:
                values, magnitudes = program.at(pt)
                fpt = [float(v) for v in pt]
                float_values, _ = program.at_float(fpt)
                for e, val, mag, fval in zip(exprs, values, magnitudes, float_values):
                    assert val.hex() == reference_evaluate(e, pt).hex()
                    assert mag.hex() == reference_max_term_magnitude(e, pt).hex()
                    assert fval.hex() == reference_evaluate_float(e, fpt).hex()
                    assert evaluate(e, pt).hex() == val.hex()
                    assert max_term_magnitude(e, pt).hex() == mag.hex()
                    assert evaluate_float(e, fpt).hex() == fval.hex()
                    checked += 1
                    nonfinite += not math.isfinite(val)
        assert checked == 64 * 6 * 3
        assert nonfinite > 20

    def test_a_batch_equals_its_points_one_by_one(self):
        rng = Random(496)
        mixed = 0
        for n, exprs, _ in self.batches():
            points = [
                [Fraction(rng.randint(-64, 64), rng.choice([1, 3, 64, 1000])) for _ in range(n)]
                for _ in range(12)
            ]
            fpoints = [[float(v) for v in pt] for pt in points]
            program = FloatProgram(n, exprs)
            values, magnitudes = program.at_points(points)
            float_values, float_magnitudes = program.at_float_points(fpoints)
            bare, none = program.at_points(points, magnitudes=False)
            bare_float, float_none = program.at_float_points(fpoints, magnitudes=False)
            assert none is None and float_none is None
            for e, val, mag, fval, fmag, bval, bfval in zip(
                exprs, values, magnitudes, float_values, float_magnitudes, bare, bare_float
            ):
                assert [v.hex() for v in val] == [reference_evaluate(e, pt).hex() for pt in points]
                assert [v.hex() for v in mag] == [reference_max_term_magnitude(e, pt).hex() for pt in points]
                assert [v.hex() for v in fval] == [reference_evaluate_float(e, pt).hex() for pt in fpoints]
                assert [v.hex() for v in fmag] == [
                    reference_max_term_magnitude_float(e, pt).hex() for pt in fpoints
                ]
                assert [v.hex() for v in bval] == [v.hex() for v in val]
                assert [v.hex() for v in bfval] == [v.hex() for v in fval]
            # exprs[5] carries exp(k x1) with k >= 300, which overflows at some
            # points of a batch and not at others.
            finite = [math.isfinite(v) for v in values[5]]
            mixed += any(finite) and not all(finite)
        assert mixed >= 5

    def test_an_empty_batch_and_zero_expressions(self):
        program = FloatProgram(2, [x(2, 0), Expr.zero(2), exp_of(800 * x(2, 1)), Expr.zero(2)])
        assert program.at_points([]) == ([[], [], [], []], [[], [], [], []])
        assert program.at_float_points([], magnitudes=False) == ([[], [], [], []], None)
        values, magnitudes = program.at_points([[1, 0], [0, 1], [-1, 1]])
        assert values[1] == values[3] == magnitudes[1] == magnitudes[3] == [0.0, 0.0, 0.0]
        assert values[1] is not values[3]
        assert values[2] == [1.0, math.inf, math.inf]
        with pytest.raises(DimensionError):
            program.at_points([[1, 0], [1]])

    def test_overflowing_exponential_takes_the_sign_of_the_product(self):
        big = exp_of(800 * x(2, 0))
        exprs = [big, -3 * big, x(2, 1) * big, big * cos_of(2, 1), Expr.const(2, 5) + big]
        program = FloatProgram(2, exprs)
        for pt in ([Fraction(1), Fraction(0)], [Fraction(1), Fraction(-1, 2)]):
            values, magnitudes = program.at(pt)
            float_values, _ = program.at_float([float(v) for v in pt])
            for e, val, mag, fval in zip(exprs, values, magnitudes, float_values):
                assert val.hex() == reference_evaluate(e, pt).hex()
                assert mag.hex() == reference_max_term_magnitude(e, pt).hex()
                assert fval.hex() == reference_evaluate_float(e, [float(v) for v in pt]).hex()
        # x2 * exp(800 x1) at x2 = 0: the partial product is 0.0, and so is the term.
        assert program.at([1, 0])[0][:3] == [math.inf, -math.inf, 0.0]
        assert program.at([1, Fraction(-1, 2)])[0][2] == -math.inf

    def test_dimensions_are_checked(self):
        with pytest.raises(DimensionError):
            FloatProgram(2, [x(3, 0)])
        program = FloatProgram(2, [x(2, 0)])
        with pytest.raises(DimensionError):
            program.at([1])
        with pytest.raises(DimensionError):
            program.at_float([1.0, 2.0, 3.0])


def reference_product(a, b, seen=None):
    """The per-pair Fraction product, kept as an oracle for the integer kernel.

    Every pair of terms is multiplied in term order and accumulated at once,
    with sin^2 rewritten to 1 - cos^2.  A running sum that reaches zero is
    removed and re-inserted at the end if it comes back.  `seen` counts the
    sin^2 rewrites, the cancellations and the reappearances.
    """
    seen = Counter() if seen is None else seen
    acc = {}
    cancelled = set()
    for (ca, ea, ta), c1 in a.terms.items():
        for (cb, eb, tb), c2 in b.terms.items():
            coords = dict(ca)
            for i, p in cb:
                coords[i] = coords.get(i, 0) + p
            expk = dict(decode_key(ea))
            for key, c in decode_key(eb):
                s = expk.get(key, 0) + c
                if s:
                    expk[key] = s
                else:
                    del expk[key]
            trig = {i: (cp, sp) for i, cp, sp in ta}
            for i, cp, sp in tb:
                c0, s0 = trig.get(i, (0, 0))
                trig[i] = (c0 + cp, s0 + sp)
            co, ek = tuple(sorted(coords.items())), encode_key(expk.items())
            work = [(tuple(sorted((i, cp, sp) for i, (cp, sp) in trig.items())), c1 * c2)]
            while work:
                tr, c = work.pop()
                hot = next((t for t in tr if t[2] >= 2), None)
                if hot is not None:
                    seen["sin2"] += 1
                    i, cp, sp = hot
                    rest = tuple(t for t in tr if t[0] != i)
                    work.append((tuple(sorted(rest + ((i, cp, sp - 2),))), c))
                    work.append((tuple(sorted(rest + ((i, cp + 2, sp - 2),))), -c))
                    continue
                mono = (co, ek, tuple(t for t in tr if t[1] or t[2]))
                if mono not in acc and mono in cancelled:
                    seen["reappeared"] += 1
                s = acc.get(mono, 0) + c
                if s == 0:
                    del acc[mono]
                    cancelled.add(mono)
                    seen["cancelled"] += 1
                else:
                    acc[mono] = s
    return acc


def kernel_operand(rng, n):
    """A random sum of polynomial, exp(poly), cos and sin terms with cancelling coefficients."""
    total = Expr.zero(n)
    for _ in range(rng.randint(1, 5)):
        t = Expr.const(n, rng.choice([1, -1, 2, -2, Fraction(1, 2), rand_coeff(rng)]) or 1)
        for _ in range(rng.randint(0, 3)):
            t = t * x(n, rng.randrange(n))
        if rng.random() < 0.3:
            t = t * exp_of(rng.choice([1, -1, 2]) * x(n, rng.randrange(n)))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(n)
            t = t * (sin_of(n, i) if rng.random() < 0.6 else cos_of(n, i))
        total = total + t
    return total


def sign_flipped(rng, e):
    return Expr(e.nvars, {m: c if rng.random() < 0.5 else -c for m, c in e.terms.items()})


class TestProductKernel:
    def test_matches_per_pair_reference_in_contents_and_order(self):
        rng = Random(808)
        seen = Counter()
        for _ in range(400):
            n = rng.randint(1, 3)
            a, b = kernel_operand(rng, n), kernel_operand(rng, n)
            r = rng.random()
            if r < 0.25:
                b = b + a
            elif r < 0.5:
                b = sign_flipped(rng, a) + b
            elif r < 0.75:
                # A shared factor makes one monomial arise from many pairs.
                c = kernel_operand(rng, n)
                a, b = a * c, sign_flipped(rng, b * c)
            assert list((a * b).terms.items()) == list(reference_product(a, b, seen).items())
        # The data must exercise the order-sensitive paths.
        assert seen["sin2"] > 1000
        assert seen["cancelled"] > 1000
        assert seen["reappeared"] > 50

    def test_reappearing_term_moves_to_the_end(self):
        x1, x2 = x(2, 0), x(2, 1)
        a = x1 + x2 + x1 * x2
        b = x2 - x1 + 1
        got = list((a * b).terms.items())
        assert got == list(reference_product(a, b).items())
        assert got[-1] == ((((0, 1), (1, 1)), (), ()), 1)

    def test_field_width_follows_the_operands(self):
        big = x(1, 0) ** 70000
        assert (big * big).terms == {(((0, 140000),), (), ()): 1}
        x1, x2 = x(2, 0), x(2, 1)
        got = (x1 ** 65535 + x2) * (x1 + x2 ** 65535)
        assert got.terms == {
            (((0, 65536),), (), ()): 1,
            (((0, 65535), (1, 65535)), (), ()): 1,
            (((0, 1), (1, 1)), (), ()): 1,
            (((1, 65536),), (), ()): 1,
        }

    def test_cancelled_cross_terms_are_not_stored(self):
        x1, x2 = x(2, 0), x(2, 1)
        got = (x1 - x2) * (x1 + x2)
        assert got == x1 ** 2 - x2 ** 2
        assert len(got.terms) == 2 and all(c != 0 for c in got.terms.values())

    def test_coefficients_stay_reduced_fractions(self):
        a = Fraction(2, 3) * x(1, 0) + Fraction(5, 6)
        b = Fraction(3, 4) * x(1, 0) - Fraction(3, 5)
        got = a * b
        assert got.terms == reference_product(a, b)
        assert all(type(c) is Fraction for c in got.terms.values())


def assert_normalised(e):
    """The storage invariant: den > 0, no zero numerator, gcd(den, *nums) == 1.

    Every exponent key ``(den, ((coords, num), ...))`` keeps it too, with its
    terms sorted by coords.  Returns the keys checked.
    """
    den, nums = e._den, e._nums
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert list(e.terms.items()) == [(m, Fraction(n, den)) for m, n in nums.items()]
    keys = {expk for _, expk, _ in nums if expk}
    for kden, knums in keys:
        assert type(kden) is int and kden > 0
        assert knums and all(type(n) is int and n != 0 for _, n in knums)
        assert math.gcd(kden, *(n for _, n in knums)) == 1
        coords = [c for c, _ in knums]
        assert coords == sorted(set(coords))
    return keys


def rational_operand(rng, n):
    """A kernel operand, or a constant, with rational coefficients and exponent keys."""
    r = rng.random()
    if r < 0.15:
        return Expr.const(n, rand_coeff(rng, 9, 12) or 1)
    e = kernel_operand(rng, n) * rand_coeff(rng, 5, 6)
    if r < 0.35:
        e = e + exp_of(rand_coeff(rng, 3, 5) * x(n, rng.randrange(n)) + Fraction(1, 3)) * rand_coeff(rng)
    return e


class TestIntegerStorage:
    def test_every_operation_keeps_the_storage_normalised(self):
        rng = Random(909)
        keys = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            a, b = rational_operand(rng, n), rational_operand(rng, n)
            c = rand_coeff(rng, 7, 9)
            e = exp_of(c * x(n, 0) ** 2 + Fraction(1, 3) * x(n, n - 1))
            results = [
                a, b, a + b, a - b, b - a, a + a, a - a, -a, a + c, c - a, a * b, b * a,
                a * c, c * b, a * Expr.const(n, Fraction(1, 3)), a ** 2, b ** 0,
                partial_derivative(a, rng.randrange(n)), partial_derivative(b, 0),
                substitute(a, [x(n, (i + 1) % n) for i in range(n)]),
                Expr(n, dict(a.terms)),
            ]
            if not any(trig for _, _, trig in a.terms):
                results.append(substitute(a, [x(n, i) * Fraction(2, 3) + 1 for i in range(n)]))
            if a.is_polynomial():
                results.append(exp_of(a))
            results += [
                e, a * e, partial_derivative(a * e, n - 1),
                substitute(e, [x(n, i) * Fraction(2, 3) + 1 for i in range(n)]),
            ]
            for r in results:
                keys |= assert_normalised(r)
        assert sum(1 for kden, knums in keys if kden > 1 and len(knums) > 1) > 200
        zero = x(2, 0) * Fraction(1, 2) - x(2, 0) * Fraction(1, 2)
        assert (zero._den, zero._nums) == (1, {})
        assert zero == Expr.zero(2) == Expr(2, {MONO: Fraction(0)})

    def test_products_match_the_per_pair_reference_with_rational_and_constant_operands(self):
        rng = Random(910)
        constants = 0
        for _ in range(400):
            n = rng.randint(1, 3)
            a, b = rational_operand(rng, n), rational_operand(rng, n)
            constants += a.constant_value() is not None or b.constant_value() is not None
            assert list((a * b).terms.items()) == list(reference_product(a, b).items())
        assert constants > 80

    def test_a_constant_factor_keeps_the_other_operands_order(self):
        x1, x2 = x(2, 0), x(2, 1)
        e = x2 * sin_of(2, 0) + Fraction(3, 4) * x1 ** 2 - exp_of(x2) + Fraction(5, 6) * cos_of(2, 1)
        for c in (Expr.const(2, Fraction(-4, 15)), Expr.const(2, 6), Expr.const(2, 1)):
            for got in (c * e, e * c):
                assert list(got.terms.items()) == list(reference_product(c, e).items())
                assert list(got.terms) == list(e.terms)
                assert_normalised(got)

    def test_equal_values_have_equal_storage(self):
        x1 = x(1, 0)
        a = Fraction(1, 6) * x1 + Fraction(1, 3)
        b = (x1 + 2) * Fraction(1, 6)
        assert (a._den, a._nums) == (b._den, b._nums) == (6, {(((0, 1),), (), ()): 1, MONO: 2})
        assert a == b
        assert Fraction(1, 2) * x1 != x1 * Fraction(1, 3)

    def test_terms_view_builds_a_fraction_only_when_a_coefficient_is_read(self, fractions_made):
        rng = Random(911)
        exprs = [random_expr(rng, 3) * rand_coeff(rng) for _ in range(20)]
        fractions_made.clear()
        for e in exprs:
            view = e.terms
            assert len(view) == len(e._nums) and bool(view) == bool(e._nums)
            assert list(view) == list(e._nums)
            assert all(m in view for m in e._nums) and MONO_MISSING not in view
        assert fractions_made == []
        e = next(e for e in exprs if e.terms)
        e.terms[next(iter(e.terms))]
        assert len(fractions_made) == 1

    def test_arithmetic_builds_no_fraction(self, fractions_made):
        rng = Random(912)
        pairs = [
            (random_expr(rng, 3, allow_exp=False) * rand_coeff(rng), random_expr(rng, 3, allow_exp=False))
            for _ in range(40)
        ]
        # Exponent keys with rational coefficients run on ints too; only the
        # term order of to_string reads them as Fractions.
        exp_cases = []
        for _ in range(30):
            a = rational_exponent_expr(rng, 3)
            b = random_expr(rng, 3, allow_trig=False) * exp_of(random_polynomial(rng, 3) * rand_coeff(rng))
            images = [x(3, 2) * rand_coeff(rng, 3, 4) + rand_coeff(rng), x(3, 0), x(3, 1) + 1]
            exp_cases.append((a, b, images))
        assert sum(1 for a, b, _ in exp_cases for _, expk, _ in (a * b)._nums if expk and expk[0] > 1) > 100
        fractions_made.clear()
        for a, b in pairs:
            a + b, a - b, -a, a * b, a * 3, 2 - a, a ** 3, partial_derivative(a * b, 1)
            substitute(a, [x(3, 1), x(3, 0), x(3, 2)])
            to_string(a * b)
        for a, b, images in exp_cases:
            a + b, a - b, -a, a * b, a * 3, 2 - a, a ** 2, partial_derivative(a * b, 1)
            substitute(a, [x(3, 1), x(3, 0), x(3, 2)]), substitute(b, images)
        assert fractions_made == []

    def test_terms_is_read_only(self):
        e = x(1, 0) + 1
        with pytest.raises(TypeError):
            e.terms[MONO] = Fraction(2)
        with pytest.raises(AttributeError):
            e.terms = {}


def reference_partial(e, i):
    """The per-term Fraction derivative, kept as an oracle for the integer one."""

    def put(acc, mono, c):
        work = [(mono[2], c)]
        while work:
            tr, c = work.pop()
            hot = next((t for t in tr if t[2] >= 2), None)
            if hot is not None:
                k, cp, sp = hot
                rest = tuple(t for t in tr if t[0] != k)
                work.append((tuple(sorted(rest + ((k, cp, sp - 2),))), c))
                work.append((tuple(sorted(rest + ((k, cp + 2, sp - 2),))), -c))
                continue
            m = (mono[0], mono[1], tuple(t for t in tr if t[1] or t[2]))
            s = acc.get(m, 0) + c
            if s == 0:
                del acc[m]
            else:
                acc[m] = s

    def drop(coords, j, p):
        rest = tuple((k, q) for k, q in coords if k != j)
        return tuple(sorted(rest + ((j, p - 1),))) if p > 1 else rest

    acc = {}
    for (coords, expk, trig), c in e.terms.items():
        for j, p in coords:
            if j == i:
                put(acc, (drop(coords, j, p), expk, trig), c * p)
        if expk:
            dkey = {}
            for kcoords, kc in decode_key(expk):
                for j, p in kcoords:
                    if j == i:
                        m = drop(kcoords, j, p)
                        dkey[m] = dkey.get(m, 0) + kc * p
            for dcoords, dc in sorted((m, v) for m, v in dkey.items() if v):
                merged = dict(coords)
                for j, p in dcoords:
                    merged[j] = merged.get(j, 0) + p
                put(acc, (tuple(sorted(merged.items())), expk, trig), c * dc)
        for j, cp, sp in trig:
            if j == i:
                rest = tuple(t for t in trig if t[0] != j)
                if cp:
                    put(acc, (coords, expk, tuple(sorted(rest + ((j, cp - 1, sp + 1),)))), -c * cp)
                if sp:
                    put(acc, (coords, expk, tuple(sorted(rest + ((j, cp + 1, sp - 1),)))), c * sp)
    return acc


class TestIntegerDerivative:
    def test_matches_the_per_term_reference_in_contents_and_order(self):
        rng = Random(913)
        chains = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            e = rational_exponent_expr(rng, n) + rational_operand(rng, n)
            for i in range(n):
                got = partial_derivative(e, i)
                assert list(got.terms.items()) == list(reference_partial(e, i).items())
                assert_normalised(got)
                chains += any(expk and any(c.denominator > 1 for _, c in decode_key(expk)) for _, expk, _ in got.terms)
        # rational exponent keys put their denominators into the result
        assert chains > 100


MONO = ((), (), ())
MONO_MISSING = (((0, 99),), (), ())


@pytest.fixture
def fractions_made(monkeypatch):
    """Records the arguments of every Fraction built while the test runs."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def rational_exponent_expr(rng, n):
    """random_expr plus exp terms whose keys have rational coefficients and constants."""
    e = random_expr(rng, n) * rand_coeff(rng, 9, 7)
    for _ in range(rng.randint(0, 2)):
        key = rand_coeff(rng, 5, 7) * x(n, rng.randrange(n)) + rand_coeff(rng, 3, 5) * x(n, 0) ** 2
        key = key + rand_coeff(rng)
        if key.is_polynomial() and key.terms:
            e = e + rand_coeff(rng, 11, 3) * exp_of(key) * random_expr(rng, n, allow_exp=False)
    return e


class TestToString:
    KINDS = {
        "polynomial": lambda rng, n: random_polynomial(rng, n, terms=rng.randint(1, 6)) * rand_coeff(rng, 12, 9),
        "exp": lambda rng, n: rational_exponent_expr(rng, n) * random_expr(rng, n, allow_trig=False),
        "trig": lambda rng, n: random_expr(rng, n, allow_exp=False) * random_expr(rng, n, allow_exp=False),
        "mixed": lambda rng, n: random_expr(rng, n, terms=5) * rational_exponent_expr(rng, n),
        # (e + f)(e - f) - (e^2 - f^2): zero only after full cancellation
        "zero": lambda rng, n: (lambda e, f: (e + f) * (e - f) - (e * e - f * f))(
            rational_exponent_expr(rng, n), random_expr(rng, n)
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_the_fraction_reference(self, kind):
        rng = Random(f"to_string:{kind}")
        make = self.KINDS[kind]
        shapes = Counter()
        for _ in range(400):
            e = make(rng, rng.randint(1, 4))
            text = to_string(e)
            assert text == reference_to_string(e)
            shapes["zero" if not e.terms else "exp" if "exp(" in text else "trig" if "cos(" in text or "sin(" in text else "poly"] += 1
        if kind == "zero":
            assert shapes == {"zero": 400}
        else:
            assert shapes["zero"] < 40 and shapes["exp" if kind in ("exp", "mixed") else "trig" if kind == "trig" else "poly"] > 100

    def test_exponent_keys_order_by_the_value_of_their_coefficients(self):
        x1 = x(1, 0)
        cases = {
            "exp(1/2*x1) + exp(x1)": exp_of(x1 * Fraction(1, 2)) + exp_of(x1),
            "exp(-x1) + exp(1/3*x1)": exp_of(-x1) + exp_of(x1 * Fraction(1, 3)),
            "exp(1/3*x1) + exp(1/2*x1)": exp_of(x1 * Fraction(1, 2)) + exp_of(x1 * Fraction(1, 3)),
            "exp(2/3*x1) + exp(x1)": exp_of(x1) + exp_of(x1 * Fraction(2, 3)),
            "exp(2/3*x1 + 1/2) + exp(2/3*x1 + 1)": exp_of(x1 * Fraction(2, 3) + 1)
            + exp_of(x1 * Fraction(2, 3) + Fraction(1, 2)),
        }
        for text, e in cases.items():
            assert to_string(e) == text == reference_to_string(e)

    def test_each_exponent_key_is_rendered_once(self, monkeypatch):
        x1, x2 = x(2, 0), x(2, 1)
        e = (x1 + x2 ** 2 + cos_of(2, 0) + 3) * exp_of(Fraction(2, 3) * x1 - x2) + exp_of(x1) * x2
        rendered = []
        real = exprcore._render_terms

        def counting(terms, keys):
            rendered.append(len(terms))
            return real(terms, keys)

        monkeypatch.setattr(exprcore, "_render_terms", counting)
        assert to_string(e) == reference_to_string(e)
        # the expression itself, then one rendering per distinct key
        assert len(rendered) == 3

"""Predictors, cross-validation, and campaign machinery."""

import hashlib
import json
import re
from fractions import Fraction
from random import Random

import pytest

from infharm import classify
from infharm.calculus import infinity_tension
from infharm.classify import (
    THEOREMS,
    UnsupportedPairError,
    cayley_orthogonal,
    conformal_linear_residuals,
    cross_validate,
    falsify_search,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_transpose,
    matrix_lemma_condition,
    predict_holomorphic,
    predict_linear,
    predict_quadratic,
    run_suite,
)
from infharm.exprcore import is_zero
from infharm.mapspec import (
    ComplexPolyMap,
    MapSpecError,
    affine_map,
    holomorphic_map,
    parse_cpoly,
    quadratic_map,
    serialize_mapspec,
)
from infharm.spaces import build_space

E1, E2, E3 = build_space("euclid:1"), build_space("euclid:2"), build_space("euclid:3")
NIL, SOL = build_space("nil"), build_space("sol")
S2, S3 = build_space("sphere:2"), build_space("sphere:3")


# sha256 of the records in TestSuites.test_sampled_trials_are_pinned.
SAMPLED_TRIALS_SHA256 = "6064968ed0c5331f61dc576189745264b0e9c112c0d78e7864a2b0ce562c8131"


def frac_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


class TestMatrixLemma:
    def test_zero_tuple_holds(self):
        z = frac_matrix([[0, 0], [0, 0]])
        res = matrix_lemma_condition([z, z])
        assert res.holds and res.all_zero

    def test_identity_fails(self):
        eye = frac_matrix([[1, 0], [0, 1]])
        z = frac_matrix([[0, 0], [0, 0]])
        res = matrix_lemma_condition([eye, z])
        assert not res.holds and not res.all_zero

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_lemma_condition([frac_matrix([[0, 1], [0, 0]])])

    def test_campaign_small(self):
        res = run_suite("L2.1", trials=500, seed=41)
        assert res.passed


class TestCayley:
    def test_orthogonality(self):
        rng = Random(5)
        for n in (2, 3, 4):
            a = cayley_orthogonal(n, rng)
            ata = mat_mul(mat_transpose(a), a)
            assert mat_is_zero(mat_sub(ata, mat_identity(n)))

    def test_known_skew_gives_rotation(self):
        # skew [[0, 1/2], [-1/2, 0]] maps to [[3/5, -4/5], [4/5, 3/5]]
        from infharm.classify import mat_inverse

        s = frac_matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        eye = mat_identity(2)
        i_minus = mat_sub(eye, s)
        i_plus = tuple(tuple(eye[i][j] + s[i][j] for j in range(2)) for i in range(2))
        a = mat_mul(i_minus, mat_inverse(i_plus))
        assert a == frac_matrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])


class TestLinearPredictors:
    def test_nil_projection_pattern(self):
        v = predict_linear(NIL, E2, [[0, 1, 0], [0, 0, 1]])
        assert v.harmonic and v.tag == "ProjectionThenLinear"

    def test_nil_generic_fails(self):
        v = predict_linear(NIL, E2, [[1, 0, 1], [0, 1, 0]])
        assert not v.harmonic

    def test_sphere_isometric_immersion(self):
        a = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
        v = predict_linear(S2, S2, a)
        assert v.harmonic and v.tag == "IsometricImmersion"

    def test_sphere_to_sphere_translation_unsupported(self):
        with pytest.raises(UnsupportedPairError):
            predict_linear(S2, S2, [[1, 0], [0, 1]], [1, 0])

    def test_euclid_to_sphere_needs_constant(self):
        v = predict_linear(E3, S2, [[1, 0, 0], [0, 1, 0]])
        assert not v.harmonic
        v0 = predict_linear(E3, S2, [[0, 0, 0], [0, 0, 0]], [1, 2])
        assert v0.harmonic and v0.tag == "ConstantMap"

    def test_sol_inclusion_form(self):
        v = predict_linear(E3, SOL, [[0, 0, 0], [0, 0, 0], [1, 2, 3]])
        assert v.harmonic and v.detail.get("inclusion") == "z"

    def test_sol_projection_forms(self):
        v = predict_linear(SOL, E2, [[1, 2, 0], [3, 4, 0]])
        assert v.harmonic and v.detail.get("projection") == "xy"
        v2 = predict_linear(SOL, E2, [[0, 0, 1], [0, 0, 2]])
        assert v2.harmonic and v2.detail.get("projection") == "z"

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPairError):
            predict_linear(NIL, SOL, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_raw_input_is_validated_by_mapspec(self):
        with pytest.raises(MapSpecError, match="^A: ragged matrix$"):
            predict_linear(E2, E2, [[1, 2], [3]])
        with pytest.raises(MapSpecError, match=r"^quad\[0\]: matrix is not symmetric"):
            predict_quadratic(E2, E1, [[[0, 1], [0, 0]]])


class TestQuadraticPredictors:
    def test_zero_quads_affine_governs(self):
        z = frac_matrix([[0, 0], [0, 0]])
        v = predict_quadratic(E2, E1, [z], [[1, 2]], [3])
        assert v.harmonic and v.tag == "AffineOnly"

    def test_nonzero_quad_fails(self):
        v = predict_quadratic(E2, E1, [frac_matrix([[1, 0], [0, 0]])])
        assert not v.harmonic

    def test_nonzero_quad_into_sol_fails(self):
        quads = [frac_matrix([[1, 0], [0, 0]]), frac_matrix([[0, 0], [0, 0]]),
                 frac_matrix([[0, 0], [0, 0]])]
        v = predict_quadratic(E2, SOL, quads)
        assert not v.harmonic


class TestHolomorphicPredictor:
    def test_single_coefficient_real(self):
        cmap = ComplexPolyMap(2, 1, (parse_cpoly("3*z2 + (1+i)", 2),))
        v = predict_holomorphic(cmap)
        assert v.harmonic and v.tag == "HomothetyOfProjection"
        assert v.detail["index"] == 2 and v.detail["lambda"] == "3"

    def test_square_not_harmonic(self):
        cmap = ComplexPolyMap(1, 1, (parse_cpoly("z1^2", 1),))
        assert not predict_holomorphic(cmap).harmonic

    def test_imaginary_coefficient_rejected_and_flagged(self):
        cmap = ComplexPolyMap(1, 1, (parse_cpoly("i*z1", 1),))
        v = predict_holomorphic(cmap)
        assert not v.harmonic
        assert "affine-rejected-by-stated-criterion" in v.flags
        # the direct computation disagrees by design: constant energy density
        rep = infinity_tension(E2, E2, holomorphic_map(cmap))
        assert rep.verdict == "zero"

    def test_multi_component_split(self):
        cmap = ComplexPolyMap(1, 2, (parse_cpoly("z1", 1), parse_cpoly("2*z1+i", 1)))
        v = predict_holomorphic(cmap)
        assert v.harmonic and v.tag == "SplitsRealImag"


class TestCoverage:
    """One COVERAGE record decides which pairs each family's predictor covers."""

    def test_holomorphic_criterion_covers_euclidean_pairs_only(self):
        spec = holomorphic_map(ComplexPolyMap(1, 1, (parse_cpoly("2*z1", 1),)))
        assert classify.predict(E2, E2, spec).tag == "HomothetyOfProjection"
        for dom, cod in ((S2, S2), (build_space("semi-euclid:2:-+"), E2)):
            with pytest.raises(UnsupportedPairError, match="no holomorphic predictor covers"):
                classify.predict(dom, cod, spec)
            rep = cross_validate(dom, cod, spec)
            assert rep.predicted is None and rep.agree is None

    def test_uncovered_pairs_raise_one_message(self):
        with pytest.raises(UnsupportedPairError, match="^no linear predictor covers nil -> sol$"):
            predict_linear(NIL, SOL, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(UnsupportedPairError, match="^no quadratic predictor covers sphere:2 -> sphere:2$"):
            predict_quadratic(S2, S2, [frac_matrix([[1, 0], [0, 0]])] * 2)

    def test_zero_matrix_is_constant_on_an_uncovered_pair(self):
        v = predict_linear(NIL, SOL, [[0, 0, 0]] * 3, [1, 2, 3])
        assert v.harmonic and v.tag == "ConstantMap"

    def test_every_linear_pair_matches_its_statement(self):
        linear = classify.COVERAGE["linear"]
        conformal = ("euclid", "sphere", "conformal")
        expected = {(d, c) for d in conformal for c in conformal} | set(classify.NIL_SOL_PATTERNS)
        assert set(linear) == expected
        assert set(classify.COVERAGE["quadratic"]) <= set(linear)
        assert set(classify.COVERAGE["holomorphic"]) == {("euclid", "euclid")}


class TestCrossValidate:
    def test_identity_agrees(self):
        rep = cross_validate(E2, E2, affine_map([[1, 0], [0, 1]]))
        assert rep.agree is True and rep.numeric_ok

    def test_nil_positive_campaign(self):
        rng = Random(61)
        for _ in range(50):
            a = [[0, rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(2)]
            rep = cross_validate(NIL, E2, affine_map(a))
            assert rep.agree is True
            assert rep.direct.verdict == "zero" or any(v != 0 for row in a for v in row[1:])

    def test_quadratic_negative_campaign(self):
        rng = Random(62)
        for _ in range(50):
            q = [[Fraction(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    q[i][j] = v
                    q[j][i] = v
            if all(v == 0 for row in q for v in row):
                q[0][0] = Fraction(1)
            spec = quadratic_map([q, q], None, None)
            rep = cross_validate(E3, E2, spec)
            assert rep.agree is True
            assert rep.direct.verdict == "nonzero"

    def test_custom_maps_have_no_predictor(self):
        from infharm.mapspec import custom_map
        from infharm.exprcore import parse_expr

        spec = custom_map(3, [parse_expr("x3 - x1*x2/2", 3), parse_expr("2*x3 - x1*x2", 3)])
        rep = cross_validate(NIL, E2, spec)
        assert rep.predicted is None and rep.agree is None
        assert rep.direct.verdict == "zero"

    def test_cayley_sphere_energy_is_dimension_constant(self):
        # for A^t A = I the cleared energy numerator equals m * clearing,
        # equivalently (1 + |AX|^2)^2 * m - 4 * numerator vanishes
        from infharm.calculus import energy_density
        from infharm.exprcore import Expr
        from infharm.mapspec import materialize

        rng = Random(71)
        for _ in range(10):
            n = rng.randint(2, 3)
            m = rng.randint(1, n)
            full = cayley_orthogonal(n, rng)
            a = tuple(row[:m] for row in full)
            dom = build_space(f"sphere:{m}")
            cod = build_space(f"sphere:{n}")
            spec = affine_map(a)
            en = energy_density(dom, cod, spec)
            assert is_zero(en.num - m * en.clearing)
            comps = materialize(spec)
            norm_sq = Expr.zero(m)
            for c in comps:
                norm_sq = norm_sq + c * c
            cleared = (Expr.const(m, 1) + norm_sq) ** 2
            assert is_zero(cleared * m - 4 * en.num)

    def test_lemma_route_three_way_on_spheres(self):
        rng = Random(63)
        for trial in range(20):
            n = rng.randint(2, 3)
            m = rng.randint(1, n)
            if trial % 3 == 0:
                full = cayley_orthogonal(n, rng)
                a = tuple(row[:m] for row in full)
            else:
                a = tuple(
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
                    for _ in range(n)
                )
            dom = build_space(f"sphere:{m}")
            cod = build_space(f"sphere:{n}")
            spec = affine_map(a)
            residuals = conformal_linear_residuals(dom, cod, spec.A, spec.b)
            via_lemma = mat_is_zero(spec.A) or all(is_zero(r) for r in residuals)
            via_theorem = predict_linear(dom, cod, a).harmonic
            direct = infinity_tension(dom, cod, spec).is_harmonic
            assert via_lemma == via_theorem == direct


class TestFalsifySearch:
    def test_sol_to_euclid_clean(self):
        out = falsify_search("linear", SOL, E3, 200, seed=7)
        assert not out.counterexamples

    def test_quadratic_into_nil_clean(self):
        out = falsify_search("quadratic", E2, NIL, 100, seed=1)
        assert not out.counterexamples

    def test_affine_euclid_trivial(self):
        out = falsify_search("linear", E2, E2, 10, seed=99)
        assert not out.counterexamples

    def test_holomorphic_clean(self):
        out = falsify_search("holomorphic", E2, E2, 100, seed=5)
        assert not out.counterexamples

    def test_uncovered_pair_is_refused(self):
        # the zero matrix gets the ConstantMap verdict on any pair, so some
        # trials do have a predictor; the others must not pass as agreement
        semi = build_space("semi-euclid:2:-+")
        with pytest.raises(UnsupportedPairError, match="no linear predictor covers"):
            falsify_search("linear", semi, E1, 1000, seed=0)
        with pytest.raises(UnsupportedPairError, match="no quadratic predictor covers"):
            falsify_search("quadratic", NIL, E2, 10, seed=0)

    @pytest.mark.parametrize("family, domain, codomain", [
        ("linear", "semi-euclid:2:-+", "euclid:1"),
        ("quadratic", "nil", "euclid:2"),
        ("holomorphic", "sphere:2", "sphere:2"),
        ("holomorphic", "semi-euclid:2:-+", "euclid:2"),
    ])
    def test_uncovered_search_runs_no_trial(self, monkeypatch, family, domain, codomain):
        calls = []
        real = classify.cross_validate
        monkeypatch.setattr(
            classify, "cross_validate", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        message = re.escape(f"no {family} predictor covers {domain} -> {codomain}")
        with pytest.raises(UnsupportedPairError, match=f"^{message}$"):
            falsify_search(family, build_space(domain), build_space(codomain), 20, seed=0)
        assert calls == []

    def test_one_coverage_entry_covers_a_pair(self, monkeypatch):
        seen = []

        def stub(domain, codomain, spec):
            seen.append((domain.label, codomain.label, len(spec.quad)))
            return classify.Verdict(False, "Stub", {})

        with pytest.raises(UnsupportedPairError):
            predict_quadratic(NIL, E2, [frac_matrix([[0] * 3] * 3)] * 2)
        monkeypatch.setitem(classify.COVERAGE["quadratic"], ("nil", "euclid"), stub)
        out = falsify_search("quadratic", NIL, E2, 3, 0)
        assert out.trials == 3
        assert seen == [("nil", "euclid:2", 2)] * 3

    def test_determinism(self):
        a = falsify_search("linear", SOL, E3, 50, seed=123)
        b = falsify_search("linear", SOL, E3, 50, seed=123)
        assert a == b


class TestSuites:
    def test_all_suite_ids_run_clean(self):
        for tid in THEOREMS:
            res = run_suite(tid, trials=20, seed=77)
            assert res.passed, (tid, res.failures)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_suite("T9.9", trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_suite("T5.1", trials=trials, seed=0)

    def test_determinism(self):
        assert run_suite("T5.1", 30, seed=9) == run_suite("T5.1", 30, seed=9)

    def test_disagreements_are_counted_and_the_first_listed(self, monkeypatch):
        # a predictor that calls every quadratic map harmonic is wrong on each
        # odd trial of T2.2, whose even trials draw the zero map
        monkeypatch.setitem(
            classify.COVERAGE["quadratic"], ("euclid", "euclid"),
            lambda domain, codomain, spec: classify.Verdict(True, "Stub", {}),
        )
        res = run_suite("T2.2", 12, 0)
        assert not res.passed
        assert res.disagreements == 6
        assert len(res.failures) == classify.MAX_FAILURES
        assert [f["trial"] for f in res.failures] == [1, 3, 5, 7, 9]
        for failure in res.failures:
            assert failure["map"]["kind"] == "quadratic"
            assert failure["predicted_harmonic"] is True and failure["direct_verdict"] == "nonzero"

    def test_sampled_trials_are_pinned(self, monkeypatch):
        # Every map a theorem runner hands to the direct computation, plus the
        # generator state after each trial, for seed 0 and trials 0-39.  The
        # suite JSON holds no per-trial data while everything agrees, so this
        # is what shows that a refactored suite still draws the same maps.
        records = []

        def recording(original):
            def wrapper(domain, codomain, spec, *args, **kwargs):
                records.append([domain.label, codomain.label, serialize_mapspec(spec)])
                return original(domain, codomain, spec, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(classify, "cross_validate", recording(classify.cross_validate))
        monkeypatch.setattr(classify, "infinity_tension", recording(classify.infinity_tension))
        for tid in sorted(THEOREMS):
            runner = THEOREMS[tid][1]
            for trial in range(40):
                rng = classify._rng_for(0, tid, trial)
                runner(trial, rng, 0)
                records.append([tid, trial, rng.getstate()])
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == SAMPLED_TRIALS_SHA256


class TestPatternEnergyProfiles:
    def test_inclusion_patterns_have_constant_energy(self):
        # every harmonic linear map into Nil or Sol has constant energy density
        rng = Random(500)
        for _ in range(20):
            m = rng.randint(2, 4)
            dom = build_space(f"euclid:{m}")
            for cod, zero_rows in ((NIL, (0,)), (NIL, (1,)), (SOL, (2,)), (SOL, (0, 1))):
                a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
                     for _ in range(3)]
                for i in zero_rows:
                    a[i] = [Fraction(0)] * m
                from infharm.calculus import energy_density

                en = energy_density(dom, cod, affine_map(a))
                assert en.num.constant_value() is not None, (cod.label, a)

    def test_nil_first_column_pattern_energy_profile(self):
        # the (y, z)-projection route has quadratic energy when the third
        # column is nonzero, constant energy when it vanishes
        from infharm.calculus import energy_density

        quadratic = affine_map([[0, 1, 1], [0, 0, 1]])
        constant = affine_map([[0, 1, 0], [0, 2, 0]])
        en_q = energy_density(NIL, E2, quadratic)
        assert en_q.num.constant_value() is None
        en_c = energy_density(NIL, E2, constant)
        assert en_c.num.constant_value() is not None


class TestRowPatternFlips:
    def test_nil_flip_breaks_harmonicity(self):
        rng = Random(404)
        for _ in range(10):
            # first-column-zero pattern with a nonzero third column
            a = [[Fraction(0), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
                 for _ in range(2)]
            if all(row[2] == 0 for row in a):
                a[0][2] = Fraction(1)
            spec = affine_map(a)
            assert infinity_tension(NIL, E2, spec).verdict == "zero"
            flipped = [list(row) for row in a]
            flipped[rng.randrange(2)][0] = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            assert infinity_tension(NIL, E2, affine_map(flipped)).verdict == "nonzero"

    def test_cayley_flip_breaks_harmonicity(self):
        rng = Random(405)
        for _ in range(5):
            a = [list(row) for row in cayley_orthogonal(2, rng)]
            spec = affine_map(a)
            assert infinity_tension(S2, S2, spec).verdict == "zero"
            i, j = rng.randrange(2), rng.randrange(2)
            delta = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            flipped = [list(row) for row in a]
            flipped[i][j] += delta
            fa = frac_matrix(flipped)
            if mat_is_zero(mat_sub(mat_mul(mat_transpose(fa), fa), mat_identity(2))):
                continue
            assert infinity_tension(S2, S2, affine_map(flipped)).verdict == "nonzero"

"""Acceptance criteria, one test per criterion, one PASS line each.

Every tolerance and trial count is pinned here.  Symbolically-zero verdicts
produced by criteria 1-9 are recorded and re-verified by criterion 10
through the independent numeric tension assembler (64 points, 1e-9 after
normalization); criterion 5's campaigns additionally enforce the sampling
coherence inside every cross-validation trial.
"""

from fractions import Fraction
from random import Random

from infharm.calculus import (
    energy_density,
    fd_p_tension,
    hessian_form,
    independent_numeric_check,
    infinity_laplacian,
    infinity_tension,
    numeric_zero_check,
    p_tension,
    phm_composed_p_tension,
    sample_points,
)
from infharm.classify import (
    cayley_orthogonal,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_transpose,
    run_suite,
)
from infharm.exprcore import Expr, evaluate, is_zero, parse_expr, partial_derivative
from infharm.mapspec import affine_map, custom_map, materialize, quadratic_map
from infharm.spaces import build_space

SEED = 20260808
SUITE_TRIALS = 200
LEMMA_TRIALS = 10_000
FLIPS_PER_FAMILY = 50

E1, E2, E3 = build_space("euclid:1"), build_space("euclid:2"), build_space("euclid:3")
NIL, SOL = build_space("nil"), build_space("sol")

# (domain, codomain, map, label) for every symbolically-zero verdict seen in 1-9
ZERO_REGISTRY: list[tuple] = []


def record_zero(domain, codomain, spec, label: str):
    ZERO_REGISTRY.append((domain, codomain, spec, label))


def test_c01_trig_map_constant_energy():
    spec = custom_map(
        3,
        [
            parse_expr("cos(x1)+cos(x2)+cos(x3)", 3),
            parse_expr("sin(x1)+sin(x2)+sin(x3)", 3),
        ],
    )
    en = energy_density(E3, E2, spec)
    assert en.num == Expr.const(3, 3) and en.is_plain
    rep = infinity_tension(E3, E2, spec)
    assert rep.verdict == "zero" and rep.mode == "exact"
    record_zero(E3, E2, spec, "trig map")
    print("\nACCEPT C1 PASS - trig map: energy density exactly 3, tension verdict zero")


def test_c02_nil_polynomial_example():
    spec = custom_map(3, [parse_expr("x3 - x1*x2/2", 3), parse_expr("2*x3 - x1*x2", 3)])
    en = energy_density(NIL, E2, spec)
    x, y = Expr.coord(3, 0), Expr.coord(3, 1)
    assert en.num == 5 + Fraction(5, 4) * x * x + Fraction(5, 4) * y * y
    rep = infinity_tension(NIL, E2, spec)
    assert rep.verdict == "zero"
    record_zero(NIL, E2, spec, "nil example")
    print("ACCEPT C2 PASS - Nil example: energy 5 + 5/4 x^2 + 5/4 y^2, verdict zero")


def test_c03_semi_euclidean_null_map():
    semi = build_space("semi-euclid:2:-+")
    spec = quadratic_map([[[12, 0], [0, 12]], [[13, 5], [5, 13]]])
    en = energy_density(semi, semi, spec)
    assert is_zero(en.num)
    rep = infinity_tension(semi, semi, spec)
    assert rep.verdict == "zero"
    record_zero(semi, semi, spec, "semi-euclidean quadratic")
    print("ACCEPT C3 PASS - semi-Euclidean quadratic map: energy exactly 0, verdict zero")


def test_c04_matrix_lemma_campaign():
    res = run_suite("L2.1", trials=LEMMA_TRIALS, seed=SEED)
    assert res.trials == LEMMA_TRIALS
    assert res.disagreements == 0, res.failures
    print(
        f"ACCEPT C4 PASS - anticommutator lemma: {LEMMA_TRIALS} random symmetric"
        " tuples, condition holds iff all matrices vanish, 0 counterexamples"
    )


def test_c05_theorem_suites_full_agreement():
    suite_ids = [
        "T2.2", "T2.3", "T3.2", "T3.3", "T4.1", "T5.1", "T5.2",
        "T6.1", "T6.2", "T7.1", "T7.2", "T8.1", "T8.3",
    ]
    bad = {}
    for tid in suite_ids:
        res = run_suite(tid, trials=SUITE_TRIALS, seed=SEED)
        if res.disagreements:
            bad[tid] = res.failures
    assert not bad, bad
    print(
        f"ACCEPT C5 PASS - 13 theorem suites x {SUITE_TRIALS} seeded trials:"
        " cross-validation agreement rate exactly 100%"
    )


def _flip_family_nil_sol(rng, domain, codomain, zero_cols=None, zero_rows=None,
                         guard_cols=None, guard_rows=None, n_rows=None, n_cols=None):
    """One positive pattern instance plus a single-entry flip; returns both specs.

    The guard positions are the complementary pattern (the other branch of
    the classification criterion); at least one of them is forced nonzero so
    that flipping a required-zero entry genuinely breaks harmonicity.
    """
    rows, cols = n_rows, n_cols
    a = [[Fraction(0)] * cols for _ in range(rows)]
    zero_positions = []
    guard_positions = []
    for i in range(rows):
        for j in range(cols):
            in_zero = (zero_cols is not None and j in zero_cols) or (
                zero_rows is not None and i in zero_rows
            )
            if in_zero:
                zero_positions.append((i, j))
                continue
            if (guard_cols is not None and j in guard_cols) or (
                guard_rows is not None and i in guard_rows
            ):
                guard_positions.append((i, j))
            if rng.random() >= 0.4:
                a[i][j] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    if all(a[i][j] == 0 for i, j in guard_positions):
        i, j = guard_positions[rng.randrange(len(guard_positions))]
        a[i][j] = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    base = affine_map(a)
    i, j = zero_positions[rng.randrange(len(zero_positions))]
    flipped_rows = [list(r) for r in a]
    flipped_rows[i][j] = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    return base, affine_map(flipped_rows)


def test_c06_positive_families_and_flips():
    rng = Random(SEED)
    families = [
        ("nil->euclid, first column zero", NIL, E2,
         dict(zero_cols=(0,), guard_cols=(2,), n_rows=2, n_cols=3)),
        ("nil->euclid, third column zero", NIL, E2,
         dict(zero_cols=(2,), guard_cols=(0,), n_rows=2, n_cols=3)),
        ("euclid->nil, first row zero", E3, NIL,
         dict(zero_rows=(0,), guard_rows=(1,), n_rows=3, n_cols=3)),
        ("euclid->nil, second row zero", E3, NIL,
         dict(zero_rows=(1,), guard_rows=(0,), n_rows=3, n_cols=3)),
        ("sol->euclid, first+second columns zero", SOL, E2,
         dict(zero_cols=(0, 1), guard_cols=(2,), n_rows=2, n_cols=3)),
        ("sol->euclid, third column zero", SOL, E2,
         dict(zero_cols=(2,), guard_cols=(0, 1), n_rows=2, n_cols=3)),
    ]
    for label, dom, cod, kw in families:
        for _ in range(FLIPS_PER_FAMILY):
            base, flipped = _flip_family_nil_sol(rng, dom, cod, **kw)
            base_rep = infinity_tension(dom, cod, base)
            assert base_rep.verdict == "zero", (label, base.A)
            record_zero(dom, cod, base, label)
            flip_rep = infinity_tension(dom, cod, flipped)
            assert flip_rep.verdict == "nonzero", (label, flipped.A)

    # Cayley-orthogonal sphere maps: harmonic, and any single-entry bump
    # that breaks A^t A = I breaks harmonicity
    flips_done = 0
    while flips_done < FLIPS_PER_FAMILY:
        n = 2 + (flips_done % 2)
        m = rng.randint(1, n)
        dom = build_space(f"sphere:{m}")
        cod = build_space(f"sphere:{n}")
        full = cayley_orthogonal(n, rng)
        a = tuple(row[:m] for row in full)
        spec = affine_map(a)
        rep = infinity_tension(dom, cod, spec)
        assert rep.verdict == "zero", a
        record_zero(dom, cod, spec, "cayley sphere map")
        i, j = rng.randrange(n), rng.randrange(m)
        bumped = [list(row) for row in a]
        bumped[i][j] += Fraction(rng.randint(1, 4), rng.randint(1, 4))
        fa = tuple(tuple(r) for r in bumped)
        if mat_is_zero(mat_sub(mat_mul(mat_transpose(fa), fa), mat_identity(m))):
            continue
        flip_rep = infinity_tension(dom, cod, affine_map(bumped))
        assert flip_rep.verdict == "nonzero", bumped
        flips_done += 1
    print(
        f"ACCEPT C6 PASS - 6 Nil/Sol pattern families + Cayley sphere maps:"
        f" all positives zero, {FLIPS_PER_FAMILY} single-entry flips per family all nonzero"
    )


def test_c07_scalar_operator_consistency():
    spaces = ["euclid:2", "euclid:3", "nil", "sol", "sphere:2", "sphere:3", "semi-euclid:2:-+"]
    rng = Random(SEED + 7)
    for label in spaces:
        sp = build_space(label)
        for _ in range(100):
            u = Expr.zero(sp.dim)
            for _ in range(4):
                t = Expr.const(sp.dim, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 3)):
                    t = t * Expr.coord(sp.dim, rng.randrange(sp.dim))
                u = u + t
            dinf = infinity_laplacian(sp, u)
            hf = hessian_form(sp, u)
            assert is_zero(hf.clearing * dinf - hf.num), label
            if label.startswith("euclid"):
                du = [partial_derivative(u, i) for i in range(sp.dim)]
                coord_form = Expr.zero(sp.dim)
                for i in range(sp.dim):
                    for j in range(sp.dim):
                        coord_form = coord_form + partial_derivative(du[i], j) * du[i] * du[j]
                assert is_zero(dinf - coord_form)
    print(
        "ACCEPT C7 PASS - scalar consistency: inner-product form = Hessian form"
        " (and coordinate form on Euclidean space), 100 random polynomials per catalog space"
    )


def test_c08_p4_identity_and_fd_oracle():
    rng = Random(SEED + 8)
    checked_points = 0
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        quads = []
        for _ in range(n):
            q = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    q[i][j] = v
                    q[j][i] = v
            quads.append(tuple(tuple(r) for r in q))
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)] for _ in range(n)]
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        spec = quadratic_map(quads, a, b)
        dom, cod = build_space(f"euclid:{m}"), build_space(f"euclid:{n}")
        div_form, _ = p_tension(dom, cod, spec, 4)
        composed, _ = phm_composed_p_tension(dom, cod, spec, 4)
        for lhs, rhs in zip(div_form, composed):
            assert is_zero(lhs - rhs)
        comps = materialize(spec)
        for pt in sample_points(m, 5, seed=SEED + checked_points):
            fd = fd_p_tension(comps, 4, [float(v) for v in pt])
            for sym_expr, fd_val in zip(div_form, fd):
                sym_val = evaluate(sym_expr, pt)
                assert abs(sym_val - fd_val) <= 1e-6 * max(1.0, abs(sym_val), abs(fd_val))
            checked_points += 1
    print(
        "ACCEPT C8 PASS - p=4 tension identity holds symbolically for 50 random maps;"
        f" finite-difference oracle matches at {checked_points} points within 1e-6 relative"
    )


def test_c09_scalar_linear_criteria_exhaustive():
    signs = (-1, 0, 1)
    triples = [(a, b, c) for a in signs for b in signs for c in signs]
    rng = Random(SEED + 9)
    for _ in range(100):
        triples.append(
            (
                Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
            )
        )
    for a, b, c in triples:
        u = a * Expr.coord(3, 0) + b * Expr.coord(3, 1) + c * Expr.coord(3, 2)
        nil_zero = is_zero(infinity_laplacian(NIL, u))
        assert nil_zero == (a == 0 or c == 0), (a, b, c)
        sol_zero = is_zero(infinity_laplacian(SOL, u))
        assert sol_zero == (c == 0 or (a == 0 and b == 0)), (a, b, c)
        if nil_zero:
            record_zero(NIL, build_space("euclid:1"), custom_map(3, [u]), "nil scalar")
        if sol_zero:
            record_zero(SOL, build_space("euclid:1"), custom_map(3, [u]), "sol scalar")
    print(
        "ACCEPT C9 PASS - linear scalars: Nil harmonic iff A=0 or C=0, Sol iff C=0 or"
        f" A=B=0, over 27 sign patterns + 100 random rational triples"
    )


def test_c10_exact_numeric_coherence():
    assert ZERO_REGISTRY, "criteria 1-9 must run before the coherence pass"
    for idx, (dom, cod, spec, label) in enumerate(ZERO_REGISTRY):
        # literal sampling of the symbolic components
        rep = infinity_tension(dom, cod, spec)
        assert rep.verdict == "zero"
        assert numeric_zero_check(rep.components, dom.dim, seed=SEED + idx), label
        # independent numeric assembly of the same tension
        assert independent_numeric_check(dom, cod, spec, seed=SEED + idx), label
    print(
        f"ACCEPT C10 PASS - exact/numeric coherence: {len(ZERO_REGISTRY)} recorded"
        " zero verdicts stay below 1e-9 over 64-point sampling, both sampled"
        " symbolically and via the independent numeric assembly"
    )

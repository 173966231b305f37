"""Per-theorem deciders and randomized cross-validation campaigns.

Each (map family, space pair) listed in COVERAGE has a predictor that
evaluates the classifying algebraic criterion exactly on the map's rational
data, read from its validated MapSpec; `predict` is the one path to them.
The cross-validator compares the prediction against the direct symbolic
tension computation.  Campaigns draw seeded random maps and report
disagreements, so a nonempty counterexample list always points at a defect
(in the criterion, the calculus, or the sampler).

All randomness is derived per trial from (seed, trial index) through
SHA-256, so results are identical regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .calculus import (
    TensionReport,
    _child_seed,
    fd_p_tension,
    hessian_form,
    infinity_laplacian,
    infinity_tension,
    p_tension,
    phm_composed_p_tension,
    sample_points,
)
from .exprcore import Expr, FloatProgram, is_zero, partial_derivative, substitute
from .mapspec import (
    ComplexPolyMap,
    MapSpec,
    affine_map,
    cpoly_degree,
    custom_map,
    holomorphic_map,
    materialize,
    quadratic_map,
    realify,
    serialize_mapspec,
)
from .spaces import ModelSpace, build_euclidean, build_space

RatMatrix = tuple[tuple[Fraction, ...], ...]


class UnsupportedPairError(ValueError):
    """No predictor covers this (domain, codomain, family) combination."""


@dataclass(frozen=True)
class Verdict:
    harmonic: bool
    tag: str
    residuals: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CrossReport:
    predicted: Verdict | None
    direct: TensionReport
    agree: bool | None
    # Always True; it stays because bench/workloads.py reads it and reports print it.
    numeric_ok: bool = True


@dataclass(frozen=True)
class SearchOutcome:
    family: str
    domain: str
    codomain: str
    trials: int
    seed: int
    counterexamples: tuple[dict, ...]


@dataclass(frozen=True)
class SuiteResult:
    theorem: str
    description: str
    trials: int
    seed: int
    disagreements: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.disagreements == 0


# ---------------------------------------------------------------------------
# exact rational linear algebra


def mat_mul(a, b) -> RatMatrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def mat_transpose(a) -> RatMatrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_identity(n) -> RatMatrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_sub(a, b) -> RatMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_is_zero(a) -> bool:
    return all(v == 0 for row in a for v in row)


def mat_inverse(a) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def cayley_orthogonal(n: int, rng: Random) -> RatMatrix:
    """Exact rational orthogonal matrix (I - S)(I + S)^-1 from a random skew S."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            s[i][j] = v
            s[j][i] = -v
    eye = mat_identity(n)
    i_minus = mat_sub(eye, tuple(tuple(r) for r in s))
    i_plus = tuple(tuple(eye[i][j] + s[i][j] for j in range(n)) for i in range(n))
    return mat_mul(i_minus, mat_inverse(i_plus))


def rand_rational(rng: Random, num: int = 8, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_matrix(rng: Random, n: int, m: int, zero_prob: float) -> RatMatrix:
    return tuple(
        tuple(
            Fraction(0) if rng.random() < zero_prob else rand_rational(rng)
            for _ in range(m)
        )
        for _ in range(n)
    )


def rand_symmetric(rng: Random, m: int, zero_prob: float = 0.3) -> RatMatrix:
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            v = Fraction(0) if rng.random() < zero_prob else rand_rational(rng)
            rows[i][j] = v
            rows[j][i] = v
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# symmetric-matrix anticommutator condition


@dataclass(frozen=True)
class LemmaCheck:
    holds: bool
    all_zero: bool
    residuals: tuple  # anticommutators, cleared to integers by a common scale


def matrix_lemma_condition(matrices) -> LemmaCheck:
    """Check (sum_j A_j^2) A_i + A_i (sum_j A_j^2) = 0 for all i.

    Inputs must be symmetric rational matrices of one size.  Internally the
    matrices are scaled to integers by the lcm of all denominators (the
    condition is invariant under common scaling), which keeps large random
    campaigns fast.  Residuals are returned at that integer scale.
    """
    mats = tuple(tuple(tuple(Fraction(v) for v in row) for row in m) for m in matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    m = len(mats[0])
    for qi, q in enumerate(mats):
        if len(q) != m or any(len(row) != m for row in q):
            raise ValueError(f"matrix {qi} is not {m}x{m}")
        for i in range(m):
            for j in range(i + 1, m):
                if q[i][j] != q[j][i]:
                    raise ValueError(f"matrix {qi} is not symmetric")
    scale = 1
    for q in mats:
        for row in q:
            for v in row:
                scale = scale * v.denominator // math.gcd(scale, v.denominator)
    ints = [
        [[int(v * scale) for v in row] for row in q]
        for q in mats
    ]
    s = [[0] * m for _ in range(m)]
    for q in ints:
        for i in range(m):
            for j in range(m):
                s[i][j] += sum(q[i][k] * q[k][j] for k in range(m))
    residuals = []
    holds = True
    for q in ints:
        anti = tuple(
            tuple(
                sum(q[i][k] * s[k][j] + s[i][k] * q[k][j] for k in range(m))
                for j in range(m)
            )
            for i in range(m)
        )
        residuals.append(anti)
        if any(v != 0 for row in anti for v in row):
            holds = False
    all_zero = all(v == 0 for q in ints for row in q for v in row)
    return LemmaCheck(holds=holds, all_zero=all_zero, residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# predictors


# Linear maps between Nil or Sol and R^n (T5.1, T5.2, T6.1, T6.2), keyed by
# (domain kind, codomain kind): the verdict tag, the pattern name, and the
# zero patterns in the order they are tried.  Each pattern is a set of the
# three Nil/Sol coordinate lines (columns of A for a projection, rows for an
# inclusion) that must vanish, and the name of the route it leaves.  The
# verdict detail lists every line that some pattern names.
NIL_SOL_PATTERNS = {
    ("nil", "euclid"): ("ProjectionThenLinear", "projection", (((0,), "yz"), ((2,), "xy"))),
    ("euclid", "nil"): ("InclusionForm", "inclusion", (((0,), "yz"), ((1,), "xz"))),
    ("sol", "euclid"): ("ProjectionThenLinear", "projection", (((2,), "xy"), ((0, 1), "z"))),
    ("euclid", "sol"): ("InclusionForm", "inclusion", (((2,), "xy"), ((0, 1), "z"))),
}
_LINE_NAMES = {
    "projection": ("first_column", "second_column", "third_column"),
    "inclusion": ("row1", "row2", "row3"),
}


def _predict_nil_sol(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    tag, pattern, routes = NIL_SOL_PATTERNS[domain.kind, codomain.kind]
    lines = mat_transpose(spec.A) if pattern == "projection" else spec.A
    used = sorted({k for zero, _ in routes for k in zero})
    det = {_LINE_NAMES[pattern][k]: [str(v) for v in lines[k]] for k in used}
    for zero, route in routes:
        if all(v == 0 for k in zero for v in lines[k]):
            return Verdict(True, tag, {}, detail={pattern: route, **det})
    return Verdict(False, tag, det)


def conformal_linear_residuals(
    domain: ModelSpace, codomain: ModelSpace, A: RatMatrix, b
) -> list[Expr]:
    """Cleared criterion residuals <A^a, (lam.phi) grad F - F grad(lam.phi)>.

    F and lam are the conformal factors (1 for Euclidean factors); their
    nonvanishing makes vanishing of these polynomials equivalent to the map
    being infinity-harmonic, provided A != 0.
    """
    m, n = domain.dim, codomain.dim
    f = domain.conformal_factor or Expr.const(m, 1)
    lam = codomain.conformal_factor or Expr.const(n, 1)
    comps = materialize(affine_map(A, b))
    lam_phi = substitute(lam, comps)
    df = [partial_derivative(f, j) for j in range(m)]
    dlam = [partial_derivative(lam_phi, j) for j in range(m)]
    out = []
    for a in range(n):
        total = Expr.zero(m)
        for j in range(m):
            if A[a][j] != 0:
                total = total + A[a][j] * (lam_phi * df[j] - f * dlam[j])
        out.append(total)
    return out


def _predict_conformal(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    residuals = conformal_linear_residuals(domain, codomain, spec.A, spec.b)
    ok = all(is_zero(r) for r in residuals)
    named = {f"criterion[{i}]": not is_zero(r) for i, r in enumerate(residuals)}
    return Verdict(harmonic=ok, tag="Unconstrained", residuals={} if ok else named)


def _predict_isometric_immersion(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    if any(v != 0 for v in spec.b):
        raise UnsupportedPairError("sphere-to-sphere prediction covers linear maps (b = 0) only")
    residual = mat_sub(mat_mul(mat_transpose(spec.A), spec.A), mat_identity(domain.dim))
    if mat_is_zero(residual):
        return Verdict(True, "IsometricImmersion", {})
    return Verdict(
        False,
        "IsometricImmersion",
        {"AtA_minus_I": [[str(v) for v in row] for row in residual]},
    )


def _predict_constant_only(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    return Verdict(False, "ConstantMap", {"A": [[str(v) for v in row] for row in spec.A]})


def predict_linear(domain: ModelSpace, codomain: ModelSpace, A, b=None) -> Verdict:
    """Theorem criterion for an affine map A X + b between covered spaces."""
    return predict(domain, codomain, affine_map(A, b))


def _quadratic_then_linear(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    """L2.1: the quadratic part must vanish outright; the linear predictor decides the rest."""
    check = matrix_lemma_condition(spec.quad)
    if not check.all_zero:
        return Verdict(
            False,
            "AffineOnly",
            {"anticommutators_nonzero": not check.holds, "quadratic_nonzero": True},
        )
    return predict(domain, codomain, affine_map(spec.A, spec.b))


def predict_quadratic(
    domain: ModelSpace, codomain: ModelSpace, quads, A=None, b=None
) -> Verdict:
    """Quadratic-family criterion for the pair's COVERAGE entry."""
    return predict(domain, codomain, quadratic_map(quads, A, b))


def predict_holomorphic(cmap: ComplexPolyMap) -> Verdict:
    """Classification of holomorphic polynomial maps.

    For a single complex component the stated criterion is enforced
    literally: harmonic iff constant, or affine with exactly one nonzero
    coefficient whose imaginary part is zero.  Affine maps that fail only
    that normal form are flagged, since their energy density is constant
    and the direct computation will disagree.  For several components the
    verdict delegates to the real and imaginary halves.
    """
    if cmap.n == 1:
        comp = cmap.components[0]
        deg = cpoly_degree(comp)
        if deg == 0:
            return Verdict(True, "ConstantMap", {})
        if deg >= 2:
            return Verdict(False, "Unconstrained", {"degree": deg})
        coeffs = []
        z0 = (Fraction(0), Fraction(0))
        for mono, (re, im) in comp.items():
            if sum(mono) == 0:
                z0 = (re, im)
            else:
                coeffs.append((mono.index(1), re, im))
        if len(coeffs) == 1 and coeffs[0][2] == 0:
            idx, lam, _ = coeffs[0]
            return Verdict(
                True,
                "HomothetyOfProjection",
                {},
                detail={"index": idx + 1, "lambda": str(lam), "z0": f"{z0[0]}+{z0[1]}i"},
            )
        reasons = {}
        if len(coeffs) > 1:
            reasons["multiple_nonzero_coefficients"] = len(coeffs)
        if any(im != 0 for _, _, im in coeffs):
            reasons["imaginary_coefficient"] = True
        return Verdict(
            False,
            "HomothetyOfProjection",
            reasons,
            flags=("affine-rejected-by-stated-criterion",),
        )
    us, vs = realify(cmap)
    dom = build_euclidean(2 * cmap.m)
    cod = build_euclidean(cmap.n)
    u_rep = infinity_tension(dom, cod, custom_map(2 * cmap.m, list(us)))
    v_rep = infinity_tension(dom, cod, custom_map(2 * cmap.m, list(vs)))
    ok = u_rep.is_harmonic and v_rep.is_harmonic
    return Verdict(
        ok,
        "SplitsRealImag",
        {} if ok else {"real_part_harmonic": u_rep.is_harmonic, "imag_part_harmonic": v_rep.is_harmonic},
    )


_CONFORMAL_KINDS = ("euclid", "sphere", "conformal")
_EUCLID_SPHERE = (("euclid", "sphere"), ("sphere", "euclid"))

# The one record of which pairs each family's predictor covers: family (the
# `search --family` names) -> {(domain kind, codomain kind): predictor}.  Every
# predictor takes (domain, codomain, spec) with the spec's dimensions those of
# the pair; a linear one sees a nonzero A only.
COVERAGE = {
    "linear": {
        # L3.1 on every conformally flat pair, then the sharper statements
        **{(d, c): _predict_conformal for d in _CONFORMAL_KINDS for c in _CONFORMAL_KINDS},
        ("euclid", "euclid"): lambda domain, codomain, spec: Verdict(True, "AffineOnly", {}),
        ("sphere", "sphere"): _predict_isometric_immersion,
        **dict.fromkeys(_EUCLID_SPHERE, _predict_constant_only),
        **dict.fromkeys(NIL_SOL_PATTERNS, _predict_nil_sol),
    },
    "quadratic": {
        ("euclid", "euclid"): _quadratic_then_linear,
        ("euclid", "sphere"): _quadratic_then_linear,
        ("euclid", "sol"): _quadratic_then_linear,
        ("euclid", "nil"): _quadratic_then_linear,
        ("sphere", "euclid"): _quadratic_then_linear,
    },
    # the criterion is Euclidean: realification gives a map R^2m -> R^2n
    "holomorphic": {
        ("euclid", "euclid"): lambda domain, codomain, spec: predict_holomorphic(spec.complex_map),
    },
}


def _predictor(family: str, domain: ModelSpace, codomain: ModelSpace):
    predictor = COVERAGE[family].get((domain.kind, codomain.kind))
    if predictor is None:
        raise UnsupportedPairError(f"no {family} predictor covers {domain.label} -> {codomain.label}")
    return predictor


# map kind -> the COVERAGE family that decides it
_FAMILIES = {"affine": "linear", "quadratic": "quadratic", "holomorphic": "holomorphic"}


def predict(domain: ModelSpace, codomain: ModelSpace, spec: MapSpec) -> Verdict:
    """The COVERAGE criterion for the pair, on the map's validated data."""
    family = _FAMILIES.get(spec.kind)
    if family is None:
        raise UnsupportedPairError(f"no predictor for map kind {spec.kind!r}")
    if (spec.domain_dim, spec.codomain_dim) != (domain.dim, codomain.dim):
        raise UnsupportedPairError(
            f"map is R^{spec.domain_dim} -> R^{spec.codomain_dim},"
            f" pair is {domain.label} -> {codomain.label}"
        )
    # a zero matrix is a constant map, harmonic on every pair, covered or not
    if family == "linear" and mat_is_zero(spec.A):
        return Verdict(harmonic=True, tag="ConstantMap", residuals={})
    return _predictor(family, domain, codomain)(domain, codomain, spec)


# ---------------------------------------------------------------------------
# cross-validation


def cross_validate(
    domain: ModelSpace,
    codomain: ModelSpace,
    spec: MapSpec,
    seed: int = 0,
) -> CrossReport:
    """Predicted criterion verdict vs direct tension."""
    try:
        predicted = predict(domain, codomain, spec)
    except UnsupportedPairError:
        predicted = None
    direct = infinity_tension(domain, codomain, spec, seed=seed)
    agree = None if predicted is None else (predicted.harmonic == direct.is_harmonic)
    return CrossReport(predicted=predicted, direct=direct, agree=agree)


def _counterexample(spec: MapSpec, report: CrossReport) -> dict:
    entry = {
        "map": serialize_mapspec(spec),
        "predicted_harmonic": None if report.predicted is None else report.predicted.harmonic,
        "direct_verdict": report.direct.verdict,
        "numeric_ok": report.numeric_ok,
    }
    if report.predicted is not None and report.predicted.flags:
        entry["flags"] = list(report.predicted.flags)
    if report.direct.witness is not None:
        entry["witness"] = report.direct.witness.to_json()
    return entry


def falsify_search(
    family: str, domain: ModelSpace, codomain: ModelSpace, trials: int, seed: int
) -> SearchOutcome:
    """Random-coefficient disagreement hunt for one (family, pair).

    A trial without a predictor checks nothing, so a pair that COVERAGE does
    not list for the family is refused with UnsupportedPairError before the
    first trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if family not in COVERAGE:
        raise ValueError(f"unknown family {family!r}; use linear, quadratic, or holomorphic")
    _predictor(family, domain, codomain)
    counterexamples = []
    for trial in range(trials):
        rng = Random(_child_seed(seed, f"falsify:{family}:{trial}"))
        spec = _sample_family(family, domain, codomain, rng)
        report = cross_validate(domain, codomain, spec, seed=_child_seed(seed, f"cv:{trial}"))
        if report.agree is False:
            counterexamples.append(_counterexample(spec, report))
    return SearchOutcome(
        family=family,
        domain=domain.label,
        codomain=codomain.label,
        trials=trials,
        seed=seed,
        counterexamples=tuple(counterexamples),
    )


def _sample_family(family: str, domain: ModelSpace, codomain: ModelSpace, rng: Random) -> MapSpec:
    m, n = domain.dim, codomain.dim
    if family == "linear":
        return affine_map(rand_matrix(rng, n, m, zero_prob=0.35))
    if family == "quadratic":
        quads = [rand_symmetric(rng, m, zero_prob=0.4) for _ in range(n)]
        if domain.kind == "euclid" and codomain.kind == "euclid":
            return quadratic_map(quads, rand_matrix(rng, n, m, 0.5), [rand_rational(rng) for _ in range(n)])
        return quadratic_map(quads)
    for space in (domain, codomain):
        if space.dim % 2:
            raise UnsupportedPairError(
                "holomorphic maps need even-dimensional Euclidean spaces (C^k = R^2k);"
                f" {space.label} has odd dimension {space.dim}"
            )
    return holomorphic_map(_sample_holomorphic(rng, m // 2, n // 2))


def _sample_holomorphic(rng: Random, m: int, n: int) -> ComplexPolyMap:
    """Sample from the theorem-decidable holomorphic families.

    Single-component maps alternate between the stated normal form
    (lambda z_i + z0 with real lambda, or constants) and maps forced to be
    nonaffine; affine maps outside the normal form are excluded here because
    the stated criterion rejects them while their energy density is constant
    (that gap is flagged by the predictor, not hunted by the campaign).
    Multi-component maps are unrestricted: the split criterion is exact.
    """
    if n > 1:
        return _sample_cpoly_map(rng, m, n, 3)
    if rng.random() < 0.5:
        return _sample_normal_form(rng, m, lambda: rng.random() < 0.7)
    return _sample_nonaffine(rng, m)


def _sample_normal_form(rng: Random, m: int, want_linear) -> ComplexPolyMap:
    """lambda z_i + z0 with real lambda, or a constant z0.

    want_linear() is asked after z0 is drawn; the linear term is also added
    when z0 came out zero.
    """
    poly = {}
    z0 = (rand_rational(rng, 4, 4), rand_rational(rng, 4, 4))
    if z0 != (Fraction(0), Fraction(0)):
        poly[(0,) * m] = z0
    if want_linear() or not poly:
        lam = rand_rational(rng, 4, 4) or Fraction(2)
        idx = rng.randrange(m)
        poly[tuple(1 if k == idx else 0 for k in range(m))] = (lam, Fraction(0))
    return ComplexPolyMap(m=m, n=1, components=(poly,))


def _sample_nonaffine(rng: Random, m: int) -> ComplexPolyMap:
    """One complex component of degree at least 2."""
    comp = dict(_sample_cpoly_map(rng, m, 1, 3).components[0])
    if cpoly_degree(comp) < 2:
        mono = [0] * m
        mono[rng.randrange(m)] = 2
        comp[tuple(mono)] = (rand_rational(rng, 4, 4) or Fraction(1), Fraction(0))
    return ComplexPolyMap(m=m, n=1, components=(comp,))


def _sample_cpoly_map(rng: Random, m: int, n: int, max_deg: int) -> ComplexPolyMap:
    comps = []
    for _ in range(n):
        poly = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(0, max_deg)
            mono = [0] * m
            for _ in range(deg):
                mono[rng.randrange(m)] += 1
            re = rand_rational(rng, 4, 4)
            im = rand_rational(rng, 4, 4) if rng.random() < 0.5 else Fraction(0)
            if re == 0 and im == 0:
                re = Fraction(1)
            mono_t = tuple(mono)
            r0, i0 = poly.get(mono_t, (Fraction(0), Fraction(0)))
            poly[mono_t] = (r0 + re, i0 + im)
        poly = {k: v for k, v in poly.items() if v != (Fraction(0), Fraction(0))}
        if not poly:
            poly = {(0,) * m: (Fraction(1), Fraction(0))}
        comps.append(poly)
    return ComplexPolyMap(m=m, n=n, components=tuple(comps))

# ---------------------------------------------------------------------------
# theorem suites
#
# One campaign per stable theorem id.  Each trial samples from the family
# the statement quantifies over (mixing positive and negative instances) and
# checks predictor/direct agreement, or the stated identity where the check
# is an identity rather than a classification.


def _rng_for(seed: int, theorem: str, trial: int) -> Random:
    return Random(_child_seed(seed, f"suite:{theorem}:{trial}"))


def _agree_trial(domain, codomain, spec, seed, theorem, trial):
    report = cross_validate(
        domain, codomain, spec, seed=_child_seed(seed, f"{theorem}:cv:{trial}")
    )
    ok = report.agree is True
    detail = None if ok else _counterexample(spec, report)
    return ok, detail


def _catalog_space(kind: str, dim: int | None) -> ModelSpace:
    return build_space(kind if kind in ("nil", "sol") else f"{kind}:{dim}")


def _quads(rng: Random, m: int, n: int, zero: bool) -> list[RatMatrix]:
    if zero:
        return [tuple((Fraction(0),) * m for _ in range(m)) for _ in range(n)]
    return [rand_symmetric(rng, m) for _ in range(n)]


def _pure_quadratic(rng: Random, m: int, n: int, zero: bool) -> MapSpec:
    return quadratic_map(_quads(rng, m, n, zero))


def _quadratic_affine(rng: Random, m: int, n: int, zero: bool) -> MapSpec:
    return quadratic_map(
        _quads(rng, m, n, zero), rand_matrix(rng, n, m, 0.3), [rand_rational(rng) for _ in range(n)]
    )


def _linear(rng: Random, m: int, n: int, zero: bool) -> MapSpec:
    return affine_map(tuple((Fraction(0),) * m for _ in range(n)) if zero else rand_matrix(rng, n, m, 0.3))


def _family_suite(theorem: str, m_range, n_range, pairs, zero_period: int, sample):
    """Campaign over one map family whose members are harmonic iff constant.

    Each trial draws m, then n (none for a fixed-dimension codomain), takes
    the next (domain kind, codomain kind) of `pairs`, and samples the zero
    member in the first half of every `zero_period` trials.
    """

    def runner(trial: int, rng: Random, seed: int):
        m = rng.randint(*m_range)
        n = rng.randint(*n_range) if n_range else None
        dkind, ckind = pairs[trial % len(pairs)]
        dom, cod = _catalog_space(dkind, m), _catalog_space(ckind, n)
        spec = sample(rng, m, cod.dim, trial % zero_period < zero_period // 2)
        return _agree_trial(dom, cod, spec, seed, theorem, trial)

    return runner


_suite_t22 = _family_suite("T2.2", (2, 3), (1, 3), (("euclid", "euclid"),), 2, _pure_quadratic)
_suite_t23 = _family_suite("T2.3", (2, 3), (1, 3), (("euclid", "euclid"),), 2, _quadratic_affine)
_suite_t33 = _family_suite("T3.3", (1, 3), (1, 3), _EUCLID_SPHERE, 4, _linear)
_suite_t41 = _family_suite("T4.1", (1, 3), (1, 3), _EUCLID_SPHERE, 4, _pure_quadratic)
_suite_t71 = _family_suite("T7.1", (2, 3), None, (("euclid", "sol"),), 2, _pure_quadratic)
_suite_t72 = _family_suite("T7.2", (2, 3), None, (("euclid", "nil"),), 2, _pure_quadratic)


def _suite_l31(trial: int, rng: Random, seed: int):
    pairs = (
        ("sphere:2", "sphere:2"),
        ("sphere:2", "sphere:3"),
        ("conformal:2:1+x1^2+x2^2", "sphere:2"),
        ("sphere:3", "conformal:2:1+x1^2+x2^2"),
        ("conformal:2:3", "conformal:2:3"),
    )
    dlabel, clabel = pairs[trial % len(pairs)]
    dom, cod = build_space(dlabel), build_space(clabel)
    a = rand_matrix(rng, cod.dim, dom.dim, zero_prob=0.5 if trial % 2 else 1.0)
    spec = affine_map(a)
    lemma_harmonic = mat_is_zero(spec.A) or _predict_conformal(dom, cod, spec).harmonic
    direct = infinity_tension(dom, cod, spec, seed=_child_seed(seed, f"L3.1:{trial}"))
    ok = lemma_harmonic == direct.is_harmonic
    detail = None
    if not ok:
        detail = {
            "pair": (dlabel, clabel),
            "map": serialize_mapspec(spec),
            "criterion_harmonic": lemma_harmonic,
            "direct_verdict": direct.verdict,
        }
    return ok, detail


def _suite_t32(trial: int, rng: Random, seed: int):
    n = rng.randint(2, 3)
    m = rng.randint(1, n)
    dom, cod = build_space(f"sphere:{m}"), build_space(f"sphere:{n}")
    branch = trial % 4
    if branch == 0:
        a = tuple((Fraction(0),) * m for _ in range(n))
    elif branch == 1:
        full = cayley_orthogonal(n, rng)
        a = tuple(row[:m] for row in full)
    elif branch == 2:
        full = cayley_orthogonal(n, rng)
        scale = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-3)])
        a = tuple(tuple(scale * v for v in row[:m]) for row in full)
    else:
        a = rand_matrix(rng, n, m, 0.3)
    spec = affine_map(a)
    return _agree_trial(dom, cod, spec, seed, "T3.2", trial)


def _pattern_matrix(rng: Random, shape: tuple[int, int], rows, cols) -> RatMatrix:
    """Matrix of `shape` that vanishes outside rows x cols and has a nonzero entry inside."""
    a = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    for i in rows:
        for j in cols:
            if rng.random() >= 0.4:
                a[i][j] = rand_rational(rng)
    if all(a[i][j] == 0 for i in rows for j in cols):
        a[rng.choice(rows)][rng.choice(cols)] = rand_rational(rng) or Fraction(1)
    return tuple(tuple(row) for row in a)


def _nil_sol_suite(theorem: str, dkind: str, ckind: str, dims: tuple[int, int]):
    """Campaign over linear maps between Nil or Sol and R^k, k drawn from dims.

    Trials cycle through the zero patterns of NIL_SOL_PATTERNS, then two
    random matrices.
    """
    _, pattern, routes = NIL_SOL_PATTERNS[dkind, ckind]

    def runner(trial: int, rng: Random, seed: int):
        k = rng.randint(*dims)
        dom, cod = _catalog_space(dkind, k), _catalog_space(ckind, k)
        branch = trial % 4
        if branch < len(routes):
            free = tuple(j for j in range(3) if j not in routes[branch][0])
            if pattern == "projection":
                a = _pattern_matrix(rng, (k, 3), range(k), free)
            else:
                a = _pattern_matrix(rng, (3, k), free, range(k))
        else:
            a = rand_matrix(rng, cod.dim, dom.dim, 0.3)
        return _agree_trial(dom, cod, affine_map(a), seed, theorem, trial)

    return runner


_suite_t51 = _nil_sol_suite("T5.1", "nil", "euclid", (2, 3))
_suite_t52 = _nil_sol_suite("T5.2", "euclid", "nil", (2, 4))
_suite_t61 = _nil_sol_suite("T6.1", "sol", "euclid", (2, 3))
_suite_t62 = _nil_sol_suite("T6.2", "euclid", "sol", (2, 4))


def _suite_t81(trial: int, rng: Random, seed: int):
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    if trial % 3 == 0:
        # affine maps: constant energy, all three verdicts must be harmonic
        cmap = _sample_cpoly_map(rng, m, n, 1)
    else:
        cmap = _sample_cpoly_map(rng, m, n, 3)
    us, vs = realify(cmap)
    dom = build_euclidean(2 * m)
    full, upart, vpart = (
        infinity_tension(
            dom, build_euclidean(len(comps)), custom_map(2 * m, list(comps)),
            seed=_child_seed(seed, f"T8.1{part}:{trial}"),
        )
        for part, comps in (("f", us + vs), ("u", us), ("v", vs))
    )
    ok = full.is_harmonic == upart.is_harmonic == vpart.is_harmonic
    detail = None
    if not ok:
        detail = {
            "map": serialize_mapspec(holomorphic_map(cmap)),
            "full": full.verdict,
            "real_part": upart.verdict,
            "imag_part": vpart.verdict,
        }
    return ok, detail


def _suite_t83(trial: int, rng: Random, seed: int):
    m = rng.randint(1, 2)
    if trial % 2 == 0:
        cmap = _sample_normal_form(rng, m, lambda: trial % 4 == 0)
    else:
        cmap = _sample_nonaffine(rng, m)
    dom, cod = build_euclidean(2 * m), build_euclidean(2)
    return _agree_trial(dom, cod, holomorphic_map(cmap), seed, "T8.3", trial)


def _suite_l21(trial: int, rng: Random, seed: int):
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    if trial % 8 == 0:
        mats = [tuple((Fraction(0),) * m for _ in range(m)) for _ in range(n)]
    else:
        mats = [rand_symmetric(rng, m) for _ in range(n)]
        if all(v == 0 for q in mats for row in q for v in row):
            mats[0] = tuple(
                tuple(Fraction(1) if i == j == 0 else Fraction(0) for j in range(m))
                for i in range(m)
            )
    check = matrix_lemma_condition(mats)
    ok = check.holds == check.all_zero
    detail = None
    if not ok:
        detail = {"matrices": [[[str(v) for v in row] for row in q] for q in mats]}
    return ok, detail


def _suite_phm(trial: int, rng: Random, seed: int):
    m, n = rng.randint(1, 3), rng.randint(1, 2)
    quads = [rand_symmetric(rng, m, 0.4) for _ in range(n)]
    a = rand_matrix(rng, n, m, 0.4)
    b = [rand_rational(rng) for _ in range(n)]
    spec = quadratic_map(quads, a, b)
    comps = materialize(spec)
    dom, cod = build_euclidean(m), build_euclidean(n)
    div_form, _ = p_tension(dom, cod, comps, 4)
    composed, _ = phm_composed_p_tension(dom, cod, comps, 4)
    ok = all(is_zero(x - y) for x, y in zip(div_form, composed))
    if ok:
        points = sample_points(m, 5, _child_seed(seed, f"PHM:{trial}"))
        sym_values = zip(*FloatProgram(m, div_form).at_points(points, magnitudes=False)[0])
        for pt, sym_at_pt in zip(points, sym_values):
            fd = fd_p_tension(comps, 4, [float(v) for v in pt])
            for sym_val, fd_val in zip(sym_at_pt, fd):
                if abs(sym_val - fd_val) > 1e-6 * max(1.0, abs(sym_val), abs(fd_val)):
                    ok = False
    detail = None if ok else {"map": serialize_mapspec(spec)}
    return ok, detail


_LEM11_SPACES = (
    "euclid:2",
    "euclid:3",
    "nil",
    "sol",
    "sphere:2",
    "sphere:3",
    "semi-euclid:2:-+",
)


def _random_poly(rng: Random, nvars: int) -> Expr:
    total = Expr.zero(nvars)
    for _ in range(4):
        t = Expr.const(nvars, rand_rational(rng, 4, 4))
        for _ in range(rng.randint(0, 3)):
            t = t * Expr.coord(nvars, rng.randrange(nvars))
        total = total + t
    return total


def _suite_lem11(trial: int, rng: Random, seed: int):
    label = _LEM11_SPACES[trial % len(_LEM11_SPACES)]
    sp = build_space(label)
    u = _random_poly(rng, sp.dim)
    dinf = infinity_laplacian(sp, u)
    hf = hessian_form(sp, u)
    ok = is_zero(hf.clearing * dinf - hf.num)
    if ok and sp.kind == "euclid":
        du = [partial_derivative(u, i) for i in range(sp.dim)]
        coord_form = Expr.zero(sp.dim)
        for i in range(sp.dim):
            for j in range(sp.dim):
                coord_form = coord_form + partial_derivative(du[i], j) * du[i] * du[j]
        ok = is_zero(dinf - coord_form)
    detail = None if ok else {"space": label, "u": str(u)}
    return ok, detail


THEOREMS = {
    "L2.1": ("symmetric-matrix anticommutator condition forces zero matrices", _suite_l21),
    "T2.2": ("pure quadratic maps between Euclidean spaces are harmonic iff constant", _suite_t22),
    "T2.3": ("quadratic+affine maps between Euclidean spaces are harmonic iff affine", _suite_t23),
    "L3.1": ("linear maps between conformally flat spaces: criterion residuals", _suite_l31),
    "T3.2": ("linear sphere-to-sphere maps: constant or isometric immersion", _suite_t32),
    "T3.3": ("linear maps between a Euclidean space and a sphere are harmonic iff constant", _suite_t33),
    "T4.1": ("pure quadratic maps between a Euclidean space and a sphere: constant only", _suite_t41),
    "T5.1": ("linear maps from Nil to Euclidean space: projection patterns", _suite_t51),
    "T5.2": ("linear maps from Euclidean space into Nil: inclusion patterns", _suite_t52),
    "T6.1": ("linear maps from Sol to Euclidean space: projection patterns", _suite_t61),
    "T6.2": ("linear maps from Euclidean space into Sol: inclusion patterns", _suite_t62),
    "T7.1": ("pure quadratic maps into Sol are harmonic iff constant", _suite_t71),
    "T7.2": ("pure quadratic maps into Nil are harmonic iff constant", _suite_t72),
    "T8.1": ("holomorphic maps split: harmonic iff real and imaginary parts are", _suite_t81),
    "T8.3": ("single-component holomorphic maps: real-coefficient projection form", _suite_t83),
    "PHM": ("p-tension identity at p=4 against divergence form and finite differences", _suite_phm),
    "LEM1.1": ("scalar operator consistency: inner-product, coordinate, Hessian forms", _suite_lem11),
}

# The failing trials a suite result lists in full; the rest are only counted.
MAX_FAILURES = 5


def run_suite(theorem: str, trials: int, seed: int) -> SuiteResult:
    """Run one theorem campaign; deterministic for a fixed (trials, seed)."""
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREMS)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    description, runner = THEOREMS[theorem]
    disagreements = 0
    failures = []
    for trial in range(trials):
        rng = _rng_for(seed, theorem, trial)
        ok, detail = runner(trial, rng, seed)
        if not ok:
            disagreements += 1
            if len(failures) < MAX_FAILURES:
                failures.append({"trial": trial, **(detail or {})})
    return SuiteResult(
        theorem=theorem,
        description=description,
        trials=trials,
        seed=seed,
        disagreements=disagreements,
        failures=tuple(failures),
    )

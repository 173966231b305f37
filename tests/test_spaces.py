"""Space catalog: metric data, exact inverses, connection identities."""

from fractions import Fraction

import pytest

from infharm.exprcore import Expr, exp_of, is_zero, partial_derivative, to_string
from infharm.spaces import SpaceError, build_conformal, build_space, christoffel

ALL_LABELS = [
    "euclid:1",
    "euclid:3",
    "semi-euclid:2:-+",
    "sphere:1",
    "sphere:2",
    "sphere:3",
    "conformal:2:1+x1^2+x2^2",
    "nil",
    "sol",
]


def test_euclidean_identity_metric():
    sp = build_space("euclid:3")
    for i in range(3):
        for j in range(3):
            expected = Expr.const(3, 1 if i == j else 0)
            assert sp.g_lower[i][j] == expected
            assert sp.g_upper[i][j] == expected


def test_nil_metric_components():
    nil = build_space("nil")
    xvar = Expr.coord(3, 0)
    assert nil.g_lower[1][1] == Expr.const(3, 1) + xvar * xvar
    assert nil.g_lower[1][2] == -xvar
    assert nil.g_upper[1][2] == xvar
    assert nil.g_upper[2][2] == Expr.const(3, 1) + xvar * xvar


def test_sol_metric_components():
    sol = build_space("sol")
    z = Expr.coord(3, 2)
    assert sol.g_lower[0][0] == exp_of(2 * z)
    assert sol.g_lower[1][1] == exp_of(-2 * z)
    assert sol.g_upper[0][0] == exp_of(-2 * z)
    assert sol.g_upper[1][1] == exp_of(2 * z)


def test_semi_euclidean_signature():
    sp = build_space("semi-euclid:2:-+")
    assert sp.signature == (-1, 1)
    assert sp.g_lower[0][0] == Expr.const(2, -1)
    assert sp.g_lower[1][1] == Expr.const(2, 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sphere_matches_explicit_conformal_factor(m):
    sphere = build_space(f"sphere:{m}")
    factor = "+".join(["1"] + [f"x{i + 1}^2" for i in range(m)])
    conf = build_space(f"conformal:{m}:({factor})/2")
    assert sphere.conformal_factor == conf.conformal_factor
    assert sphere.g_upper == conf.g_upper
    assert sphere.lower_scale == conf.lower_scale


@pytest.mark.parametrize("label", ALL_LABELS)
def test_metric_inverse_identity(label):
    sp = build_space(label)
    d = sp.dim
    for i in range(d):
        for j in range(d):
            total = Expr.zero(d)
            for k in range(d):
                total = total + sp.g_lower[i][k] * sp.g_upper[k][j]
            target = sp.lower_scale if i == j else Expr.zero(d)
            assert is_zero(total - target), (label, i, j, to_string(total))


def test_euclidean_christoffels_vanish():
    table = christoffel(build_space("euclid:3"))
    assert all(
        is_zero(table.gamma[k][i][j]) for k in range(3) for i in range(3) for j in range(3)
    )


def test_sol_christoffel_values():
    table = christoffel(build_space("sol"))
    z = Expr.coord(3, 2)
    assert table.gamma[0][0][2] == Expr.const(3, 1)
    assert table.gamma[1][1][2] == Expr.const(3, -1)
    assert table.gamma[2][0][0] == -exp_of(2 * z)
    assert table.gamma[2][1][1] == exp_of(-2 * z)


def test_nil_christoffel_values():
    table = christoffel(build_space("nil"))
    assert table.gamma[0][1][2] == Expr.const(3, Fraction(1, 2))
    assert table.gamma[1][0][2] == Expr.const(3, Fraction(-1, 2))
    assert table.gamma[0][1][1] == -Expr.coord(3, 0)


def _all_l_christoffel(sp):
    """The direct formula summed over every l, zero inverse-metric entries included."""
    d = sp.dim
    dg = [[[partial_derivative(sp.g_lower[i][j], k) for j in range(d)] for i in range(d)] for k in range(d)]
    gamma = []
    for k in range(d):
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                total = Expr.zero(d)
                for l in range(d):
                    total = total + sp.g_upper[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                row.append(total * Fraction(1, 2))
            rows.append(row)
        gamma.append(rows)
    return gamma


@pytest.mark.parametrize("label", ["nil", "sol", "semi-euclid:3:-++", "euclid:3"])
def test_christoffel_skipping_zero_inverse_entries_keeps_every_table(label):
    sp = build_space(label)
    table = christoffel(sp)
    reference = _all_l_christoffel(sp)
    d = sp.dim
    for k in range(d):
        for i in range(d):
            for j in range(d):
                got, want = table.gamma[k][i][j], reference[k][i][j]
                # storage and key order, not only the value
                assert (got._den, list(got._nums.items())) == (want._den, list(want._nums.items())), (
                    label, k, i, j,
                )


@pytest.mark.parametrize("label", ALL_LABELS)
def test_christoffel_symmetry_and_compatibility(label):
    """Symmetry in the lower pair, and metric compatibility in cleared form:

    s (d_k G_ij D - G_ij d_k D) = D sum_l (gamma^l_ki G_lj + gamma^l_kj G_il)

    where the true metric is G/D and the true symbols are gamma/s.
    """
    sp = build_space(label)
    table = christoffel(sp)
    d = sp.dim
    big_g, big_d, s = sp.g_lower, sp.lower_scale, table.scale
    for k in range(d):
        for i in range(d):
            for j in range(d):
                assert is_zero(table.gamma[k][i][j] - table.gamma[k][j][i])
                lhs = s * (
                    partial_derivative(big_g[i][j], k) * big_d
                    - big_g[i][j] * partial_derivative(big_d, k)
                )
                rhs = Expr.zero(d)
                for l in range(d):
                    rhs = rhs + table.gamma[l][k][i] * big_g[l][j]
                    rhs = rhs + table.gamma[l][k][j] * big_g[i][l]
                assert is_zero(lhs - rhs * big_d), (label, k, i, j)


def test_bad_labels():
    for label in ["bogus", "euclid:0", "euclid:x", "semi-euclid:2:+*", "conformal:2:0"]:
        with pytest.raises(SpaceError):
            build_space(label)


def test_christoffel_cache_reuse():
    sp = build_space("nil")
    assert christoffel(sp) is christoffel(sp)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_kind_is_the_catalog_family(label):
    sp = build_space(label)
    assert sp.kind == label.split(":")[0]
    assert sp.is_conformal == (sp.kind in ("sphere", "conformal"))


def test_kind_does_not_follow_a_custom_label():
    sp = build_conformal(2, Expr.const(2, 3), label="euclid-looking")
    assert sp.kind == "conformal"


def test_build_space_returns_one_instance_per_label():
    for label in ALL_LABELS:
        sp = build_space(label)
        assert build_space(label) is sp
        assert christoffel(build_space(label)) is christoffel(sp)


def test_bad_labels_raise_every_time():
    for label in ("torus:2", "euclid:x", "semi-euclid:2:+*", "conformal:2:x1+"):
        for _ in range(2):
            with pytest.raises(SpaceError):
                build_space(label)

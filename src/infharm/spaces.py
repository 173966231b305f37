"""Catalog of model Riemannian and semi-Riemannian spaces.

Each space carries symbolic metric components, an exact inverse metric, and
Levi-Civita connection coefficients.  Conformally flat spaces (metric
``F^-2 * delta_ij`` for a polynomial factor F) are stored in cleared form:
``g_lower`` holds the identity matrix and ``lower_scale`` holds ``F^2``, so
that the true lower metric is ``g_lower / lower_scale`` while ``g_upper``
(= ``F^2 * delta``) stays polynomial.  Connection coefficients follow the
same pattern: the true symbols are ``gamma / scale``.

Catalog
-------
euclid:m          identity metric on R^m
semi-euclid:m:S   diagonal +-1 metric, S a sign string like "-+"
sphere:m          stereographic chart of the round m-sphere minus a point,
                  F = (1 + |x|^2) / 2
conformal:m:F     R^m with metric F^-2 delta for a user polynomial F
                  (F is claimed nonvanishing on the chart; not verified)
nil               R^3 with dx^2 + dy^2 + (dz - x dy)^2
sol               R^3 with e^{2z} dx^2 + e^{-2z} dy^2 + dz^2

Every builder sets ``ModelSpace.kind`` to the family name above: "euclid",
"semi-euclid", "sphere", "conformal", "nil" or "sol".  Predictors dispatch
on that field, never on the label string.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exprcore import (
    Expr,
    exp_of,
    is_zero,
    parse_expr,
    partial_derivative,
)

Matrix = tuple[tuple[Expr, ...], ...]


class SpaceError(ValueError):
    """Unknown label or ill-formed space construction."""


@dataclass(frozen=True)
class ModelSpace:
    label: str
    kind: str                  # catalog family, see the module docstring
    dim: int
    g_lower: Matrix            # cleared lower metric; true metric = g_lower / lower_scale
    g_upper: Matrix
    lower_scale: Expr
    signature: tuple[int, ...]
    conformal_factor: Expr | None = None
    _christoffel_cache: list = field(default_factory=list, compare=False, repr=False)
    # Float evaluation data that depends only on the space, filled by calculus.
    _numeric_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def is_conformal(self) -> bool:
        return self.conformal_factor is not None


@dataclass(frozen=True)
class ChristoffelTable:
    """Connection coefficients gamma[k][i][j]; true symbols are gamma / scale."""

    gamma: tuple[tuple[tuple[Expr, ...], ...], ...]
    scale: Expr


def _identity(dim: int) -> Matrix:
    return tuple(
        tuple(Expr.const(dim, 1 if i == j else 0) for j in range(dim))
        for i in range(dim)
    )


def _diag(entries: list[Expr]) -> Matrix:
    dim = len(entries)
    zero = Expr.zero(dim)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(dim))
        for i in range(dim)
    )


def build_euclidean(dim: int) -> ModelSpace:
    if dim < 1:
        raise SpaceError(f"dimension must be >= 1, got {dim}")
    eye = _identity(dim)
    return ModelSpace(
        label=f"euclid:{dim}",
        kind="euclid",
        dim=dim,
        g_lower=eye,
        g_upper=eye,
        lower_scale=Expr.const(dim, 1),
        signature=(1,) * dim,
    )


def build_semi_euclidean(dim: int, signature: tuple[int, ...]) -> ModelSpace:
    if dim < 1:
        raise SpaceError(f"dimension must be >= 1, got {dim}")
    if len(signature) != dim or any(s not in (-1, 1) for s in signature):
        raise SpaceError(f"signature must be {dim} entries of +-1, got {signature}")
    diag = _diag([Expr.const(dim, s) for s in signature])
    signs = "".join("+" if s == 1 else "-" for s in signature)
    return ModelSpace(
        label=f"semi-euclid:{dim}:{signs}",
        kind="semi-euclid",
        dim=dim,
        g_lower=diag,
        g_upper=diag,
        lower_scale=Expr.const(dim, 1),
        signature=signature,
    )


def build_conformal(dim: int, factor: Expr, label: str | None = None) -> ModelSpace:
    if dim < 1:
        raise SpaceError(f"dimension must be >= 1, got {dim}")
    if factor.nvars != dim:
        raise SpaceError(
            f"conformal factor uses {factor.nvars} coordinates, space has {dim}"
        )
    if not factor.is_polynomial():
        raise SpaceError("conformal factor must be polynomial")
    if is_zero(factor):
        raise SpaceError("conformal factor must be nonvanishing; got 0")
    f2 = factor * factor
    zero = Expr.zero(dim)
    upper = tuple(
        tuple(f2 if i == j else zero for j in range(dim)) for i in range(dim)
    )
    return ModelSpace(
        label=label or f"conformal:{dim}",
        kind="conformal",
        dim=dim,
        g_lower=_identity(dim),
        g_upper=upper,
        lower_scale=f2,
        signature=(1,) * dim,
        conformal_factor=factor,
    )


def sphere_factor(dim: int) -> Expr:
    """Stereographic conformal factor (1 + |x|^2) / 2."""
    total = Expr.const(dim, 1)
    for i in range(dim):
        xi = Expr.coord(dim, i)
        total = total + xi * xi
    return total * Fraction(1, 2)


def build_sphere(dim: int) -> ModelSpace:
    return replace(build_conformal(dim, sphere_factor(dim), label=f"sphere:{dim}"), kind="sphere")


def build_nil() -> ModelSpace:
    dim = 3
    x = Expr.coord(dim, 0)
    one = Expr.const(dim, 1)
    zero = Expr.zero(dim)
    lower = (
        (one, zero, zero),
        (zero, one + x * x, -x),
        (zero, -x, one),
    )
    upper = (
        (one, zero, zero),
        (zero, one, x),
        (zero, x, one + x * x),
    )
    return ModelSpace(
        label="nil",
        kind="nil",
        dim=dim,
        g_lower=lower,
        g_upper=upper,
        lower_scale=Expr.const(dim, 1),
        signature=(1, 1, 1),
    )


def build_sol() -> ModelSpace:
    dim = 3
    z = Expr.coord(dim, 2)
    e2z = exp_of(2 * z)
    em2z = exp_of(-2 * z)
    one = Expr.const(dim, 1)
    zero = Expr.zero(dim)
    lower = (
        (e2z, zero, zero),
        (zero, em2z, zero),
        (zero, zero, one),
    )
    upper = (
        (em2z, zero, zero),
        (zero, e2z, zero),
        (zero, zero, one),
    )
    return ModelSpace(
        label="sol",
        kind="sol",
        dim=dim,
        g_lower=lower,
        g_upper=upper,
        lower_scale=Expr.const(dim, 1),
        signature=(1, 1, 1),
    )


@functools.cache
def build_space(label: str) -> ModelSpace:
    """Build a catalog space from its label string.

    Memoised per label string: a ``ModelSpace`` is frozen and caches its own
    connection, so a repeated label returns the same instance and reuses its
    Christoffel table.  A bad label is not cached; it raises every time.
    """
    parts = label.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "euclid":
            return build_euclidean(int(parts[1]))
        if kind == "semi-euclid":
            dim = int(parts[1])
            signs = parts[2]
            signature = tuple(1 if ch == "+" else -1 for ch in signs)
            if any(ch not in "+-" for ch in signs):
                raise SpaceError(f"bad signature string {signs!r}")
            return build_semi_euclidean(dim, signature)
        if kind == "sphere":
            return build_sphere(int(parts[1]))
        if kind == "conformal":
            dim = int(parts[1])
            factor = parse_expr(":".join(parts[2:]), dim)
            return build_conformal(dim, factor, label=f"conformal:{dim}:{parts[2]}")
        if kind == "nil":
            return build_nil()
        if kind == "sol":
            return build_sol()
    except (IndexError, ValueError) as exc:
        if isinstance(exc, SpaceError):
            raise
        raise SpaceError(f"malformed space label {label!r}: {exc}") from None
    raise SpaceError(f"unknown space label {label!r}")


CATALOG_EXAMPLES = (
    "euclid:2",
    "euclid:3",
    "semi-euclid:2:-+",
    "sphere:2",
    "sphere:3",
    "conformal:2:(1+x1^2+x2^2)/2",
    "nil",
    "sol",
)


def christoffel(space: ModelSpace) -> ChristoffelTable:
    """Levi-Civita connection coefficients, cached per space instance.

    Conformal spaces use the closed form
    ``gamma^k_ij = -(F_i d_jk + F_j d_ik - F_k d_ij)`` with ``scale = F``;
    everything else uses the direct formula
    ``Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``, summed over
    the nonzero inverse-metric entries only.
    """
    if space._christoffel_cache:
        return space._christoffel_cache[0]
    dim = space.dim
    if space.is_conformal:
        f = space.conformal_factor
        grads = [partial_derivative(f, i) for i in range(dim)]
        zero = Expr.zero(dim)
        gamma = tuple(
            tuple(
                tuple(
                    -(
                        (grads[i] if j == k else zero)
                        + (grads[j] if i == k else zero)
                        - (grads[k] if i == j else zero)
                    )
                    for j in range(dim)
                )
                for i in range(dim)
            )
            for k in range(dim)
        )
        table = ChristoffelTable(gamma=gamma, scale=f)
    else:
        dg = [
            [[partial_derivative(space.g_lower[i][j], k) for j in range(dim)] for i in range(dim)]
            for k in range(dim)
        ]
        half = Fraction(1, 2)
        gamma_rows = []
        for k in range(dim):
            rows = []
            for i in range(dim):
                row = []
                for j in range(dim):
                    total = Expr.zero(dim)
                    for l in range(dim):
                        gkl = space.g_upper[k][l]
                        if gkl:
                            total = total + gkl * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    row.append(total * half)
                rows.append(tuple(row))
            gamma_rows.append(tuple(rows))
        gamma = tuple(gamma_rows)
        table = ChristoffelTable(gamma=gamma, scale=Expr.const(dim, 1))
    space._christoffel_cache.append(table)
    return table

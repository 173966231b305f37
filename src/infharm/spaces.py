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
on that field, never on the label string.  One constructor, ``_space``,
builds every space; ``euclid:m`` and ``sphere:m`` relabel a semi-Euclidean
and a conformal space.  A label with other parts than above is refused.

A space holds its metric only.  It compares and hashes by identity, so each
table derived from the metric (``christoffel`` here, and the tables that
``calculus`` evaluates with) is a ``functools.cache`` function keyed by the
space object: computed once per space, and kept for the life of the process.
``build_space`` memoises on the parsed label, so every spelling of one space
("NIL", " nil", "sphere:02") is that one object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
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


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """A chart's metric; equal only to itself, so caches key on the space object."""

    label: str
    kind: str                  # catalog family, see the module docstring
    dim: int
    g_lower: Matrix            # cleared lower metric; true metric = g_lower / lower_scale
    g_upper: Matrix
    lower_scale: Expr
    signature: tuple[int, ...]
    conformal_factor: Expr | None = None

    @property
    def is_conformal(self) -> bool:
        return self.conformal_factor is not None


@dataclass(frozen=True)
class ChristoffelTable:
    """Connection coefficients gamma[k][i][j]; true symbols are gamma / scale."""

    gamma: tuple[tuple[tuple[Expr, ...], ...], ...]
    scale: Expr


def _diag(entries: list[Expr]) -> Matrix:
    dim = len(entries)
    zero = Expr.zero(dim)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(dim))
        for i in range(dim)
    )


def _space(label: str, kind: str, g_lower: Matrix, g_upper: Matrix, **fields) -> ModelSpace:
    """The one ``ModelSpace`` constructor: unit ``lower_scale`` and all-plus signature by default."""
    dim = len(g_lower)
    fields.setdefault("lower_scale", Expr.const(dim, 1))
    fields.setdefault("signature", (1,) * dim)
    return ModelSpace(label=label, kind=kind, dim=dim, g_lower=g_lower, g_upper=g_upper, **fields)


@functools.cache
def build_euclidean(dim: int) -> ModelSpace:
    return replace(build_semi_euclidean(dim, (1,) * dim), label=f"euclid:{dim}", kind="euclid")


def build_semi_euclidean(dim: int, signature: tuple[int, ...]) -> ModelSpace:
    if dim < 1:
        raise SpaceError(f"dimension must be >= 1, got {dim}")
    if len(signature) != dim or any(s not in (-1, 1) for s in signature):
        raise SpaceError(f"signature must be {dim} entries of +-1, got {signature}")
    diag = _diag([Expr.const(dim, s) for s in signature])
    signs = "".join("+" if s == 1 else "-" for s in signature)
    return _space(f"semi-euclid:{dim}:{signs}", "semi-euclid", diag, diag, signature=signature)


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
    return _space(
        label or f"conformal:{dim}",
        "conformal",
        _diag([Expr.const(dim, 1)] * dim),
        _diag([f2] * dim),
        lower_scale=f2,
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
    return _space("nil", "nil", lower, upper)


def build_sol() -> ModelSpace:
    dim = 3
    z = Expr.coord(dim, 2)
    e2z = exp_of(2 * z)
    em2z = exp_of(-2 * z)
    one = Expr.const(dim, 1)
    return _space("sol", "sol", _diag([e2z, em2z, one]), _diag([em2z, e2z, one]))


# The form of each catalog label; a label has exactly the parts of its form.
_LABEL_FORMS = {
    "euclid": "euclid:<m>", "semi-euclid": "semi-euclid:<m>:<signs>", "sphere": "sphere:<m>",
    "conformal": "conformal:<m>:<F>", "nil": "nil", "sol": "sol",
}


def build_space(label: str) -> ModelSpace:
    """Build a catalog space from its label string.

    Memoised on the parsed label: every spelling of one space ("NIL" and
    "nil", "sphere:02" and " sphere:2") returns the same instance, and so
    every table cached for it.  A bad label raises every time, and so does a
    label with more or fewer parts than its family takes.
    """
    parts = label.strip().split(":")
    kind = parts[0].lower()
    form = _LABEL_FORMS.get(kind)
    if form is None:
        raise SpaceError(f"unknown space label {label!r}")
    if len(parts) != form.count(":") + 1:
        raise SpaceError(f"malformed space label {label!r}: expected {form}")
    try:
        return _parsed_space(kind, *map(int, parts[1:2]), *parts[2:])
    except ValueError as exc:
        if isinstance(exc, SpaceError):
            raise
        raise SpaceError(f"malformed space label {label!r}: {exc}") from None


@functools.cache
def _parsed_space(kind: str, dim: int | None = None, text: str = "") -> ModelSpace:
    """The space of a parsed label: its family, its dimension and its signs or factor text."""
    if kind == "euclid":
        return build_euclidean(dim)
    if kind == "semi-euclid":
        if any(ch not in "+-" for ch in text):
            raise SpaceError(f"bad signature string {text!r}")
        return build_semi_euclidean(dim, tuple(1 if ch == "+" else -1 for ch in text))
    if kind == "sphere":
        return build_sphere(dim)
    if kind == "conformal":
        return build_conformal(dim, parse_expr(text, dim), label=f"conformal:{dim}:{text}")
    return build_nil() if kind == "nil" else build_sol()


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


@functools.cache
def christoffel(space: ModelSpace) -> ChristoffelTable:
    """Levi-Civita connection coefficients, computed once per space.

    Conformal spaces use the closed form
    ``gamma^k_ij = -(F_i d_jk + F_j d_ik - F_k d_ij)`` with ``scale = F``;
    everything else uses the direct formula
    ``Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)``, summed over
    the nonzero inverse-metric entries only.
    """
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
        return ChristoffelTable(gamma=gamma, scale=f)
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
    return ChristoffelTable(gamma=tuple(gamma_rows), scale=Expr.const(dim, 1))

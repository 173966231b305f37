"""Per-space tables, the one TensionReport constructor, and a golden digest of report fields."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from infharm import calculus, classify
from infharm.calculus import (
    TensionReport,
    Witness,
    _codomain_metric,
    _domain_metric,
    _find_witness,
    _prime_metric,
    _tension_components,
    infinity_tension,
)
from infharm.exprcore import Expr, UnsupportedExpressionError, is_zero, parse_expr, to_string
from infharm.mapspec import affine_map, custom_map, quadratic_map
from infharm.spaces import CATALOG_EXAMPLES, build_conformal, build_space, christoffel

from conftest import random_polynomial

TABLES = (christoffel, _domain_metric, _codomain_metric, _prime_metric)
FIELDS = ("components", "tension_clearing", "energy_density", "energy_clearing", "witness")
E1, SOL = build_space("euclid:1"), build_space("sol")


class TestPerSpaceTables:
    @pytest.mark.parametrize("label", CATALOG_EXAMPLES)
    def test_each_table_is_built_once_per_space(self, label):
        sp = build_space(label)
        for table in TABLES:
            assert table(sp) is table(sp), (label, table.__name__)

    @pytest.mark.parametrize("label", CATALOG_EXAMPLES)
    def test_a_space_is_equal_only_to_itself(self, label):
        sp = build_space(label)
        twin = replace(sp)
        assert sp == sp and hash(sp) == object.__hash__(sp)
        assert twin != sp and twin.g_upper == sp.g_upper

    def test_equal_metrics_give_distinct_spaces_with_equal_tables(self):
        factor = parse_expr("1 + x1^2 + x2^2", 2)
        a, b = build_conformal(2, factor), build_conformal(2, factor)
        assert a is not b and a != b
        assert christoffel(a) is not christoffel(b) and christoffel(a) == christoffel(b)
        assert _domain_metric(a) == _domain_metric(b)
        assert _codomain_metric(a)[:3] == _codomain_metric(b)[:3]
        assert _prime_metric(a) == _prime_metric(b) is not None

    @pytest.mark.parametrize("label", CATALOG_EXAMPLES)
    def test_the_domain_entries_are_the_nonzero_inverse_metric_entries(self, label):
        sp = build_space(label)
        m = sp.dim
        nonzero = tuple((i, j) for i in range(m) for j in range(m) if not is_zero(sp.g_upper[i][j]))
        assert _domain_metric(sp)[1] == nonzero


def _spy(monkeypatch, name):
    calls = []
    original = getattr(calculus, name)
    monkeypatch.setattr(calculus, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _kinds():
    """A prime-route "nonzero", a symbolic "zero", a prime-route "nonzero" on Sol, one outside the class."""
    square = parse_expr("x1^2", 1)
    return {
        "prime": (E1, E1, quadratic_map([[[1]]])),
        "zero": (E1, E1, affine_map([[2]], [1])),
        "sol": (E1, SOL, custom_map(1, [square, Expr.zero(1), Expr.zero(1)])),
        "fallback": (E1, SOL, custom_map(1, [parse_expr("cos(x1)", 1), Expr.zero(1), parse_expr("sin(x1)", 1)])),
    }


class TestOneConstructor:
    def test_the_fields_of_each_kind_of_report(self):
        x = Expr.coord(1, 0)
        kinds = _kinds()
        prime = infinity_tension(*kinds["prime"])
        assert (prime.verdict, prime.mode) == ("nonzero", "exact")
        assert prime.components == (16 * x**2,) and prime.tension_clearing == Expr.const(1, 1)
        assert prime.energy_density == 4 * x**2 and prime.energy_clearing == Expr.const(1, 1)
        assert prime.witness == Witness(point=(Fraction(1),), component=0, value=16.0)

        zero = infinity_tension(*kinds["zero"])
        assert (zero.verdict, zero.mode, zero.witness) == ("zero", "exact", None)
        assert all(is_zero(c) for c in zero.components)
        assert zero.energy_density == Expr.const(1, 4)

        dom, cod, spec = kinds["sol"]
        sol = infinity_tension(dom, cod, spec)
        components, clearing, energy = _tension_components(dom, cod, calculus._components_of(spec))
        assert (sol.verdict, sol.mode) == ("nonzero", "exact")
        assert (sol.components, sol.tension_clearing) == (components, clearing)
        assert (sol.energy_density, sol.energy_clearing) == (energy.num, energy.clearing)
        assert sol.witness == _find_witness(components, 1)

        fallback = infinity_tension(*kinds["fallback"])
        assert (fallback.verdict, fallback.mode) == ("nonzero", "exact")
        assert [getattr(fallback, name) for name in FIELDS[:4]] == [None] * 4
        assert isinstance(fallback.witness, Witness) and fallback.witness.component in (0, 1, 2)

    def test_the_sol_witness_is_searched_for_on_first_read_only(self, monkeypatch):
        searches = _spy(monkeypatch, "_find_witness")
        report = infinity_tension(*_kinds()["sol"])
        assert report.verdict == "nonzero" and "components" not in vars(report)
        assert searches == [] and "witness" not in vars(report)
        witness = report.witness
        assert len(searches) == 1
        assert report.witness is witness and len(searches) == 1

    def test_a_map_that_neither_route_decides_is_refused(self, monkeypatch):
        # PRIME divides a coefficient's denominator, so the prime point route refuses this
        # map, and e^{2 sin x1} leaves the decidable class: no exact route decides it.
        p = calculus.PRIME
        refused = custom_map(1, [parse_expr(f"{p + 1}/{p}*cos(x1)", 1), Expr.zero(1), parse_expr("sin(x1)", 1)])
        built = []
        init = calculus.NumericTension.__init__
        monkeypatch.setattr(calculus.NumericTension, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        for decide in (infinity_tension, classify.cross_validate):
            with pytest.raises(UnsupportedExpressionError, match=(
                r"^cannot decide: substitution produced a non-polynomial exponent 2\*sin\(x1\)"
                r" in the tension, and the prime point route did not decide it$"
            )):
                decide(E1, SOL, refused)
        assert built == []

    def test_an_unknown_field_is_refused(self):
        source = (E1, E1, (Expr.coord(1, 0),))
        with pytest.raises(TypeError, match="unexpected keyword argument 'residues'"):
            TensionReport("zero", source, residues=())
        with pytest.raises(TypeError, match="unexpected keyword argument '_expansion'"):
            TensionReport("zero", source, _expansion=None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'is_harmonic'"):
            TensionReport("zero", source, is_harmonic=True)


def _render(e):
    return None if e is None else to_string(e)


def _golden_corpus():
    """Every ordered pair of catalog spaces with two small polynomial maps, then fallback runs."""
    rng = Random(2023)
    for dlabel in CATALOG_EXAMPLES:
        for clabel in CATALOG_EXAMPLES:
            dom, cod = build_space(dlabel), build_space(clabel)
            for _ in range(2):
                comps = [random_polynomial(rng, dom.dim, max_deg=2, terms=2) for _ in range(cod.dim)]
                yield dom, cod, custom_map(dom.dim, comps)
    trig = (("cos(x1)", "x2", "sin(x2)"), ("x1*x2", "cos(x2)", "cos(x1) + x2"), ("sin(x1)", "x1 - x2", "x1*cos(x2)"))
    for texts in trig:
        yield build_space("euclid:2"), SOL, custom_map(2, [parse_expr(t, 2) for t in texts])
    s = "(x1 + 3/5*x2 + 4/5*x3)"
    null = [parse_expr(f"{s}^2", 3), Expr.zero(3), parse_expr(f"exp({s})", 3)]
    yield build_space("semi-euclid:3:-++"), SOL, custom_map(3, null)


def test_golden_report_digest():
    digest = hashlib.sha256()
    kinds = {}
    for dom, cod, spec in _golden_corpus():
        rep = infinity_tension(dom, cod, spec)
        comps = None if rep.components is None else [to_string(c) for c in rep.components]
        fields = (
            rep.verdict, rep.mode, comps, _render(rep.tension_clearing),
            _render(rep.energy_density), _render(rep.energy_clearing), repr(rep.witness),
        )
        kinds[rep.verdict, rep.mode] = kinds.get((rep.verdict, rep.mode), 0) + 1
        digest.update(repr(fields).encode() + b"\n")
    assert kinds == {("nonzero", "exact"): 122, ("zero", "exact"): 10}
    assert digest.hexdigest() == "a76b38bf461477b635c356dcabd51643e1eaeaaef37fb1527f56dc67cae2d178"

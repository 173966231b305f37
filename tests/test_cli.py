"""CLI surface: exit codes, report determinism, expression round-trips."""

import json

import pytest

from infharm import classify
from infharm.cli import build_parser, main
from infharm.exprcore import parse_expr
from infharm.mapspec import parse_mapspec, serialize_mapspec


def write_map(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def proj_map(tmp_path):
    return write_map(tmp_path, "projyz.json", {"kind": "affine", "A": [[0, 1, 0], [0, 0, 1]]})


@pytest.fixture
def square_map(tmp_path):
    return write_map(tmp_path, "xsquared.json", {"kind": "quadratic", "quad": [[[1]]]})


@pytest.fixture
def trig_map(tmp_path):
    return write_map(
        tmp_path,
        "trig.json",
        {
            "kind": "custom",
            "m": 3,
            "components": ["cos(x1)+cos(x2)+cos(x3)", "sin(x1)+sin(x2)+sin(x3)"],
        },
    )


class TestCheck:
    def test_harmonic_exit_zero(self, proj_map, capsys):
        code = main(["check", "--domain", "nil", "--codomain", "euclid:2", "--map", proj_map])
        out = capsys.readouterr().out
        assert code == 0
        assert "x1^2 + 2" in out
        assert "verdict: zero" in out

    def test_nonharmonic_exit_one(self, square_map, capsys):
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", square_map])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness" in out

    def test_trig_map(self, trig_map, capsys):
        code = main(["check", "--domain", "euclid:3", "--codomain", "euclid:2", "--map", trig_map])
        out = capsys.readouterr().out
        assert code == 0
        assert "energy density: 3" in out

    def test_a_nonzero_map_with_no_witness_exits_two(self, tmp_path, capsys):
        # The tension of exp(800 + x1^2) overflows at every candidate, so no value is finite.
        huge = write_map(tmp_path, "huge.json", {"kind": "custom", "m": 1, "components": ["exp(800 + x1^2)"]})
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", huge])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "no witness point found" in captured.err

    def test_a_tension_with_small_coefficients_has_a_witness(self, tmp_path, capsys):
        # The tension 16/10^12 x1^2 is far below 1e-9, but not below 1e-9 times its largest term.
        tiny = write_map(tmp_path, "tiny.json", {"kind": "custom", "m": 1, "components": ["x1^2/1000000"]})
        out_json = tmp_path / "tiny.out"
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", tiny, "--json", str(out_json)])
        assert code == 1
        witness = json.loads(out_json.read_text())["witness"]
        assert witness == {"point": ["1"], "component": 0, "value": 1.6e-17}

    def test_unknown_space_exit_two(self, trig_map, capsys):
        code = main(["check", "--domain", "nope", "--codomain", "euclid:2", "--map", trig_map])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_map_exit_two(self, tmp_path, capsys):
        bad = write_map(tmp_path, "bad.json", {"kind": "quadratic", "quad": [[[0, 1], [0, 0]]]})
        code = main(["check", "--domain", "euclid:2", "--codomain", "euclid:1", "--map", bad])
        assert code == 2
        assert "quad[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"kind": "custom", "m": 1, "components": ["1.2.3*x1"]}, "components[0]"),
            ({"kind": "custom", "m": 1, "components": ["x1", 7]}, "components[1]"),
            ({"kind": "holomorphic", "m": 1, "complex": [None]}, "complex[0]"),
            # JSON true is not the integer 1, though Python's bool is an int.
            ({"kind": "custom", "m": True, "components": ["x1"]}, "error: m: "),
            ({"kind": "holomorphic", "m": True, "complex": ["z"]}, "error: m: "),
            ({"kind": "custom", "m": 1, "components": ["exp(exp(x1))"]}, "components[0]: exponentials"),
            # A superscript digit passes str.isdigit() but not int().
            ({"kind": "custom", "m": 1, "components": ["x1^\u00b2"]}, "components[0]"),
            ({"kind": "custom", "m": 1, "components": ["x\u00b2"]}, "components[0]"),
            ({"kind": "holomorphic", "m": 2, "complex": ["z2\u00b2"]}, "complex[0]"),
            # Past 4,300 digits int() refuses to read a string at all.
            ({"kind": "custom", "m": 1, "components": ["x1^" + "0" * 4400]}, "components[0]"),
            ({"kind": "custom", "m": 1, "components": ["x" + "1" * 4400]}, "components[0]"),
            ({"kind": "holomorphic", "m": 1, "complex": ["z" + "1" * 4400]}, "complex[0]"),
            # A power is refused before it is expanded when it may have too many terms.
            ({"kind": "custom", "m": 3, "components": ["(x1+x2+x3+1)^100"]}, "components[0]: a power ^100"),
            ({"kind": "holomorphic", "m": 4, "complex": ["(z1+z2+z3+z4+1)^60"]}, "complex[0]: a power ^60"),
            # ... or when its coefficients may be longer than int() reads.
            ({"kind": "custom", "m": 2, "components": ["(x1+x2)^15000"]}, "components[0]: a power ^15000"),
            ({"kind": "custom", "m": 1, "components": ["2^20000000"]}, "components[0]: a power ^20000000"),
            ({"kind": "holomorphic", "m": 1, "complex": ["2^20000000"]}, "complex[0]: a power ^20000000"),
        ],
    )
    def test_malformed_component_exit_two(self, tmp_path, capsys, doc, path):
        bad = write_map(tmp_path, "bad.json", doc)
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", bad])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"kind": "affine", "A": [[1, 2]], "b": 5},
        {"kind": "affine", "A": [[1, 2]], "b": "12"},
        {"kind": "affine", "A": [[1, 2]], "b": {"a": 1}},
        {"kind": "affine", "A": [[1, 2]], "b": None},
        {"kind": "quadratic", "quad": [[[1, 0], [0, 0]]], "b": 5},
    ])
    def test_b_that_is_not_a_list_exit_two(self, tmp_path, capsys, doc):
        bad = write_map(tmp_path, "bad.json", doc)
        code = main(["check", "--domain", "euclid:2", "--codomain", "euclid:1", "--map", bad])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error: b: expected a list of entries" in captured.err

    def test_numeric_fallback_above_the_dimension_cap_exit_two(self, tmp_path, capsys):
        # cos into Sol leaves the decidable class, and the numeric fallback
        # refuses a domain of more than 12 dimensions.
        doc = {"kind": "custom", "m": 13, "components": ["x1", "x2", "cos(x1)"]}
        path = write_map(tmp_path, "wide.json", doc)
        code = main(["check", "--domain", "euclid:13", "--codomain", "sol", "--map", path])
        assert code == 2
        assert "at most 12 dimensions; euclid:13 has 13" in capsys.readouterr().err

    def test_padding_into_sol(self, square_map, capsys):
        # too few components is an input error unless --pad is given
        code = main(["check", "--domain", "euclid:1", "--codomain", "sol", "--map", square_map])
        assert code == 2
        capsys.readouterr()
        code = main(
            ["check", "--domain", "euclid:1", "--codomain", "sol", "--map", square_map, "--pad"]
        )
        assert code == 1
        assert "nonzero" in capsys.readouterr().out

    @pytest.mark.parametrize("domain, codomain, verdict", [
        ("sphere:2", "sphere:2", "nonzero"),
        ("semi-euclid:2:-+", "euclid:2", "zero"),
    ])
    def test_holomorphic_off_euclidean_pairs_has_no_prediction(self, tmp_path, capsys, domain, codomain, verdict):
        path = write_map(tmp_path, "holo.json", {"kind": "holomorphic", "m": 1, "complex": ["2*z1"]})
        report = tmp_path / "report.json"
        code = main(["check", "--domain", domain, "--codomain", codomain, "--map", path, "--json", str(report)])
        out = capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert code == (0 if verdict == "zero" else 1)
        assert doc["verdict"] == verdict
        assert doc["predicted"] is None and doc["agree"] is None
        assert "predicted:" not in out

    def test_holomorphic_on_euclidean_pair_is_predicted(self, tmp_path, capsys):
        path = write_map(tmp_path, "holo.json", {"kind": "holomorphic", "m": 1, "complex": ["2*z1"]})
        code = main(["check", "--domain", "euclid:2", "--codomain", "euclid:2", "--map", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted: harmonic [HomothetyOfProjection] -- agrees" in out

    def test_affine_holomorphic_map_outside_the_normal_form_is_flagged(self, tmp_path, capsys):
        path = write_map(tmp_path, "holo.json", {"kind": "holomorphic", "m": 1, "complex": ["i*z1"]})
        code = main(["check", "--domain", "euclid:2", "--codomain", "euclid:2", "--map", path])
        assert code == 0
        assert "note: affine-rejected-by-stated-criterion" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("text, path", [
        ("{not json", "$: invalid JSON"),
        ("[1, 2]", "$: expected a JSON object"),
        ('{"kind": "affine"}', "A: missing required field"),
        ('{"kind": "affine", "A": [1, 2]}', "A: expected a list of rows"),
        ('{"kind": "affine", "A": [[1, 2], [3]]}', "A[1]: expected 2 entries"),
        ('{"kind": "quadratic", "quad": []}', "quad: expected a nonempty list"),
        ('{"kind": "quadratic", "quad": [[[1, 0], [0, 1]], [[1]]]}', "quad[1]: expected 2x2 matrix"),
        ('{"kind": "quadratic", "quad": [[[1, 0], [0, 1]]], "A": [[1, 2, 3]]}', "A: expected 1x2 matrix"),
        ('{"kind": "quadratic", "quad": [[[1, 0], [0, 1]]], "b": [1, 2]}', "b: expected 1 entries"),
        ('{"kind": "custom", "m": 2, "components": []}', "components: expected a nonempty list"),
        ('{"kind": "holomorphic", "m": 1, "complex": []}', "complex: expected a nonempty list"),
        # A row with no entries would make a map out of R^0.
        ('{"kind": "affine", "A": [[]]}', "A[0]: expected a row with at least one entry"),
        # ... while a document refused before keeps its message.
        ('{"kind": "affine", "A": [[], [1]]}', "A[1]: expected 0 entries, got 1"),
        ('{"kind": "affine", "A": [[]], "b": [1, 2]}', "b: expected 1 entries, got 2"),
        ('{"kind": "quadratic", "quad": [[[]]]}', "quad[0]: expected 1x1 matrix"),
        # A field the kind does not take is refused, not dropped.
        ('{"kind": "affine", "A": [[1, 0], [0, 1]], "quad": [[[1]]]}', "quad: affine maps take no such field"),
        ('{"kind": "quadratic", "quad": [[[1, 0], [0, 1]]], "m": 2}', "m: quadratic maps take no such field"),
        ('{"kind": "custom", "m": 2, "components": ["x1"], "componets": ["x2"]}', "componets: custom maps take no"),
        ('{"kind": "holomorphic", "m": 1, "complex": ["z1"], "A": [[1]]}', "A: holomorphic maps take no such"),
        # ... after every other field is read.
        ('{"kind": "affine", "quad": [[[1]]]}', "A: missing required field"),
    ])
    def test_malformed_document_exit_two(self, tmp_path, capsys, text, path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["check", "--domain", "euclid:2", "--codomain", "euclid:2", "--map", str(bad)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {path}" in captured.err

    @pytest.mark.parametrize("label, problem", [
        ("semi-euclid:2:+", "signature must be 2 entries of +-1"),
        ("conformal:0:1", "dimension must be >= 1, got 0"),
        ("conformal:2:exp(x1)", "conformal factor must be polynomial"),
        ("nil:3", "'nil:3': expected nil"),
        ("semi-euclid:2:-+:7", "'semi-euclid:2:-+:7': expected semi-euclid:<m>:<signs>"),
    ])
    def test_bad_space_label_exit_two(self, proj_map, capsys, label, problem):
        code = main(["check", "--domain", label, "--codomain", "euclid:2", "--map", proj_map])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert problem in captured.err

    @pytest.mark.parametrize("doc, problem", [
        ({"kind": "affine", "A": [["1e5000"]]}, "A[0][0]: the value of rational '1e5000'"),
        ({"kind": "affine", "A": [["1e-5000"]]}, "A[0][0]: the value of rational '1e-5000'"),
        ({"kind": "affine", "A": [["1e10000000"]]}, "A[0][0]: the value of rational '1e10000000'"),
        # The map reads, but its energy density 10^8000 cannot be written out.
        ({"kind": "affine", "A": [["1e4000"]]}, "a coefficient has more than 4300 digits"),
        ({"kind": "custom", "m": 1, "components": ["1" * 2201 + "*x1"]}, "a coefficient has more than 4300 digits"),
    ])
    def test_numbers_past_the_digit_limit_exit_two(self, tmp_path, capsys, doc, problem):
        path = write_map(tmp_path, "huge.json", doc)
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert problem in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["check", "tension"])
    @pytest.mark.parametrize("doc", [
        {"kind": "quadratic", "quad": [[["1e300"]]], "A": [["0"]]},
        {"kind": "custom", "m": 1, "components": ["10^300*x1^2"]},
    ])
    def test_coefficients_past_the_float_range_exit_two(self, tmp_path, capsys, command, doc):
        # The tension 16*10^900*x1^2 is exact, but its witness search cannot evaluate it in floats.
        path = write_map(tmp_path, "huge.json", doc)
        code = main([command, "--domain", "euclid:1", "--codomain", "euclid:1", "--map", path])
        captured = capsys.readouterr()
        assert code == 2 and "verdict:" not in captured.out
        assert "beyond the float range" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["check", "tension"])
    def test_exact_is_the_only_mode(self, tmp_path, capsys, command, square_map, proj_map):
        # A sampled zero test took the tiny tension of x1^2/1000000 for zero.
        tiny = write_map(tmp_path, "tiny.json", {"kind": "custom", "m": 1, "components": ["x1^2/1000000"]})
        with pytest.raises(SystemExit) as refused:
            main([command, "--mode", "numeric", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", tiny])
        captured = capsys.readouterr()
        assert refused.value.code == 2 and captured.out == ""
        assert "invalid choice: 'numeric'" in captured.err
        for domain, codomain, path in (("euclid:1", "euclid:1", square_map), ("nil", "euclid:2", proj_map)):
            runs = []
            for flags in ([], ["--mode", "exact"]):
                report = tmp_path / "report.json"
                code = main([command, *flags, "--domain", domain, "--codomain", codomain,
                             "--map", path, "--json", str(report)])
                doc = json.loads(report.read_text())
                del doc["elapsed_s"]
                runs.append((code, doc, capsys.readouterr().out))
            assert runs[0] == runs[1]
            assert runs[0][1]["invocation"][-2:] == ["--mode", "exact"]


class TestEnergy:
    def test_nil_example(self, tmp_path, capsys):
        path = write_map(
            tmp_path,
            "nilmap.json",
            {"kind": "custom", "m": 3, "components": ["x3 - x1*x2/2", "2*x3 - x1*x2"]},
        )
        code = main(["energy", "--domain", "nil", "--codomain", "euclid:2", "--map", path])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "5/4*x1^2 + 5/4*x2^2 + 5"

    def test_semi_euclidean_zero(self, tmp_path, capsys):
        path = write_map(
            tmp_path,
            "semi.json",
            {"kind": "quadratic", "quad": [[[12, 0], [0, 12]], [[13, 5], [5, 13]]]},
        )
        code = main(
            ["energy", "--domain", "semi-euclid:2:-+", "--codomain", "semi-euclid:2:-+", "--map", path]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_a_null_map_into_sol_has_zero_energy(self, tmp_path, capsys):
        # (s^2, 0, e^s) with s null meets no codomain entry, so e^{2 y3} is never composed.
        s = "(x1 + 3/5*x2 + 4/5*x3)"
        path = write_map(tmp_path, "null.json", {"kind": "custom", "m": 3, "components": [f"{s}^2", "0", f"exp({s})"]})
        code = main(["energy", "--domain", "semi-euclid:3:-++", "--codomain", "sol", "--map", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_identity_euclid4(self, tmp_path, capsys):
        path = write_map(
            tmp_path,
            "id4.json",
            {"kind": "affine", "A": [[1 if i == j else 0 for j in range(4)] for i in range(4)]},
        )
        code = main(["energy", "--domain", "euclid:4", "--codomain", "euclid:4", "--map", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_sphere_codomain_prints_the_quotient(self, tmp_path, capsys):
        path = write_map(tmp_path, "line.json", {"kind": "affine", "A": [[1]]})
        code = main(["energy", "--domain", "euclid:1", "--codomain", "sphere:1", "--map", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "(1) / (1/4*x1^4 + 1/2*x1^2 + 1/4)"


class TestReports:
    def test_json_report_quality(self, tmp_path, proj_map, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "check",
                "--domain", "nil",
                "--codomain", "euclid:2",
                "--map", proj_map,
                "--json", str(report_path),
                "--seed", "3",
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(report_path.read_text())
        # round trip: the report is plain JSON and reloads to itself
        assert json.loads(json.dumps(doc)) == doc
        # rendered expressions re-parse to structurally equal values
        energy = parse_expr(doc["energy_density"], 3)
        assert energy == parse_expr("x1^2 + 2", 3)
        for comp in doc["tension_components"]:
            parse_expr(comp, 3)
        # embedded map document re-parses to the same spec
        assert serialize_mapspec(parse_mapspec(doc["map"])) == doc["map"]

    def test_determinism_modulo_timing(self, tmp_path, square_map, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"r{i}.json"
            main(
                [
                    "check",
                    "--domain", "euclid:1",
                    "--codomain", "euclid:1",
                    "--map", square_map,
                    "--json", str(p),
                    "--seed", "11",
                ]
            )
            paths.append(p)
        capsys.readouterr()
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("elapsed_s")
        assert docs[0] == docs[1]


class TestTension:
    def test_harmonic_exit_zero(self, proj_map, capsys):
        code = main(["tension", "--domain", "nil", "--codomain", "euclid:2", "--map", proj_map])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: zero (exact)" in out

    def test_nonzero_fields_equal_those_of_check(self, tmp_path, square_map, capsys):
        docs = {}
        for command in ("tension", "check"):
            report = tmp_path / f"{command}.json"
            code = main([command, "--domain", "euclid:1", "--codomain", "euclid:1",
                         "--map", square_map, "--json", str(report)])
            assert code == 1
            docs[command] = json.loads(report.read_text())
        out = capsys.readouterr().out
        assert "tension[0] = 16*x1^2\nverdict: nonzero (exact)" in out
        fields = ("tension_components", "tension_clearing", "verdict", "witness")
        assert {k: docs["tension"][k] for k in fields} == {k: docs["check"][k] for k in fields}
        assert docs["tension"]["witness"] is not None

    def test_trig_map_into_sol_is_sampled(self, tmp_path, capsys):
        path = write_map(tmp_path, "trig.json", {"kind": "custom", "m": 2, "components": ["x1", "x2", "cos(x1)"]})
        report = tmp_path / "report.json"
        code = main(["tension", "--domain", "euclid:2", "--codomain", "sol", "--map", path, "--json", str(report)])
        out = capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert code == 1
        assert "tension components left the symbolic class\n" in out
        assert doc["tension_components"] is None
        assert doc["mode"] == "exact" and doc["verdict"] == "nonzero"

    def test_sphere_codomain_prints_the_clearing(self, tmp_path, capsys):
        path = write_map(tmp_path, "line.json", {"kind": "affine", "A": [[1]]})
        code = main(["tension", "--domain", "euclid:1", "--codomain", "sphere:1", "--map", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "tension[0] = -x1^3 - x1\n(all divided by 1/16*x1^8 + " in out

    def test_non_integer_ih_seed_exit_two(self, square_map, capsys, monkeypatch):
        monkeypatch.setenv("IH_SEED", "seven")
        code = main(["tension", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", square_map])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "IH_SEED must be an integer, got 'seven'" in captured.err

    def test_unreadable_map_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = main(["tension", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", missing])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: $: cannot read {missing}" in captured.err


class TestUndecided:
    @pytest.mark.parametrize("command", ["check", "tension"])
    def test_a_map_that_no_exact_route_decides_exits_two(self, tmp_path, capsys, command):
        # PRIME divides a denominator, so the prime point route does not apply, and
        # e^{2 sin x1} leaves the symbolic class.
        p = 2**61 - 1
        components = [f"{p + 1}/{p}*cos(x1)", "0", "sin(x1)"]
        path = write_map(tmp_path, "refused.json", {"kind": "custom", "m": 1, "components": components})
        report = tmp_path / "report.json"
        code = main([command, "--domain", "euclid:1", "--codomain", "sol", "--map", path, "--json", str(report)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not report.exists()
        assert captured.err.startswith("error: cannot decide: ") and "Traceback" not in captured.err
        assert "2*sin(x1)" in captured.err and "prime point route" in captured.err


class TestFileBoundary:
    @pytest.mark.parametrize("argv", [
        ["check", "--domain", "euclid:1", "--codomain", "euclid:1"],
        ["energy", "--domain", "euclid:1", "--codomain", "euclid:1"],
        ["tension", "--domain", "euclid:1", "--codomain", "euclid:1"],
        ["suite", "--theorem", "L2.1", "--trials", "1"],
        ["search", "--family", "linear", "--domain", "euclid:1", "--codomain", "euclid:1", "--trials", "1"],
    ])
    def test_a_report_into_a_missing_directory_exits_two(self, tmp_path, capsys, argv):
        line = write_map(tmp_path, "line.json", {"kind": "custom", "m": 1, "components": ["x1"]})
        target = str(tmp_path / "missing" / "out.json")
        flags = ["--map", line] if argv[0] in ("check", "energy", "tension") else []
        code = main([*argv, *flags, "--json", target])
        err = capsys.readouterr().err
        assert code == 2 and f"error: cannot write {target}: " in err and "Traceback" not in err

    def test_a_suite_into_a_missing_directory_runs_no_campaign(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("infharm.cli.run_suite", lambda *args, **kwargs: pytest.fail("a campaign ran"))
        target = str(tmp_path / "missing" / "out.json")
        code = main(["suite", "--theorem", "all", "--trials", "5", "--json", target])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ") and "Traceback" not in captured.err

    def test_a_map_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"kind": "custom", "m": 1, "components": ["x1"]}'.encode("utf-16-le"))
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: $: cannot read {path}: " in captured.err and "Traceback" not in captured.err


class TestSuiteCommand:
    def test_single_theorem(self, capsys):
        code = main(["suite", "--theorem", "T6.1", "--trials", "25", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disagreements=0" in out

    def test_unknown_theorem(self, capsys):
        code = main(["suite", "--theorem", "T99", "--trials", "5", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("theorem", ["", ","])
    def test_no_theorem_is_not_a_pass(self, capsys, theorem):
        code = main(["suite", "--theorem", theorem, "--trials", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "total disagreements" not in captured.out
        assert "names no theorem id" in captured.err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_not_a_pass(self, capsys, trials):
        code = main(["suite", "--theorem", "T6.1", "--trials", trials, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "ok" not in captured.out
        assert "--trials" in captured.err

    def test_suite_json_determinism(self, tmp_path, capsys):
        docs = []
        for i in range(2):
            p = tmp_path / f"s{i}.json"
            main(["suite", "--theorem", "L2.1,T5.1", "--trials", "20", "--seed", "8", "--json", str(p)])
            doc = json.loads(p.read_text())
            doc.pop("elapsed_s")
            docs.append(doc)
        capsys.readouterr()
        assert docs[0] == docs[1]

    def test_every_theorem_at_one_trial(self, capsys):
        code = main(["suite", "--theorem", "all", "--trials", "1", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == len(classify.THEOREMS) + 1 == 18
        assert all(line.endswith("disagreements=0 ok") for line in lines[:-1])
        assert lines[-1] == "total disagreements: 0"


class TestSearchCommand:
    def test_sol_search_clean(self, capsys):
        code = main(
            ["search", "--family", "linear", "--domain", "sol", "--codomain", "euclid:3",
             "--trials", "100", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 counterexamples" in out

    def test_uncovered_pair_exit_two(self, capsys):
        code = main(
            ["search", "--family", "linear", "--domain", "semi-euclid:2:-+", "--codomain", "euclid:1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "counterexamples" not in captured.out
        assert "no linear predictor covers semi-euclid:2:-+ -> euclid:1" in captured.err

    @pytest.mark.parametrize("domain, codomain", [("sphere:2", "sphere:2"), ("semi-euclid:2:-+", "euclid:2")])
    def test_holomorphic_off_euclidean_pairs_exit_two(self, capsys, domain, codomain):
        code = main(
            ["search", "--family", "holomorphic", "--domain", domain, "--codomain", codomain,
             "--trials", "20", "--seed", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"no holomorphic predictor covers {domain} -> {codomain}" in captured.err

    def test_holomorphic_odd_dimension_exit_two(self, capsys):
        code = main(
            ["search", "--family", "holomorphic", "--domain", "euclid:3", "--codomain", "euclid:2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "counterexamples" not in captured.out
        assert "holomorphic maps need even-dimensional Euclidean spaces (C^k = R^2k)" in captured.err
        assert "euclid:3 has odd dimension 3" in captured.err

    @pytest.mark.parametrize("label", ["complex:x", "complex:", "complex:0", "complex:1:2"])
    def test_bad_complex_dimension_exit_two(self, capsys, label):
        code = main(["search", "--family", "holomorphic", "--domain", label, "--codomain", "complex:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"bad complex dimension in {label!r}" in captured.err

    def test_holomorphic_complex_labels(self, capsys):
        code = main(
            ["search", "--family", "holomorphic", "--domain", "complex:1", "--codomain", "complex:1",
             "--trials", "50", "--seed", "5"]
        )
        assert code == 0
        capsys.readouterr()

    def test_complex_label_outside_the_holomorphic_family_exit_two(self, capsys):
        code = main(["search", "--family", "linear", "--domain", "complex:1", "--codomain", "euclid:1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "complex:<m> labels apply to the holomorphic family only" in captured.err

    def test_holomorphic_maps_with_several_components(self, capsys):
        code = main(
            ["search", "--family", "holomorphic", "--domain", "complex:2", "--codomain", "complex:2",
             "--trials", "20", "--seed", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == "holomorphic euclid:4 -> euclid:4: 20 trials, 0 counterexamples\n"

    def test_counterexamples_are_reported(self, tmp_path, capsys, monkeypatch):
        # a predictor that calls every quadratic map harmonic is wrong on each nonzero one
        monkeypatch.setitem(
            classify.COVERAGE["quadratic"], ("euclid", "euclid"),
            lambda domain, codomain, spec: classify.Verdict(True, "Stub", {}),
        )
        report = tmp_path / "search.json"
        code = main(
            ["search", "--family", "quadratic", "--domain", "euclid:2", "--codomain", "euclid:2",
             "--trials", "10", "--seed", "0", "--json", str(report)]
        )
        lines = capsys.readouterr().out.splitlines()
        entries = json.loads(report.read_text())["counterexamples"]
        assert code == 1
        assert lines[0] == f"quadratic euclid:2 -> euclid:2: 10 trials, {len(entries)} counterexamples"
        assert len(entries) > 3
        for entry in entries:
            assert entry["predicted_harmonic"] is True
            assert entry["direct_verdict"] == "nonzero"
            assert entry["numeric_ok"] is True
            witness = entry["witness"]
            assert len(witness["point"]) == 2 and witness["value"] != 0
        assert [json.loads(line) for line in lines[1:]] == entries[:3]

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("IH_SEED", "7")
        code = main(
            ["search", "--family", "linear", "--domain", "sol", "--codomain", "euclid:2",
             "--trials", "20"]
        )
        assert code == 0
        capsys.readouterr()


class TestSpacesCommand:
    def test_listing(self, capsys):
        code = main(["spaces"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("euclid", "sphere", "nil", "sol"):
            assert label in out


class TestParser:
    def test_energy_takes_no_seed(self, capsys, square_map):
        with pytest.raises(SystemExit) as refused:
            main(["energy", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", square_map, "--seed", "3"])
        captured = capsys.readouterr()
        assert refused.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --seed 3" in captured.err

    def test_main_reuses_one_parser(self, capsys):
        parser = build_parser()
        before = build_parser.cache_info()
        assert main(["spaces"]) == 0 and main(["spaces"]) == 0
        after = build_parser.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        assert build_parser() is parser

    def test_a_malformed_argv_after_a_good_call_exits_two(self, capsys):
        assert main(["spaces"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "--domain", "euclid:1"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert main(["spaces"]) == 0

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
        # The tension 16/10^18 x1^2 is below the witness threshold at every candidate.
        tiny = write_map(tmp_path, "tiny.json", {"kind": "custom", "m": 1, "components": ["x1^2/1000000"]})
        code = main(["check", "--domain", "euclid:1", "--codomain", "euclid:1", "--map", tiny])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "no witness point found" in captured.err

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

    def test_identity_euclid4(self, tmp_path, capsys):
        path = write_map(
            tmp_path,
            "id4.json",
            {"kind": "affine", "A": [[1 if i == j else 0 for j in range(4)] for i in range(4)]},
        )
        code = main(["energy", "--domain", "euclid:4", "--codomain", "euclid:4", "--map", path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4"


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
        assert "tension components left the symbolic class; sampled numerically" in out
        assert doc["tension_components"] is None
        assert doc["mode"] == "numeric" and doc["verdict"] == "nonzero"

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

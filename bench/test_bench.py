"""Tests of the benchmark's own accounting.  Run: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

LABELS = ("euclid:1", "euclid:2", "semi-euclid:2:-+", "semi-euclid:3:-++", "sol")
SOL_NULL = workloads.fallback_map(0, len(workloads.FALLBACK_WINDOW) - 1)
TINY = ["x1^2/1000000"]


@pytest.fixture(scope="module")
def env():
    ih, spaces, _ = bench.setup(LABELS)
    os.makedirs(bench.WORKDIR, exist_ok=True)
    return ih, spaces


def test_failed_ops_are_counted_once_and_the_run_goes_on(env):
    ih, spaces = env
    family, domain, comps, cv_seed = SOL_NULL
    assert family == "sol-null-defect"
    ops = [
        # exits 2 with "no witness point found", although the tension is nonzero
        workloads.check_op(ih, "tiny-cli", "nonzero", "euclid:1", "euclid:1",
                           {"kind": "custom", "m": 1, "components": TINY}, bench.WORKDIR),
        # the same map raises inside cross_validate
        workloads.cross_validate_op(ih, "tiny-api", "nonzero", spaces["euclid:1"], spaces["euclid:1"], TINY, 0),
        # harmonic, but the numeric fallback says nonzero
        workloads.cross_validate_op(ih, "sol-null", "zero", spaces[domain], spaces["sol"], comps, cv_seed),
        # decided correctly by the fallback
        workloads.cross_validate_op(ih, "vertical", "nonzero", spaces["euclid:2"], spaces["sol"],
                                    ["1", "2", "cos(x1)"], 0),
    ]
    run = bench.measure(ops, 0)
    assert (run.attempted, run.failed, run.passes) == (4, 3, 1)
    assert bench.end_to_end(run)["ok_ratio"] == pytest.approx(0.25)
    assert not run.problems


def test_traced_digest_equals_untraced_and_repeats(env, tmp_path):
    ih, spaces = env
    ops = []
    for i in (0, 1):
        family, domain, comps, cv_seed = workloads.fallback_map(7, i)
        expected = workloads._expected("fallback", family, "family")
        ops.append(workloads.cross_validate_op(ih, f"{family}#{i}", expected, spaces[domain], spaces["sol"],
                                               comps, cv_seed))
    ops.append(workloads.check_op(ih, "check", "zero", "euclid:2", "euclid:1",
                                  {"kind": "custom", "m": 2, "components": ["x1+x2/2"]}, bench.WORKDIR))
    first = bench.measure(ops, 0.5)
    assert first.passes > 1 and not first.problems
    values, _, runs, problems, digest = bench.traced_run(ops, ih, LABELS, str(tmp_path / "spans.tsv.gz"))
    assert problems == []
    assert digest == first.digest.hexdigest() == runs[1].digest.hexdigest()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    assert set(values) == {m["name"] for m in definition["per_layer"]}
    assert values["calculus.fallback.points"] == 2 * 64
    assert values["calculus.symbolic_attempt.useful_ratio"] == pytest.approx(1 / 3)
    assert values["exprcore.mul.term_pairs"] > 0
    assert set(bench.end_to_end(first)) | {"setup_s"} == {m["name"] for m in definition["end_to_end"]}


def test_every_generated_op_has_a_reference_verdict():
    for pair, _, _, _, _ in workloads._ladder_rungs(3):
        assert workloads._expected("ladder", pair, "pair") in ("zero", "nonzero")
    for i in range(2 * len(workloads.FALLBACK_WINDOW)):
        family = workloads.fallback_map(3, i)[0]
        assert workloads._expected("fallback", family, "family") in ("zero", "nonzero")

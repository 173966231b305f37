"""The package namespace: public names load their module on first use."""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infharm


def test_import_loads_no_submodule():
    code = (
        "import sys, infharm\n"
        "print(sorted(m for m in sys.modules if m.startswith('infharm.')))\n"
        "infharm.build_space('sphere:2')\n"
        "print(sorted(m for m in sys.modules if m.startswith('infharm.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(infharm.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.splitlines()
    assert out == ["[]", "['infharm.exprcore', 'infharm.spaces']"]


def test_every_public_name_is_its_modules_object():
    for module, names in infharm._EXPORTS.items():
        mod = importlib.import_module(f"infharm.{module}")
        assert getattr(infharm, module) is mod
        for name in names:
            assert getattr(infharm, name) is getattr(mod, name)
    assert sorted(infharm.__all__) == sorted(n for names in infharm._EXPORTS.values() for n in names)
    assert set(infharm.__all__) <= set(dir(infharm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        infharm.no_such_name


def test_every_name_the_benchmark_reads_resolves():
    """bench/tracing.py wraps these names and bench/workloads.py reads the rest."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"infharm.{module}"), attr)), (module, attr)
    for _, module, cls, attr in tracing.METHODS:
        owner = getattr(importlib.import_module(f"infharm.{module}"), cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)
    from infharm import calculus, classify

    assert all(callable(runner) for _, runner in classify.THEOREMS.values())
    assert callable(classify._rng_for) and callable(calculus._witness_candidates)
    assert "numeric_ok" in {f.name for f in dataclasses.fields(classify.CrossReport)}

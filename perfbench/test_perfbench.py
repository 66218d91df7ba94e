"""Tests of the benchmark itself, at tiny q.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
NAMES = sorted(workloads.WORKLOADS)


def _inputs(tmp_path, name, seed, tag):
    setup = workloads.WORKLOADS[name][0]
    d = tmp_path / tag
    d.mkdir()
    inputs = setup(seed, "full", str(d))
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    return workloads.digest(inputs), files


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs(tmp_path, name):
    assert _inputs(tmp_path, name, 7, "a") == _inputs(tmp_path, name, 7, "b")


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs(tmp_path, name):
    assert _inputs(tmp_path, name, 7, "a")[0] != _inputs(tmp_path, name, 8, "b")[0]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_pass_has_no_failures(tmp_path, name):
    res = run.spawn(name, 5, "check", "smoke", tmp_path)
    assert res["items"]
    assert run.failed_items([res]) == 0, res["items"]
    assert res["env"]["optimize"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_exact_counters_repeat_across_traced_runs(tmp_path, name):
    first, second = (run.spawn(name, 5, "trace", "smoke", tmp_path)["layers"]
                     for _ in range(2))
    exact = [k for k in first if spans.is_exact(k)]
    assert exact and any(first[k] for k in exact)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_metric_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == run.END_TO_END
    assert layers == spans.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == NAMES
    for name, _ in e2e + layers:
        assert NAME.fullmatch(name), name


def test_missing_function_is_reported_absent():
    tracer = spans.Tracer()
    spans.install(tracer, targets=[
        ("geom.gone", "fqgeom.geom", "AffineSpace.no_such_method", True),
        ("gone.module", "fqgeom.no_such_module", "f", True),
    ], counted=[("gone.count", "fqgeom.gf", "FieldCtx.no_such_op")])
    assert tracer.absent == ["fqgeom.geom:AffineSpace.no_such_method",
                             "fqgeom.no_such_module:f",
                             "fqgeom.gf:FieldCtx.no_such_op"]
    assert spans.layer_metrics(tracer)["geom.line_table.calls"] == 0


def test_child_refuses_python_O(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-O", str(run.HERE / "child.py"), "pipeline", "1", "plain",
         "smoke", "0", str(tmp_path / "out.json")],
        env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not (tmp_path / "out.json").exists()


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

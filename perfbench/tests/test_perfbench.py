"""Tests of the benchmark itself: inputs, tracer, oracles and output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import DIAGRAM_METHODS, LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    draws = [workloads.make_inputs(workload, seed) for seed in range(6)]
    assert draws == [workloads.make_inputs(workload, seed)
                     for seed in range(6)]
    assert len({json.dumps(d) for d in draws}) > 1


def test_census_population_is_acceptance_criterion_3():
    population = workloads.census_population()
    bridges = workloads.bridge_numbers()
    assert len(population) == len(set(population)) == 530
    for expr in population:
        atoms = expr.split(" + ")
        assert len(atoms) >= 2
        assert sum(bridges[a] for a in atoms) <= 12
        assert workloads.torus_count(expr) <= 3


def test_cli_draw_has_one_sum_per_stratum():
    items = workloads.make_inputs("cli-cold", 11)
    labels = [item["label"] for item in items]
    assert labels[:7] == list(workloads.trisection.ATOMS)
    assert labels[-1] == workloads.SKIPPED_EXPRESSION
    strata = [workloads._stratum(label) for label in labels[7:-1]]
    assert strata == [tuple(s) for s in workloads.CLI_STRATA]


def _namespace_snapshot():
    import importlib
    owners = [importlib.import_module("ktsurf")]
    owners += [importlib.import_module(f"ktsurf.{m}") for m in LAYERS]
    snap = {(o.__name__, k): v for o in owners for k, v in vars(o).items()}
    diagram = importlib.import_module("ktsurf.diagram").Diagram
    for attr in DIAGRAM_METHODS.values():
        snap[("Diagram", attr)] = vars(diagram)[attr]
    return snap


def test_tracer_restores_every_patched_attribute():
    from ktsurf import pants
    from ktsurf.diagram import Diagram
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert pants.geometric_intersection is not before[
            ("ktsurf.pants", "geometric_intersection")]
        assert Diagram.half_twist is not before[("Diagram", "half_twist")]
        patched = {k for k, v in _namespace_snapshot().items()
                   if before.get(k) is not v}
    finally:
        tracer.uninstall()
    assert len(patched) > 50
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_and_nests():
    from ktsurf import invariants, trisection
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        cert = invariants.kt_bounds(trisection.spine_of_expression("P+ + U"))
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    calls, total, self_s = stats["funcs"]["invariants.kt_bounds"]
    assert calls == 1 and 0 <= self_s <= total
    assert stats["extra"]["invariants.route.composed"] == 1
    assert cert.exact
    roots = [s for s in tracer.spans if s and s[3] is None]
    assert [s[0] for s in roots] == ["trisection.spine_of_expression",
                                     "invariants.kt_bounds"]
    assert all(s[4] == 0 for s in tracer.spans if s)


@pytest.mark.parametrize("workload", ["cli-cold", "census-warm"])
def test_certificate_text_is_identical_with_tracing(workload, tmp_path):
    plain = _worker(workload, "5", "--smoke")
    traced = _worker(workload, "5", "--smoke", "--trace-dir", str(tmp_path))
    assert plain["digest"] == traced["digest"]
    assert [op["problems"] for op in traced["ops"]] == [
        [] for _ in traced["ops"]]
    assert list(tmp_path.glob("*.spans.jsonl"))


def test_oracles_flag_wrong_outputs():
    item = {"label": "T", "tori": 1, "bridge": 3, "exit": 0}
    assert workloads.check_cli(item, 2, "")
    assert workloads.check_cli(item, 0, "kt-certificate\n")
    assert workloads.check_lemma({"label": "edp1"}, [])


def test_tail_latency_keeps_ten_beyond():
    values = [float(k) for k in range(40)]
    latency, percentile, beyond = run.tail_latency(values)
    assert latency == 29.0 and beyond == 10 and percentile == 75.0
    assert run.tail_latency(values[:10]) is None


EXTRA_LINES = {"cli-cold": [], "census-warm": ["op_tail_s"],
               "lemmas-cap4": ["lemma_cold_s", "lemma_warm_s"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_prints_every_metric(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "2", "--seconds",
                      "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    human = "\n".join(lines[:-1])
    names = [m["name"] for m in declared] + ["fail_share"]
    if trace == "0":
        names += EXTRA_LINES[workload]
    for name in names:
        assert name in human


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "cli-cold", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

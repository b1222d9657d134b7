"""The benchmark's own tests: CLI parity, output checks, tracing, and a
smoke run of every workload at tiny size."""

import json
import random
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from feedalloc import baselines, cli, generators, oracle
from feedalloc.core import Allocation, Mode, ProblemInstance

import checks
import probe
import run
import workload
from metrics import END_TO_END, LAYER_METRICS
from spans import Tracer, layer_totals


def _instances(wl):
    return {key: generators.generate(c) for key, c in wl.configs.items()}


@pytest.mark.parametrize("seed", [1, 7])
def test_suite_rewards_match_cli_bench(seed):
    n, m, q = 6, 30, 0.1
    rows = cli.run_bench(cli.DEFAULT_SCHEMES, cli.DEFAULT_ALGORITHMS, [seed],
                         n, m, q)
    expected = {(r["scheme"], r["algorithm"]): r["reward"] for r in rows}
    wl = workload.workload("suite", seed, tiny=True)
    instances = _instances(wl)
    got = {}
    for job in wl.jobs:
        out = workload.run_job(job, instances[job.instance], seed, 0, Tracer())
        got[(job.instance, job.algorithm)] = cli._num(out["reward"])
    assert got == expected


def test_suite_is_the_default_bench_suite():
    assert workload.SUITE_SCHEMES == cli.DEFAULT_SCHEMES
    assert workload.SUITE_ALGORITHMS == cli.DEFAULT_ALGORITHMS
    args = cli.build_parser().parse_args(["bench", "--out", "unused.csv"])
    for config in workload.workload("suite", 3).configs.values():
        assert (config.n, config.m, config.q) == (args.n, args.m, args.q)


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["end_to_end"]] \
        == [tuple(e) for e in END_TO_END]
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] \
        == [tuple(e) for e in LAYER_METRICS]


@pytest.mark.parametrize("name", workload.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(tmp_path, name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
         "3", "--seconds", "0", "--trace", str(trace), "--tiny",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workload.workload(name, 3).jobs)
    names = LAYER_METRICS if trace else END_TO_END
    assert list(result["metrics"]) == [n for n, _u, _b in names]
    if trace:
        assert (tmp_path / ("spans-%s-seed3.jsonl" % name)).stat().st_size > 0


def test_run_refuses_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_probe_scales_to_the_reference_speed():
    ref = probe.PROBE_REF_S
    slow = 2.0 ** (1.0 / probe.EXPONENT)
    assert probe.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    assert probe.scaled(2.0, [ref, 2 * slow * ref - ref]) == pytest.approx(1.0)
    assert probe.scaled(2.0, [slow * ref, slow * ref, 9 * ref]) \
        == pytest.approx(1.0)
    assert probe.probe() > 0.0


def test_reference_reward_is_the_direct_sum():
    inst = ProblemInstance(3, 5, 0.2, ((1, 2, 4.0), (2, 4, 3.0), (3, 4, 9.0)))
    alloc = Allocation(((2, 1), (4, 3)))
    assert checks.reference_reward(inst, alloc) == pytest.approx(
        4.0 * 0.8 ** 2 + 9.0 * 0.8 ** 5)
    with pytest.raises(ValueError):
        checks.reference_reward(inst, Allocation(((3, 1),)))


def test_mapping_bound_is_the_mapping_optimum():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        q = rng.choice([0.05, 0.3, 0.7])
        edges = tuple((i, j, round(rng.uniform(0.1, 10.0), 3))
                      for i in range(1, n + 1) for j in range(1, m + 1)
                      if rng.random() < 0.6)
        inst = ProblemInstance(n, m, q, edges)
        _alloc, best = oracle.brute_force_mapping(inst)
        assert checks.mapping_bound(inst) == pytest.approx(best)


def test_checks_report_wrong_outputs():
    inst = generators.gen_symmetric(4, 12, q=0.5, seed=2)
    job = workload.Job("sym", "flow")
    out = workload.run_job(job, inst, 1, 0, Tracer())
    bound = checks.mapping_bound(inst)
    assert checks.check_outcome(job, inst, out, bound)[0] == []
    bad = dict(out, reward=out["reward"] * 1.001)
    assert checks.check_outcome(job, inst, bad, bound)[0]
    two = Allocation(((1, 1), (2, 2)))
    too_big = dict(out, allocation=two,
                   reward=checks.reference_reward(inst, two))
    assert any("k(q)" in p for p in checks.check_outcome(job, inst, too_big,
                                                          bound)[0])
    assert checks.check_outcome(job, inst, out, bound * 0.5)[0]


def test_determinism_flags_compare_same_tree_and_seed(tmp_path):
    prov = {"source_sha256": "a", "workload": "suite", "seed": 1,
            "tiny": False, "time": "t0"}
    history = tmp_path / "runs.jsonl"
    old = {"j": {"reward": 1.0, "counters": {"commits": 3}}}
    history.write_text(json.dumps({"provenance": prov, "jobs": old}) + "\n")
    assert run.determinism_flags(history, prov, old) == []
    changed = {"j": {"reward": 1.0, "counters": {"commits": 4}}}
    assert len(run.determinism_flags(history, prov, changed)) == 1
    other_seed = dict(prov, seed=2)
    assert run.determinism_flags(history, other_seed, changed) == []


def test_tracer_names_flowg_phases_and_restores_functions():
    original = baselines.flow_baseline
    inst = generators.gen_symmetric(5, 20, q=0.3, seed=4)
    tracer = Tracer()
    tracer.install()
    try:
        baselines.flow_greedy(inst)
    finally:
        tracer.uninstall()
    assert baselines.flow_baseline is original
    names = {span.name for span in tracer.spans}
    assert {"baselines.flowg", "baselines.flowg.flow", "baselines.flowg.sweep",
            "matching.solve", "core.expected_reward"} <= names
    totals = layer_totals(tracer.spans, 0)
    assert totals["matching.calls"] == 1
    root = tracer.spans[0]
    assert totals["trace.attributed_s"] == pytest.approx(root.end - root.start)
    assert sum(v for k, v in totals.items() if k.endswith("_s")
               and not k.startswith("trace.")) \
        == pytest.approx(root.end - root.start)

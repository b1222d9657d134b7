"""The workload process: builds one workload's instances, then runs its jobs
in a closed loop (each job starts when the previous one ends) until the
time budget is spent, checking every output.  Every untraced sample is
bracketed by two runs of the calibration kernel (``probe.py``), and the
pass time is also reported scaled to the kernel's reference speed.

    python3 perfbench/workload.py --workload suite --seed 1 --seconds 25

It prints ``ready`` once the instances are built, then one JSON object with
the per-job samples and the metrics of the run.  ``run.py`` starts it with
one BLAS/OpenMP thread and ``src`` on the import path.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from feedalloc import (algorithms, baselines, core, generators, oracle,
                       postprocess)
from feedalloc.core import Mode
from feedalloc.generators import GeneratorConfig

import checks
import probe
from metrics import LAYER_METRICS
from spans import Tracer, layer_totals

WORKLOADS = ("suite", "sessions")

# The default suite of `feedalloc bench`; tests check it against the CLI.
SUITE_SCHEMES = ["symmetric", "finely_targeted", "heavy_top", "heavy_bottom"]
SUITE_ALGORITHMS = ["gb", "gbp", "global", "flowg", "flow", "mwm", "forward",
                    "online"]

# Looked up through the module attributes at call time, so that an installed
# tracer sees every call.
SOLVE = {
    "gb": lambda inst: algorithms.backwards_greedy(inst, mode=Mode.MATCHING),
    "gb-mapping": lambda inst: algorithms.backwards_greedy(inst,
                                                           mode=Mode.MAPPING),
    "gbp": lambda inst: algorithms.nonoblivious_backwards_greedy(inst),
    "global": lambda inst: baselines.global_greedy(inst),
    "forward": lambda inst: baselines.forward_greedy(inst),
    "online": lambda inst: baselines.online_threshold(inst),
    "mwm": lambda inst: baselines.mwm_baseline(inst),
    "flow": lambda inst: baselines.flow_baseline(inst),
    "flowg": lambda inst: baselines.flow_greedy(inst),
}


@dataclass(frozen=True)
class Job:
    instance: str
    algorithm: str
    prune_k: int | None = None
    verify: bool = False      # residual over all suffixes, then simulation

    @property
    def name(self):
        tail = "+prune%d" % self.prune_k if self.prune_k is not None else ""
        tail += "+verify" if self.verify else ""
        return "%s/%s%s" % (self.instance, self.algorithm, tail)


@dataclass(frozen=True)
class Workload:
    configs: dict             # instance name -> GeneratorConfig
    jobs: list
    sessions: int             # simulated sessions per verify job


def workload(name, seed, tiny=False):
    """The instances and job list of a named workload.  ``tiny`` shrinks
    every instance for the smoke tests; the job lists stay the same."""
    if name == "suite":
        n, m = (6, 30) if tiny else (100, 1000)
        configs = {s: GeneratorConfig(scheme=s, n=n, m=m, q=0.1, seed=seed)
                   for s in SUITE_SCHEMES}
        jobs = [Job(s, a) for s in SUITE_SCHEMES for a in SUITE_ALGORITHMS]
        return Workload(configs, jobs, 0)
    if name == "sessions":
        if tiny:
            blocks = GeneratorConfig("session_blocks", m=40, seed=seed,
                                     params={"blocks": 4, "categories": 5})
            youtube = GeneratorConfig("session_youtube", m=30, seed=seed,
                                      params={"advertisers": 2,
                                              "num_categories": 3})
            k, sessions = 3, 10 ** 4
        else:
            blocks = GeneratorConfig("session_blocks", m=1440, seed=seed)
            youtube = GeneratorConfig("session_youtube", m=500, seed=seed)
            k, sessions = 20, 10 ** 6
        jobs = [Job("session_blocks", "gbp", verify=True)]
        jobs += [Job("session_blocks", a)
                 for a in ("global", "forward", "online", "flow")]
        jobs += [Job("session_youtube", "gb-mapping", verify=True),
                 Job("session_youtube", "gbp", prune_k=k)]
        return Workload({"session_blocks": blocks, "session_youtube": youtube},
                        jobs, sessions)
    raise ValueError("unknown workload %r" % name)


def verify_residual(inst, alloc):
    """Largest relative gap between each suffix reward and its backward
    decomposition, over every suffix (the check of `feedalloc verify`)."""
    residual = 0.0
    for j in range(inst.num_slots + 1):
        direct = core.suffix_reward(inst, alloc, j)
        recon = sum(t.discount * t.tau for t in core.decompose(inst, alloc, j)
                    if t.occupied)
        residual = max(residual, abs(direct - recon) / max(1.0, abs(direct)))
    return residual


def run_job(job, inst, seed, sessions, tracer):
    """Solve, post-process and verify one job through the package's public
    functions; returns the outputs the checks need."""
    report = SOLVE[job.algorithm](inst)
    out = {"report": report, "allocation": report.allocation,
           "reward": report.expected_reward}
    if job.prune_k is not None:
        out["allocation"] = postprocess.prune_to_k(inst, report.allocation,
                                                   job.prune_k)
        out["reward"] = core.expected_reward(inst, out["allocation"])
    if job.verify:
        with tracer.span("core.verify"):
            out["residual"] = verify_residual(inst, out["allocation"])
        out["simulation"] = oracle.simulate_sessions(inst, out["allocation"],
                                                     sessions, seed)
    return out


def _fingerprint(out):
    sim = out.get("simulation")
    return (out["allocation"].entries, out["reward"],
            sorted(out["report"].counters.items()), out.get("residual"),
            None if sim is None else (sim.mean, sim.stderr))


class JobRecord:
    """Samples and check results of one job over the run."""

    def __init__(self, job):
        self.job = job
        self.times = []          # untraced seconds per successful sample
        self.probes = []         # probe seconds before and after each one
        self.traced_times = []
        self.layers = []         # layer_totals per traced sample
        self.attempts = 0
        self.failures = 0
        self.problems = []
        self.first = None        # fingerprint of the first checked sample
        self.summary = None

    def check(self, inst, out, bound):
        """Full checks on the first output; later outputs must repeat it."""
        if self.first is not None:
            if _fingerprint(out) == self.first:
                return []
            return ["output differs from the first sample of this run"]
        problems, ref = checks.check_outcome(self.job, inst, out, bound)
        if not problems:
            self.first = _fingerprint(out)
            sim = out.get("simulation")
            self.summary = {
                "reward": out["reward"], "reference_reward": ref,
                "mapping_bound": bound, "size": len(out["allocation"]),
                "counters": dict(out["report"].counters),
                "residual": out.get("residual"),
                "simulated_mean": None if sim is None else sim.mean}
        return problems

    def as_dict(self):
        return {"name": self.job.name, "attempts": self.attempts,
                "failures": self.failures, "problems": self.problems[:5],
                "times": self.times, "probes": self.probes,
                "traced_times": self.traced_times,
                **(self.summary or {})}


def sample(rec, inst, bound, seed, sessions, tracer, traced):
    """Run one job once, time it (checks excluded) and check its output.
    An exception or a failed check marks the sample failed.  An untraced
    sample is bracketed by two probes."""
    rec.attempts += 1
    gc.collect()
    if traced:
        tracer.job = "%s#%d" % (rec.job.name, rec.attempts)
        first = len(tracer.spans)
        tracer.install()
    else:
        before = probe.probe()
    t0 = time.perf_counter()
    try:
        out = run_job(rec.job, inst, seed, sessions, tracer)
        elapsed = time.perf_counter() - t0
        if not traced:
            after = probe.probe()
        problems = rec.check(inst, out, bound)
    except Exception as exc:  # a failing job is counted; the run goes on
        problems = ["%s: %s" % (type(exc).__name__, exc)]
    finally:
        if traced:
            tracer.uninstall()
    if problems:
        rec.failures += 1
        rec.problems.extend(problems)
        return
    if traced:
        rec.traced_times.append(elapsed)
        layers = layer_totals(tracer.spans, first)
        layers["trace.unattributed_s"] = (elapsed
                                          - layers.get("trace.attributed_s", 0.0))
        rec.layers.append(layers)
    else:
        rec.times.append(elapsed)
        rec.probes += [before, after]


def measure(wl, instances, bounds, seed, seconds, tracer, traced):
    """Run every job once, then sample again the job that most steadies
    the pass time, until ``seconds`` have passed.  With ``traced`` each job
    runs untraced, then traced."""
    records = [JobRecord(job) for job in wl.jobs]
    deadline = time.perf_counter() + seconds

    def run(rec):
        inst, bound = instances[rec.job.instance], bounds[rec.job.instance]
        sample(rec, inst, bound, seed, wl.sessions, tracer, False)
        if traced:
            sample(rec, inst, bound, seed, wl.sessions, tracer, True)

    for rec in records:
        run(rec)
    while time.perf_counter() < deadline:
        run(max(records, key=_resample_priority))
    return records


def _resample_priority(rec):
    """Variance cut per second of one more sample of a job with median time
    t and n samples: the pass time sums the jobs' medians, whose variances
    go as t^2 / n, so one more sample cuts t^2 / (n (n + 1)) at cost t.
    Long jobs get more samples than short ones (n grows as sqrt(t))."""
    if not rec.times:
        return 0.0           # failed every time: sampling again tells nothing
    n = len(rec.times)
    return statistics.median(rec.times) / (n * (n + 1))


def _median_sum(samples_per_job):
    return sum(statistics.median(s) for s in samples_per_job if s)


def _ratio(num, den):
    return num / den if den else 0.0


def reward_ratio(records):
    """Summed reference reward over summed mapping optimum, over the jobs
    of every solver but ``online``.  Online's reward swings between 0 and
    the optimum with the seed (its threshold is slot 1's best reward), which
    would drown a quality change of the other solvers; it is still checked
    and recorded per job."""
    rated = [rec.summary for rec in records
             if rec.job.algorithm != "online" and rec.summary is not None]
    return _ratio(sum(s["reference_reward"] for s in rated),
                  sum(s["mapping_bound"] for s in rated))


def layer_metrics(records, setup_layers):
    """Per-layer metrics per pass: each job's median over its traced
    samples, summed over the jobs, plus the traced set-up."""
    totals = dict(setup_layers)
    for rec in records:
        for key in set().union(*rec.layers):
            values = [layers.get(key, 0) for layers in rec.layers]
            totals[key] = totals.get(key, 0) + statistics.median(values)
    metrics = {name: int(totals.get(name, 0)) if unit == "count"
               else totals.get(name, 0.0) for name, unit, _ in LAYER_METRICS}
    metrics["baselines.global.commits_per_pop"] = _ratio(
        totals.get("baselines.global.commits", 0),
        totals.get("baselines.global.pops", 0))
    metrics["postprocess.evals_per_removal"] = _ratio(
        totals.get("postprocess.evals", 0),
        totals.get("postprocess.removals", 0))
    metrics["trace.overhead_s"] = (
        _median_sum([r.traced_times for r in records])
        - _median_sum([r.times for r in records]))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    wl = workload(args.workload, args.seed, tiny=args.tiny)
    tracer = Tracer()
    if args.trace:
        tracer.job = "setup"
        tracer.install()
    instances = {key: generators.generate(config)
                 for key, config in wl.configs.items()}
    tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    setup_layers = layer_totals(tracer.spans, 0)
    bounds = {key: checks.mapping_bound(inst) for key, inst in instances.items()}
    records = measure(wl, instances, bounds, args.seed, args.seconds, tracer,
                      bool(args.trace))
    jobs = [rec.as_dict() for rec in records]
    wall_raw = _median_sum([rec.times for rec in records])
    probes = [p for rec in records for p in rec.probes]
    result = {
        "jobs": jobs,
        "attempted": sum(rec.attempts for rec in records),
        "failed": sum(rec.failures for rec in records),
        "wall_s": probe.scaled(wall_raw, probes) if probes else wall_raw,
        "wall_raw_s": wall_raw,
        "probe_s": statistics.median(probes) if probes else None,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "reward_sum": sum(job.get("reference_reward") or 0.0 for job in jobs),
        "reward_ratio": reward_ratio(records),
    }
    if args.trace:
        result["layers"] = layer_metrics(records, setup_layers)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

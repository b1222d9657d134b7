"""Command-line front end: generate instances, run solvers, verify
allocations, simulate sessions, and run benchmark suites to CSV.

Exit codes: 0 success, 1 usage error, 2 validation failure (including a
malformed or missing input file), 3 oracle guard refusal.  ``bench
--time-limit`` does not stop a run; it only marks an over-long row
``timeout``.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time

from . import baselines, core, generators, oracle, postprocess
from .algorithms import backwards_greedy, nonoblivious_backwards_greedy
from .core import Mode, SolveReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3

BENCH_COLUMNS = ["dataset", "scheme", "n", "m", "q", "k", "algorithm",
                 "reward", "size", "seconds", "seed", "status"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _num(x):
    return "%.12g" % x


def _wrap_bruteforce(name, fn):
    def run(inst, **_opts):
        t0 = time.perf_counter()
        alloc, _value = fn(inst)
        return SolveReport(algorithm=name, allocation=alloc,
                           expected_reward=core.expected_reward(inst, alloc),
                           wall_time=time.perf_counter() - t0)
    return run


SOLVERS = {
    "gb": lambda inst, **o: backwards_greedy(inst, mode=Mode.MATCHING),
    "gb-mapping": lambda inst, **o: backwards_greedy(inst, mode=Mode.MAPPING),
    "gbp": lambda inst, **o: nonoblivious_backwards_greedy(inst),
    "global": lambda inst, **o: baselines.global_greedy(
        inst, max_assignments=o.get("k")),
    "forward": lambda inst, **o: baselines.forward_greedy(
        inst, max_assignments=o.get("k")),
    "online": lambda inst, **o: baselines.online_threshold(
        inst, threshold=o.get("threshold", "auto"), max_assignments=o.get("k")),
    "mwm": lambda inst, **o: baselines.mwm_baseline(inst),
    "flow": lambda inst, **o: baselines.flow_baseline(inst, k_limit=o.get("k")),
    "flowg": lambda inst, **o: baselines.flow_greedy(inst, k_limit=o.get("k")),
    "bruteforce": _wrap_bruteforce("bruteforce", oracle.brute_force_matching),
    "bruteforce-mapping": _wrap_bruteforce("bruteforce-mapping",
                                           oracle.brute_force_mapping),
}

# algorithms pruned post-hoc when a k-limit is requested; the others stop
# at k commitments themselves
PRUNED_UNDER_K = {"gb", "gb-mapping", "gbp", "mwm", "bruteforce",
                  "bruteforce-mapping"}


def run_solver(inst, algorithm, k=None, threshold="auto"):
    """Run one registered solver under an optional k-limit, which it takes
    natively or, for PRUNED_UNDER_K, by ``prune_to_k`` after the run.  The
    report keeps the solver's wall time and counters; its reward is the
    pruned allocation's."""
    pruned = k is not None and algorithm in PRUNED_UNDER_K
    report = SOLVERS[algorithm](inst, threshold=threshold,
                                k=None if pruned else k)
    if not pruned:
        return report
    alloc = postprocess.prune_to_k(inst, report.allocation, k)
    return SolveReport(algorithm=report.algorithm, allocation=alloc,
                       expected_reward=core.expected_reward(inst, alloc),
                       wall_time=report.wall_time, counters=report.counters)


DEFAULT_SCHEMES = ["symmetric", "finely_targeted", "heavy_top", "heavy_bottom"]
DEFAULT_ALGORITHMS = ["gb", "gbp", "global", "flowg", "flow", "mwm", "forward",
                   "online"]


def build_parser():
    parser = _Parser(prog="feedalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--scheme", required=True, choices=generators.SCHEMES)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--C", type=float, default=None,
                   help="large reward of the adversarial scheme")
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run one solver on an instance file")
    p.add_argument("instance")
    p.add_argument("algorithm", choices=sorted(SOLVERS))
    p.add_argument("--threshold", default="auto")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out-allocation", default=None)
    p.add_argument("--json", action="store_true",
                   help="print the report as one JSON object")

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", default=None,
                   help="built-in suite name (default) or a key=value config file")
    p.add_argument("--schemes", default=None, help="comma-separated schemes")
    p.add_argument("--algorithms", default=None)
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=3600.0,
                   help="soft per-run wall-clock limit in seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", default=None)

    p = sub.add_parser("verify", help="validate an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", choices=["matching", "mapping"], default="matching")
    p.add_argument("--simulate", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("slots-cdf",
                       help="cumulative slot-index distribution of allocations")
    p.add_argument("instance")
    p.add_argument("allocations", nargs="+")
    p.add_argument("--out", required=True)
    return parser


def cmd_gen(args):
    config = generators.GeneratorConfig(scheme=args.scheme, n=args.n, m=args.m,
                                        q=args.q, seed=args.seed)
    if args.C is not None:
        config.params["C"] = args.C
    inst = generators.generate(config)
    core.write_instance(inst, args.out)
    print("wrote %s: n=%d m=%d q=%s |E|=%d" % (args.out, inst.num_ads,
                                               inst.num_slots,
                                               _num(inst.quit_prob),
                                               len(inst.edges)))
    return EXIT_OK


def cmd_solve(args):
    inst = core.read_instance(args.instance)
    problems = core.validate_instance(inst)
    if problems:
        print("invalid instance: " + "; ".join(problems), file=sys.stderr)
        return EXIT_VALIDATION
    try:
        report = run_solver(inst, args.algorithm, k=args.k,
                            threshold=args.threshold)
    except oracle.OracleGuardError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    if args.json:
        print(json.dumps({"algorithm": report.algorithm,
                          "reward": report.expected_reward,
                          "size": len(report.allocation),
                          "seconds": report.wall_time,
                          "counters": report.counters}))
    else:
        print("algorithm=%s reward=%s size=%d seconds=%s"
              % (report.algorithm, _num(report.expected_reward),
                 len(report.allocation), _num(report.wall_time)))
    if args.out_allocation:
        core.write_allocation(report.allocation, args.out_allocation)
    return EXIT_OK


def _read_suite_config(path):
    values = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, value = ln.partition("=")
            values[key.strip()] = value.strip()
    return values


def run_bench(schemes, algorithms, seeds, n, m, q, k=None, time_limit=3600.0):
    """Run the cross product and return BenchRow dicts in deterministic
    (scheme, seed, algorithm) order."""
    rows = []
    for scheme in schemes:
        for seed in seeds:
            config = generators.GeneratorConfig(scheme=scheme, n=n, m=m, q=q,
                                                seed=seed)
            inst = generators.generate(config)
            tag = "%s-n%d-m%d-q%s" % (scheme, inst.num_ads, inst.num_slots,
                                      _num(q))
            for algorithm in algorithms:
                t0 = time.perf_counter()
                try:
                    report = run_solver(inst, algorithm, k=k)
                except oracle.OracleGuardError:
                    status, report = "refused", None
                else:
                    status = "ok"
                elapsed = time.perf_counter() - t0
                if status == "ok" and elapsed > time_limit:
                    status = "timeout"
                rows.append({
                    "dataset": tag,
                    "scheme": scheme,
                    "n": inst.num_ads,
                    "m": inst.num_slots,
                    "q": _num(q),
                    "k": "" if k is None else k,
                    "algorithm": algorithm,
                    "reward": "" if status != "ok"
                              else _num(report.expected_reward),
                    "size": "" if report is None else len(report.allocation),
                    "seconds": _num(elapsed),
                    "seed": seed,
                    "status": status,
                })
    return rows


def write_bench_csv(rows, out, summary_out=None):
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    if summary_out is None:
        summary_out = out + ".summary.csv"
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault((row["scheme"], row["algorithm"]), []).append(
            float(row["reward"]))
    with open(summary_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "algorithm", "runs", "mean_reward",
                         "stddev_reward"])
        for (scheme, algorithm), values in sorted(groups.items()):
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            writer.writerow([scheme, algorithm, len(values),
                             _num(statistics.mean(values)), _num(sd)])
    return summary_out


def cmd_bench(args):
    schemes = DEFAULT_SCHEMES
    algorithms = DEFAULT_ALGORITHMS
    n, m, q, k = args.n, args.m, args.q, args.k
    seeds = [int(x) for x in args.seeds.split(",") if x]
    time_limit = args.time_limit
    if args.suite and args.suite != "default":
        config = _read_suite_config(args.suite)
        schemes = config.get("schemes", ",".join(schemes)).split(",")
        algorithms = config.get("algorithms", ",".join(algorithms)).split(",")
        seeds = [int(x) for x in config.get("seeds", args.seeds).split(",")]
        n = int(config.get("n", n))
        m = int(config.get("m", m))
        q = float(config.get("q", q))
        if "k" in config:
            k = int(config["k"])
        time_limit = float(config.get("time_limit", time_limit))
    if args.schemes:
        schemes = args.schemes.split(",")
    if args.algorithms:
        algorithms = args.algorithms.split(",")
    for name in algorithms:
        if name not in SOLVERS:
            raise UsageError("unknown algorithm %r" % name)
    for scheme in schemes:
        if scheme not in generators.SCHEMES:
            raise UsageError("unknown scheme %r" % scheme)
    rows = run_bench(schemes, algorithms, seeds, n, m, q, k=k,
                     time_limit=time_limit)
    summary = write_bench_csv(rows, args.out, args.summary_out)
    print("wrote %d rows to %s (summary: %s)" % (len(rows), args.out, summary))
    return EXIT_OK


def cmd_verify(args):
    inst = core.read_instance(args.instance)
    problems = core.validate_instance(inst)
    if problems:
        print("invalid instance: " + "; ".join(problems), file=sys.stderr)
        return EXIT_VALIDATION
    mode = Mode.MATCHING if args.mode == "matching" else Mode.MAPPING
    alloc = core.read_allocation(args.allocation, mode=mode)
    problems = core.validate_allocation(inst, alloc)
    if problems:
        print("invalid allocation: " + "; ".join(problems), file=sys.stderr)
        return EXIT_VALIDATION
    reward = core.expected_reward(inst, alloc)
    # residual of the backward decomposition against direct evaluation
    residual = 0.0
    for j in range(inst.num_slots + 1):
        direct = core.suffix_reward(inst, alloc, j)
        recon = sum(t.discount * t.tau for t in core.decompose(inst, alloc, j)
                    if t.occupied)
        residual = max(residual, abs(direct - recon) / max(1.0, abs(direct)))
    print("reward=%s size=%d decomposition_residual=%s"
          % (_num(reward), len(alloc), "%.3g" % residual))
    if args.simulate > 0:
        sim = oracle.simulate_sessions(inst, alloc, args.simulate, args.seed)
        print("simulated_mean=%s stderr=%s sessions=%d"
              % (_num(sim.mean), _num(sim.stderr), sim.sessions))
    return EXIT_OK


def cmd_slots_cdf(args):
    inst = core.read_instance(args.instance)
    m = inst.num_slots
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["allocation", "slot", "cdf"])
        for path in args.allocations:
            alloc = core.read_allocation(path)
            slots = sorted(alloc.slots())
            if not slots:
                print("warning: %s is empty, no CDF emitted" % path,
                      file=sys.stderr)
                continue
            idx = 0
            for j in range(1, m + 1):
                while idx < len(slots) and slots[idx] <= j:
                    idx += 1
                writer.writerow([path, j, _num(idx / len(slots))])
    print("wrote %s" % args.out)
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "bench": cmd_bench,
    "verify": cmd_verify,
    "slots-cdf": cmd_slots_cdf,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, core.FormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

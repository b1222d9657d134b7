"""Command-line front end: generate instances, run solvers, verify
allocations, simulate sessions, and run benchmark suites to CSV.

Exit codes: 0 success; 1 usage error, e.g. a negative ``--n`` or
``--simulate``, a NaN, infinite or negative ``--time-limit``, a
``--threshold`` that is neither ``auto`` nor a number or is given to a
solver other than online, ``--n`` for a scheme whose generator takes no n,
``--C`` for any scheme but adversarial, or another value the generator
refuses; 2 an invalid instance (read, or
generated from e.g. q >= 1) or allocation, a malformed input file or suite
file, or an input or output file that cannot be opened; 3 oracle guard
refusal.
``bench --time-limit`` never stops a run.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import dataclasses
import inspect
import json
import math
import statistics
import sys
import time
from functools import partial

from . import baselines, core, generators, oracle, postprocess
from .algorithms import backwards_greedy, nonoblivious_backwards_greedy
from .core import Mode

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


def _bruteforce(name, fn):
    def run(inst):
        t0 = time.perf_counter()
        alloc, _value = fn(inst)
        return core.solve_report(name, inst, alloc.entries, t0,
                                 mode=alloc.mode)
    return run


# name -> solver(inst, ...) -> SolveReport
SOLVERS = {
    "gb": partial(backwards_greedy, mode=Mode.MATCHING),
    "gb-mapping": partial(backwards_greedy, mode=Mode.MAPPING),
    "gbp": nonoblivious_backwards_greedy,
    "global": baselines.global_greedy,
    "forward": baselines.forward_greedy,
    "online": baselines.online_threshold,
    "mwm": baselines.mwm_baseline,
    "flow": baselines.flow_baseline,
    "flowg": baselines.flow_greedy,
    "bruteforce": _bruteforce("bruteforce", oracle.brute_force_matching),
    "bruteforce-mapping": _bruteforce("bruteforce-mapping",
                                      oracle.brute_force_mapping),
}


def _parameters(algorithm, threshold=None):
    """The parameters of solver ``algorithm``; a ``threshold`` for a solver
    that takes none is a UsageError."""
    takes = inspect.signature(SOLVERS[algorithm]).parameters
    if threshold is not None and "threshold" not in takes:
        raise UsageError("--threshold does not apply to solver %s" % algorithm)
    return takes


def run_solver(inst, algorithm, k=None, threshold=None):
    """Run one registered solver under an optional k-limit.  A solver whose
    signature takes ``max_assignments`` stops at k itself; any other is
    pruned to k by ``prune_to_k`` after the run, and its report keeps the
    solver's wall time and counters with the pruned allocation's reward.
    A ``threshold`` for a solver that takes none is a UsageError."""
    solver = SOLVERS[algorithm]
    takes = _parameters(algorithm, threshold)
    kwargs = {"threshold": threshold, "max_assignments": k}
    report = solver(inst, **{key: value for key, value in kwargs.items()
                             if key in takes and value is not None})
    if k is None or "max_assignments" in takes:
        return report
    alloc = postprocess.prune_to_k(inst, report.allocation, k)
    return dataclasses.replace(report, allocation=alloc,
                               expected_reward=core.expected_reward(inst, alloc))


DEFAULT_SCHEMES = ["symmetric", "finely_targeted", "heavy_top", "heavy_bottom"]
DEFAULT_ALGORITHMS = ["gb", "gbp", "global", "flowg", "flow", "mwm", "forward",
                   "online"]


class _SchemeDefault(int):
    """The value of an unset ``--n`` or ``--m``: the complete schemes'
    generator default.  ``_config`` gives every scheme its own generator's
    default instead."""


def _count(text):
    """argparse type: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError("not a non-negative integer: %r" % text)
    return int(text)


def _threshold(text):
    """argparse type: ``auto`` or a number that is not NaN (argparse itself
    refuses text that ``float`` cannot read)."""
    if text == "auto":
        return text
    if math.isnan(float(text)):
        raise argparse.ArgumentTypeError("NaN is not a threshold")
    return float(text)


def _seconds(text):
    """argparse type: a finite number of seconds >= 0."""
    if not 0.0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError("not a finite number >= 0: %r" % text)
    return float(text)


def _names(known):
    """argparse type: comma-separated names, each one of ``known``."""
    def names(text):
        unknown = set(text.split(",")).difference(known)
        if unknown:
            raise argparse.ArgumentTypeError("unknown: %s" % ", ".join(unknown))
        return text.split(",")
    return names


def _size_flags(parser):
    help_tail = " (default: the scheme's generator default, %d for the " \
        "complete schemes)"
    parser.add_argument("--n", type=_count, default=_SchemeDefault(100),
                        help="number of ads; only the complete schemes take "
                             "it" + help_tail % 100)
    parser.add_argument("--m", type=_count, default=_SchemeDefault(1000),
                        help="number of slots" + help_tail % 1000)


def build_parser():
    parser = _Parser(prog="feedalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--scheme", required=True, choices=generators.SCHEMES)
    _size_flags(p)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--seed", type=_count, default=1)
    p.add_argument("--C", type=float, default=None,
                   help="large reward of the adversarial scheme, which "
                        "alone takes it (default 2^(2m-1))")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("solve", help="run one solver on an instance file")
    p.add_argument("instance")
    p.add_argument("algorithm", choices=sorted(SOLVERS))
    p.add_argument("--threshold", type=_threshold, default=None,
                   help="online only: auto (best slot-1 reward) or a number")
    p.add_argument("--k", type=_count, default=None)
    p.add_argument("--out-allocation", default=None)
    p.add_argument("--json", action="store_true",
                   help="print the report as one JSON object")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", default=None,
                   help="built-in suite name (default) or a key=value file "
                        "of flag values, which flags given here override")
    p.add_argument("--schemes", type=_names(generators.SCHEMES), default=None,
                   help="comma-separated schemes")
    p.add_argument("--algorithms", type=_names(sorted(SOLVERS)), default=None)
    p.add_argument("--seeds", default="1,2,3",
                   type=lambda text: [_count(x) for x in text.split(",")])
    _size_flags(p)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--k", type=_count, default=None)
    p.add_argument("--time-limit", type=_seconds, default=3600.0,
                   help="soft per-run wall-clock limit in seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", default=None)
    p.set_defaults(run=cmd_bench, parser=p)

    p = sub.add_parser("verify", help="validate an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--mode", choices=["matching", "mapping"], default="matching")
    p.add_argument("--simulate", type=_count, default=0)
    p.add_argument("--seed", type=_count, default=1)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("slots-cdf",
                       help="cumulative slot-index distribution of allocations")
    p.add_argument("instance")
    p.add_argument("allocations", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_slots_cdf)
    return parser


def _generate(config):
    """generators.generate, with a parameter it refuses as a usage error."""
    try:
        return generators.generate(config)
    except core.InvalidInstanceError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config(scheme, n, m, q, seed):
    """The GeneratorConfig of one scheme.  An unset n or m (None or a
    ``_SchemeDefault``) takes the scheme's generator default; an n for a
    scheme whose generator takes none is a usage error."""
    n, m = (None if x is None or isinstance(x, _SchemeDefault) else x
            for x in (n, m))
    if n is not None and scheme not in generators.SIZED_SCHEMES:
        raise UsageError("--n does not apply to scheme %s, whose generator "
                         "sets the number of ads" % scheme)
    return generators.GeneratorConfig(scheme=scheme, n=n, m=m, q=q, seed=seed)


def cmd_gen(args):
    config = _config(args.scheme, args.n, args.m, args.q, args.seed)
    if args.C is not None:
        config.params["C"] = args.C
    inst = _generate(config)
    core.write_instance(inst, args.out)
    edges = sum(len(ads) for _j, (ads, _rewards) in inst.rows())
    print("wrote %s: n=%d m=%d q=%s |E|=%d" % (args.out, inst.num_ads,
                                               inst.num_slots,
                                               _num(inst.quit_prob), edges))
    return EXIT_OK


def cmd_solve(args):
    _parameters(args.algorithm, args.threshold)    # before reading the file
    inst = core.read_instance(args.instance)
    report = run_solver(inst, args.algorithm, k=args.k,
                        threshold=args.threshold)
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


def _suite_defaults(path, parser):
    """A key=value suite file's values, each converted by the type of the
    bench flag of that name; any other key or a bad value is a FormatError."""
    types = {a.dest: a.type or str for a in parser._actions
             if a.dest not in ("help", "suite", "out", "summary_out")}
    values = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            key, _, value = (x.strip() for x in ln.partition("="))
            if not ln.strip() or key.startswith("#"):
                continue
            if key not in types:
                raise core.FormatError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                values[key] = types[key](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise core.FormatError("%s:%d: %s: %s"
                                       % (path, lineno, key, exc)) from None
    return values


def run_bench(schemes, algorithms, seeds, n, m, q, k=None, time_limit=3600.0):
    """Run the cross product and return BenchRow dicts in deterministic
    (scheme, seed, algorithm) order.  n and m are as in ``_config``."""
    for scheme in schemes:
        _config(scheme, n, m, q, 1)  # refuse a bad n before any run
    rows = []
    for scheme in schemes:
        for seed in seeds:
            inst = _generate(_config(scheme, n, m, q, seed))
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
                    "dataset": tag, "scheme": scheme, "n": inst.num_ads,
                    "m": inst.num_slots, "q": _num(q),
                    "k": "" if k is None else k, "algorithm": algorithm,
                    "reward": "" if status != "ok"
                              else _num(report.expected_reward),
                    "size": "" if report is None else len(report.allocation),
                    "seconds": _num(elapsed), "seed": seed, "status": status,
                })
    return rows


def write_bench_csv(rows, out, summary_out=None):
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    summary_out = summary_out or out + ".summary.csv"
    groups = {}
    for row in rows:
        if row["status"] == "ok":
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
    rows = run_bench(args.schemes or DEFAULT_SCHEMES,
                     args.algorithms or DEFAULT_ALGORITHMS, args.seeds,
                     args.n, args.m, args.q, k=args.k,
                     time_limit=args.time_limit)
    summary = write_bench_csv(rows, args.out, args.summary_out)
    print("wrote %d rows to %s (summary: %s)" % (len(rows), args.out, summary))
    return EXIT_OK


def cmd_verify(args):
    inst = core.read_instance(args.instance)
    alloc = core.read_allocation(args.allocation, mode=Mode(args.mode))
    pairs, q = core.checked_pairs(inst, alloc), inst.quit_prob
    reward = core.suffix_value(pairs, q)
    # residual of the backward decomposition against f_j at each entry and
    # at slot 0, a zero-reward entry: over a gap of d empty slots both sides
    # take one factor (1-q)^d, so the pass is O(|M|) however large m is
    points = [(0, 0.0), *pairs]
    suffixes = core.entry_suffixes(points, q)
    residual = recon = tau = 0.0
    after = points[-1][0]
    for (slot, r), f in zip(reversed(points), reversed(suffixes)):
        recon = (1.0 - q) ** (after - slot) * (recon + tau)
        residual = max(residual, abs(f - recon) / max(1.0, abs(f)))
        after, tau = slot, r - q * f
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
    # a CDF of slots holds for either mode, so ads may repeat
    allocs = [core.read_allocation(path, Mode.MAPPING)
              for path in args.allocations]
    for path, alloc in zip(args.allocations, allocs):
        try:
            core.checked_pairs(inst, alloc)
        except core.InvalidAllocationError as exc:
            raise core.InvalidAllocationError("%s: %s" % (path, exc)) from None
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["allocation", "slot", "cdf"])
        for path, alloc in zip(args.allocations, allocs):
            slots = sorted(alloc.slots())
            if not slots:
                print("warning: %s is empty, no CDF emitted" % path,
                      file=sys.stderr)
                continue
            for j in range(1, m + 1):
                writer.writerow([path, j, _num(bisect.bisect_right(slots, j)
                                               / len(slots))])
    print("wrote %s" % args.out)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench" and args.suite not in (None, "default"):
            # the file's values become the defaults the command line overrides
            args.parser.set_defaults(**_suite_defaults(args.suite, args.parser))
            args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except oracle.OracleGuardError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    except (OSError, core.FormatError, core.InvalidInstanceError,
            core.InvalidAllocationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

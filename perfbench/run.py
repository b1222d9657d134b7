"""feedalloc benchmark: one named workload per run, from the repository root.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Each run starts fresh workload processes (``workload.py``) with one BLAS and
OpenMP thread and the checkout's ``src`` on the import path.  With
``--trace 0`` it prints the end-to-end metrics: ``setup_s`` is the median of
``SETUP_SAMPLES`` set-ups (interpreter start, ``import feedalloc``, and
generating and constructing every instance of the workload), and the other
metrics come from the last process, which measures for ``--seconds``.
``wall_s`` and ``setup_s`` are scaled to the reference speed of the
calibration kernel in ``probe.py``, run just before and after each timed
sample; the raw times are printed and recorded beside them.  With
``--trace 1`` one process runs every job untraced and traced in turn and the
run prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every run appends its provenance, per-job rewards and solver counters to
``perfbench/out/runs.jsonl`` and flags a reward or counter that differs from
an earlier run of the same source tree, workload and seed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe
from metrics import END_TO_END, LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "sessions")
SETUP_SAMPLES = 7
TIME_LIMIT = 170.0        # seconds for the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

class RunError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"     # set and dict orders repeat across runs
    return env


def run_child(args, env, root, deadline):
    """Run one workload process; return (seconds until it printed ``ready``,
    the same scaled to the probe's reference speed, its last stdout line).
    The process is killed at ``deadline``."""
    cmd = [sys.executable, str(HERE / "workload.py")] + args
    before = probe.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=root)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        after = probe.probe()
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError("workload process %s exited with %s" % (args, code))
    return (setup, probe.scaled(setup, [before, after]),
            rest[-1] if rest else None)


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_hash(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root, args):
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_hash(root),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def job_outputs(result):
    return {job["name"]: {"reward": job.get("reward"),
                          "counters": job.get("counters")}
            for job in result["jobs"]}


def determinism_flags(history, prov, outputs):
    """Differences in a job's reward or counters from earlier runs of the
    same source tree, workload, seed and size."""
    key = ("source_sha256", "workload", "seed", "tiny")
    flags = []
    if not history.exists():
        return flags
    with open(history) as fh:
        for line in fh:
            past = json.loads(line)
            if any(past["provenance"][k] != prov[k] for k in key):
                continue
            for name, old in past["jobs"].items():
                new = outputs.get(name)
                if new is not None and old["reward"] is not None \
                        and new["reward"] is not None and new != old:
                    flags.append("%s differs from the run of %s: %s -> %s"
                                 % (name, past["provenance"]["time"], old, new))
    return flags


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every instance (smoke tests)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for runs.jsonl and span files")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "feedalloc" / "__init__.py").is_file():
        print("error: run from the repository root (no src/feedalloc here)",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + TIME_LIMIT
    env = child_env(root)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--tiny"] if args.tiny else []

    prov = provenance(root, args)
    setups = []           # (raw, scaled) seconds per set-up
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(base + ["--setup-only"], env, root,
                                        deadline)[:2])
        spans_file = out_dir / ("spans-%s-seed%d.jsonl"
                                % (args.workload, args.seed))
        *setup, line = run_child(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spans-out", str(spans_file)], env, root, deadline)
        setups.append(tuple(setup))
        result = json.loads(line)
    except (RunError, TypeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    history = out_dir / "runs.jsonl"
    outputs = job_outputs(result)
    flags = determinism_flags(history, prov, outputs)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _better in LAYER_METRICS}
    else:
        values = {"wall_s": result["wall_s"],
                  "setup_s": statistics.median(s for _raw, s in setups),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "reward_ratio": result["reward_ratio"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in END_TO_END}
    record = {"provenance": prov, "setup_samples": setups,
              "attempted": result["attempted"], "failed": result["failed"],
              "wall_s": result["wall_s"], "wall_raw_s": result["wall_raw_s"],
              "probe_s": result["probe_s"],
              "reward_sum": result["reward_sum"],
              "metrics": metrics, "flags": flags, "jobs": outputs,
              "samples": {job["name"]: {k: job[k] for k in
                                        ("times", "probes", "traced_times")}
                          for job in result["jobs"]}}
    with open(history, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    report(prov, result, metrics, flags, setups)
    print(json.dumps({"correct": result["failed"] == 0 and not flags,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def report(prov, result, metrics, flags, setups):
    """Human-readable summary, printed before the JSON line."""
    print("# %s seed=%d commit=%s src=%s python=%s numpy=%s scipy=%s "
          "nproc=%s cpu=%s" % (prov["workload"], prov["seed"],
                               prov["git_commit"], prov["source_sha256"][:12],
                               prov["python"], prov["numpy"], prov["scipy"],
                               prov["nproc"], prov["cpu_model"]))
    for job in result["jobs"]:
        times = job["times"] or job["traced_times"]
        print("job %-40s runs=%d median_s=%s reward=%r counters=%s%s"
              % (job["name"], len(times),
                 "%.4f" % statistics.median(times) if times else "-",
                 job.get("reward"), json.dumps(job.get("counters")),
                 "" if not job["failures"] else " FAILED %s" % job["problems"]))
    print("setup samples (s, raw/scaled): %s"
          % ", ".join("%.4f/%.4f" % s for s in setups))
    print("wall_raw_s = %r s (unscaled); median probe %s s"
          % (result["wall_raw_s"], result["probe_s"]))
    print("reward_sum = %r reward units" % result["reward_sum"])
    print("fail_rate = %d/%d (failed/attempted job runs)"
          % (result["failed"], result["attempted"]))
    for flag in flags:
        print("FLAG nondeterministic: %s" % flag)
    for name, metric in metrics.items():
        print("%s = %r %s" % (name, metric["value"], metric["unit"]))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: commands, formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings

from conftest import (allocation_file_bytes, make_rng, random_matching,
                      sparse_instance)
from feedalloc import cli, core
from feedalloc.core import Allocation, ProblemInstance


def _write_inst(tmp_path, name="inst.txt", n=3, m=4, q=0.1, edges=None):
    if edges is None:
        edges = [(1, 1, 5.0), (2, 2, 3.0), (3, 4, 7.0), (1, 3, 2.0)]
    inst = ProblemInstance(num_ads=n, num_slots=m, quit_prob=q,
                           edges=tuple(edges))
    path = tmp_path / name
    core.write_instance(inst, path)
    return inst, str(path)


def test_gen_writes_readable_instance(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    code = cli.main(["gen", "--scheme", "symmetric", "--n", "4", "--m", "6",
                     "--q", "0.2", "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "n=4 m=6" in capsys.readouterr().out
    inst = core.read_instance(out)
    assert inst.num_ads == 4 and inst.num_slots == 6


def test_gen_defaults_to_the_scheme_generator_size(tmp_path, capsys):
    out = tmp_path / "sb.txt"
    assert cli.main(["gen", "--scheme", "session_blocks", "--out", str(out)]) \
        == cli.EXIT_OK
    assert "n=14400 m=1440 q=0.1 |E|=144000" in capsys.readouterr().out
    inst = core.read_instance(out)
    assert (inst.num_ads, inst.num_slots, len(inst.edges)) \
        == (14400, 1440, 144000)
    assert cli.main(["gen", "--scheme", "session_youtube", "--m", "30",
                     "--out", str(out)]) == cli.EXIT_OK
    assert "n=120 m=30 " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gen", "--scheme", "session_blocks", "--n", "100"],
    ["gen", "--scheme", "session_youtube", "--n", "5", "--m", "10"],
    ["gen", "--scheme", "adversarial", "--n", "5", "--m", "10"],
    ["gen", "--scheme", "adversarial"],            # no m, no default
    ["gen", "--scheme", "adversarial", "--m", "600"],  # 2^(2m-1) overflows
    ["bench", "--schemes", "symmetric,session_blocks", "--n", "5"],
    ["gen", "--scheme", "symmetric", "--m", "10", "--C", "5"],
    ["gen", "--scheme", "session_youtube", "--m", "20", "--C", "5"],
])
def test_size_a_scheme_does_not_take_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert "usage error: " in capsys.readouterr().err
    assert not out.exists()


def test_bench_sizes_each_scheme_by_its_generator(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--schemes", "session_youtube,symmetric",
                     "--algorithms", "gbp", "--seeds", "1", "--m", "12",
                     "--out", str(out)]) == cli.EXIT_OK
    with open(out, newline="") as fh:
        sizes = [(row["scheme"], row["n"], row["m"])
                 for row in csv.DictReader(fh)]
    assert sizes == [("session_youtube", "120", "12"),
                     ("symmetric", "100", "12")]


def test_solve_reports_reward_and_writes_allocation(tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    alloc_out = tmp_path / "alloc.txt"
    code = cli.main(["solve", path, "gb", "--out-allocation", str(alloc_out)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "algorithm=gb" in out and "reward=" in out
    alloc = core.read_allocation(alloc_out)
    assert core.validate_allocation(inst, alloc) == []


def test_solve_json_prints_one_report_object(tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    alloc_out = tmp_path / "alloc.txt"
    code = cli.main(["solve", path, "gb", "--json", "--out-allocation",
                     str(alloc_out)])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["algorithm", "counters", "reward", "seconds",
                              "size"]
    alloc = core.read_allocation(alloc_out)
    assert report["algorithm"] == "gb"
    assert report["reward"] == core.expected_reward(inst, alloc)
    assert report["size"] == len(alloc)
    assert report["seconds"] >= 0.0
    assert sorted(report["counters"]) == ["commits", "gain_evals",
                                          "reassignments"]


def test_solve_all_registered_algorithms(tmp_path):
    _inst, path = _write_inst(tmp_path)
    for name in cli.SOLVERS:
        assert cli.main(["solve", path, name]) == cli.EXIT_OK


def test_solve_with_k_prunes(tmp_path, capsys):
    _inst, path = _write_inst(tmp_path)
    assert cli.main(["solve", path, "gb", "--k", "1"]) == cli.EXIT_OK
    assert "size=1" in capsys.readouterr().out


def test_run_solver_passes_k_to_the_solvers_whose_signature_takes_it(
        tmp_path, monkeypatch):
    inst, _path = _write_inst(tmp_path)
    prune, pruned = cli.postprocess.prune_to_k, []
    monkeypatch.setattr(cli.postprocess, "prune_to_k",
                        lambda *args: pruned.append(args) or prune(*args))
    native = set()
    for name, solver in cli.SOLVERS.items():
        pruned.clear()
        report = cli.run_solver(inst, name, k=1)
        if pruned:
            expected = prune(inst, solver(inst).allocation, 1)
        else:
            native.add(name)
            expected = solver(inst, max_assignments=1).allocation
        assert report.allocation.entries == expected.entries, name
        assert report.expected_reward == core.expected_reward(inst, expected)
    assert native == {"global", "forward", "online", "flow"}


def test_solve_and_bench_apply_k_alike(tmp_path, capsys):
    # solve and bench share one policy for passing k natively or pruning
    inst_path = tmp_path / "inst.txt"
    config = ["--scheme", "heavy_top", "--n", "5", "--m", "8", "--q", "0.1",
              "--seed", "2"]
    assert cli.main(["gen"] + config + ["--out", str(inst_path)]) \
        == cli.EXIT_OK
    names = [name for name in cli.SOLVERS if not name.startswith("bruteforce")]
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--schemes", "heavy_top", "--algorithms",
                     ",".join(names), "--seeds", "2", "--n", "5", "--m", "8",
                     "--q", "0.1", "--k", "3", "--out", str(out)]) \
        == cli.EXIT_OK
    with open(out, newline="") as fh:
        bench = {row["algorithm"]: row for row in csv.DictReader(fh)}
    capsys.readouterr()
    for name in names:
        assert cli.main(["solve", str(inst_path), name, "--k", "3",
                         "--json"]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert cli._num(report["reward"]) == bench[name]["reward"], name
        assert report["size"] == int(bench[name]["size"])
        assert report["size"] <= 3, name


def test_row_walking_solvers_take_two_edges_under_a_billion_slots(tmp_path):
    # forward, online, mwm and flow walk only the slots that have edges, and
    # verify only the entries: a scan or a power table over slots 1..m would
    # take minutes here.  Slot 999 999 999's term underflows to 0.
    path = tmp_path / "huge.txt"
    path.write_text("2 1000000000 0.1\n1 5 3.0\n2 999999999 7.0\n")
    alloc_path = tmp_path / "forward.txt"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\nfrom feedalloc import cli\n"
            "for name in ('forward', 'online', 'mwm', 'flow'):\n"
            "    assert cli.main(['solve', sys.argv[1], name, '--json']) == 0\n"
            "assert cli.main(['solve', sys.argv[1], 'forward',\n"
            "                 '--out-allocation', sys.argv[2]]) == 0\n"
            "assert cli.main(['verify', sys.argv[1], sys.argv[2]]) == 0\n")
    out = subprocess.run([sys.executable, "-c", code, str(path),
                          str(alloc_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=30).stdout
    lines = out.splitlines()
    reports = [json.loads(line) for line in lines[:4]]
    assert [r["algorithm"] for r in reports] == ["forward", "online", "mwm",
                                                 "flow"]
    assert all(r["reward"] == 3 * 0.9 ** 5 for r in reports)
    fields = dict(f.split("=") for f in lines[-1].split())
    assert fields["reward"] == cli._num(3 * 0.9 ** 5)
    assert float(fields["decomposition_residual"]) <= 1e-9


def test_solve_invalid_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "badq.txt"
    bad.write_text("2 2 1.5\n1 1 1.0\n")
    assert cli.main(["solve", str(bad), "gb"]) == cli.EXIT_VALIDATION
    assert "%s: invalid instance: quit_prob" % bad in capsys.readouterr().err


def test_invalid_instance_from_gen_or_file_exits_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["gen", "--scheme", "symmetric", "--n", "3", "--m", "4",
                     "--q", "1.5", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "quit_prob" in capsys.readouterr().err
    assert not out.exists()
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1.5\n1 1 1.0\n")
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 1\n")
    assert cli.main(["slots-cdf", str(bad), str(alloc_path), "--out",
                     str(tmp_path / "cdf.csv")]) == cli.EXIT_VALIDATION


def test_a_size_of_2_53_or_more_exits_2(tmp_path, capsys):
    # above 2**53 a float64 index column would merge distinct ads
    big = tmp_path / "big.txt"
    big.write_text("9007199254740992 2 0.1\n9007199254740991 1 1.0\n")
    assert cli.main(["solve", str(big), "mwm"]) == cli.EXIT_VALIDATION
    assert "%s: invalid instance: num_ads must be a non-negative integer " \
        "below 2**53" % big in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert cli.main(["solve", str(tmp_path / "none.txt"), "gb"]) \
        == cli.EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["verify", "{inst}", "{dir}"],                 # allocation
    ["solve", "{dir}", "gb"],                      # instance
    ["gen", "--scheme", "symmetric", "--n", "2", "--m", "3", "--out",
     "{dir}"],                                     # output file
])
def test_file_that_cannot_be_opened_exits_2(tmp_path, capsys, argv):
    _inst, path = _write_inst(tmp_path)
    argv = [arg.format(inst=path, dir=tmp_path) for arg in argv]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text, line", [
    ("1 1 abc\n", 1),                     # non-numeric header field
    ("2 2 0.1\n1 1 1.0\n\n1 2\n", 4),     # two-field edge line
    ("2 2 0.1\n1 1.5 1.0\n", 2),           # non-integer slot
])
def test_malformed_instance_exits_2(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert cli.main(["solve", str(bad), "gb"]) == cli.EXIT_VALIDATION
    assert "%s:%d:" % (bad, line) in capsys.readouterr().err


def test_malformed_allocation_exits_2(tmp_path, capsys):
    _inst, path = _write_inst(tmp_path)
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 1\n2 x\n")
    assert cli.main(["verify", path, str(alloc_path)]) == cli.EXIT_VALIDATION
    assert "%s:2:" % alloc_path in capsys.readouterr().err
    alloc_path.write_text("1 1 1\n")
    assert cli.main(["slots-cdf", path, str(alloc_path), "--out",
                     str(tmp_path / "cdf.csv")]) == cli.EXIT_VALIDATION


@settings(max_examples=60, deadline=None)
@given(allocation_file_bytes())
def test_verify_fuzzed_allocation_exits_0_or_2(content):
    with tempfile.TemporaryDirectory() as tmp:
        _inst, path = _write_inst(pathlib.Path(tmp))
        alloc_path = os.path.join(tmp, "alloc.txt")
        with open(alloc_path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path, alloc_path])
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    assert (code == cli.EXIT_OK) == ("reward=" in out.getvalue())
    assert "Traceback" not in err.getvalue()


def test_usage_error_exits_1(tmp_path):
    _inst, path = _write_inst(tmp_path)
    assert cli.main(["solve", path, "definitely-not-a-solver"]) \
        == cli.EXIT_USAGE
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_oracle_guard_exits_3(tmp_path):
    edges = [(i, j, 1.0) for i in range(1, 10) for j in range(1, 10)]
    _inst, path = _write_inst(tmp_path, n=9, m=9, edges=edges)
    assert cli.main(["solve", path, "bruteforce"]) == cli.EXIT_GUARD


def test_verify_reports_residual_and_simulation(tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    alloc = Allocation(entries=((1, 1), (2, 2)))
    alloc_path = tmp_path / "alloc.txt"
    core.write_allocation(alloc, alloc_path)
    code = cli.main(["verify", path, str(alloc_path), "--simulate", "1000"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "decomposition_residual=" in out
    assert "simulated_mean=" in out


def test_verify_rejects_invalid_allocation(tmp_path, capsys):
    _inst, path = _write_inst(tmp_path)
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 2\n")  # no edge (ad 2, slot 1)
    assert cli.main(["verify", path, str(alloc_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        "error: invalid allocation: entry (slot 1, ad 2)")


def test_verify_residual_reads_a_wrong_suffix(tmp_path, capsys, monkeypatch):
    # a verify that always printed 0 would pass every upper bound above
    _inst, path = _write_inst(tmp_path)
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 1\n2 2\n4 3\n")
    entry_suffixes = core.entry_suffixes

    def skewed(pairs, q):
        suffixes = entry_suffixes(pairs, q)
        suffixes[-1] += 1e-3    # the last entry's f is 0
        return suffixes

    monkeypatch.setattr(core, "entry_suffixes", skewed)
    assert cli.main(["verify", path, str(alloc_path)]) == cli.EXIT_OK
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert float(fields["decomposition_residual"]) >= 1e-4


def per_slot_residual(inst, alloc):
    """Reference verify check: ``suffix_reward`` against the sum of
    ``decompose``'s terms, recomputed from scratch at every j."""
    residual = 0.0
    for j in range(inst.num_slots + 1):
        direct = core.suffix_reward(inst, alloc, j)
        recon = sum(t.discount * t.tau for t in core.decompose(inst, alloc, j)
                    if t.occupied)
        residual = max(residual, abs(direct - recon) / max(1.0, abs(direct)))
    return residual


@pytest.mark.parametrize("q", [0.0, 0.1, 0.9])
def test_verify_matches_per_slot_oracle(tmp_path, capsys, q):
    rng = make_rng(71)
    for idx in range(25):
        inst = sparse_instance(rng, n_max=6, m_max=12, q_choices=(q,))
        alloc = Allocation(()) if idx == 0 else random_matching(inst, rng)
        inst_path = tmp_path / "inst.txt"
        alloc_path = tmp_path / "alloc.txt"
        core.write_instance(inst, inst_path)
        core.write_allocation(alloc, alloc_path)
        assert cli.main(["verify", str(inst_path), str(alloc_path)]) \
            == cli.EXIT_OK
        fields = dict(f.split("=") for f in capsys.readouterr().out.split())
        assert fields["reward"] == cli._num(core.expected_reward(inst, alloc))
        assert fields["size"] == str(len(alloc))
        assert float(fields["decomposition_residual"]) <= 1e-9
        assert per_slot_residual(inst, alloc) <= 1e-9


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    summary = tmp_path / "summary.csv"
    code = cli.main(["bench", "--schemes", "symmetric,finely_targeted",
                     "--algorithms", "gbp,forward", "--seeds", "1,2",
                     "--n", "5", "--m", "10", "--q", "0.1",
                     "--out", str(out), "--summary-out", str(summary)])
    assert code == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2
    assert set(rows[0]) == set(cli.BENCH_COLUMNS)
    assert all(row["status"] == "ok" for row in rows)
    with open(summary, newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert len(srows) == 4  # scheme x algorithm groups


def test_bench_records_refused_bruteforce_rows(tmp_path):
    # 5 x 10 complete graph: too many edges for the brute-force guard
    out = tmp_path / "bench.csv"
    summary = tmp_path / "summary.csv"
    code = cli.main(["bench", "--schemes", "symmetric",
                     "--algorithms", "bruteforce,gbp", "--seeds", "1",
                     "--n", "5", "--m", "10", "--out", str(out),
                     "--summary-out", str(summary)])
    assert code == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["refused", "ok"]
    assert rows[0]["reward"] == "" and rows[0]["size"] == ""
    assert float(rows[1]["reward"]) > 0.0
    with open(summary, newline="") as fh:
        assert [row["algorithm"] for row in csv.DictReader(fh)] == ["gbp"]


def test_bench_suite_config_file(tmp_path):
    suite = tmp_path / "suite.cfg"
    suite.write_text("schemes=symmetric\nalgorithms=forward\nseeds=1\n"
                     "n=4\nm=6\nq=0.2\n")
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--suite", str(suite), "--out", str(out)]) \
        == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "symmetric"
    assert (rows[0]["n"], rows[0]["m"], rows[0]["q"]) == ("4", "6", "0.2")
    # a flag on the command line wins over the file, for every key
    assert cli.main(["bench", "--suite", str(suite), "--n", "7", "--seeds",
                     "2,3", "--schemes", "heavy_top", "--out", str(out)]) \
        == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["scheme"], r["n"], r["m"], r["seed"]) for r in rows] \
        == [("heavy_top", "7", "6", "2"), ("heavy_top", "7", "6", "3")]


@pytest.mark.parametrize("text, line", [
    ("n=abc\n", 1),                        # value the flag's type rejects
    ("schemes=symmetric\nseed=1\n", 2),    # unknown (misspelt) key
    ("algorithms=forward,nope\n", 1),      # unknown solver name
    ("# comment\n\nm=-3\n", 3),            # negative size
    ("seeds=1,x\n", 1),
    ("n=4\n=5\n", 2),                      # value without a key
])
def test_malformed_suite_file_exits_2(tmp_path, capsys, text, line):
    suite = tmp_path / "suite.cfg"
    suite.write_text(text)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--suite", str(suite), "--out", str(out)]) \
        == cli.EXIT_VALIDATION
    assert "%s:%d:" % (suite, line) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--seeds", "1,x"],
    ["bench", "--seeds", ","],
    ["bench", "--n", "-1"],
    ["bench", "--m", "-1"],
    ["bench", "--k", "-1"],
    ["gen", "--scheme", "symmetric", "--n", "-1"],
    ["gen", "--scheme", "symmetric", "--m", "x"],
    ["gen", "--scheme", "adversarial", "--m", "1"],
    ["solve", "INSTANCE", "online", "--threshold", "abc"],
    ["solve", "INSTANCE", "online", "--threshold", "nan"],
    ["solve", "INSTANCE", "gb", "--threshold", "5"],  # online alone takes it
    ["bench", "--time-limit", "nan"],
    ["bench", "--time-limit", "inf"],
    ["bench", "--time-limit", "-1"],
])
def test_malformed_flag_exits_1(tmp_path, argv):
    _inst, path = _write_inst(tmp_path)
    argv = [path if arg == "INSTANCE" else arg for arg in argv]
    out = tmp_path / "out.txt"  # --out abbreviates solve's --out-allocation
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()


def test_a_threshold_is_refused_before_the_instance_is_read(tmp_path, capsys):
    # the refusal does not wait for, or depend on, the instance file
    missing = str(tmp_path / "missing.txt")
    assert cli.main(["solve", missing, "gb", "--threshold", "5"]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: --threshold does not apply to solver gb")
    assert "missing.txt" not in err
    assert cli.main(["solve", missing, "online", "--threshold", "5"]) \
        == cli.EXIT_VALIDATION
    assert "missing.txt" in capsys.readouterr().err


def test_bench_rejects_unknown_names(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--algorithms", "nope", "--out", str(out)]) \
        == cli.EXIT_USAGE
    assert cli.main(["bench", "--schemes", "nope", "--out", str(out)]) \
        == cli.EXIT_USAGE


def test_slots_cdf(tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    alloc = Allocation(entries=((1, 1), (4, 3)))
    alloc_path = tmp_path / "alloc.txt"
    core.write_allocation(alloc, alloc_path)
    out = tmp_path / "cdf.csv"
    assert cli.main(["slots-cdf", path, str(alloc_path), "--out", str(out)]) \
        == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == inst.num_slots
    assert float(rows[0]["cdf"]) == pytest.approx(0.5)
    assert float(rows[-1]["cdf"]) == pytest.approx(1.0)


def test_slots_cdf_refuses_an_invalid_allocation(tmp_path, capsys):
    edges = [(1, j, 1.0) for j in range(1, 9)] + [(2, 3, 2.0)]
    _inst, path = _write_inst(tmp_path, n=2, m=8, edges=edges)
    good = tmp_path / "good.txt"
    good.write_text("1 1\n3 2\n")
    out = tmp_path / "cdf.csv"
    for text in ("1 1\n9 1\n",          # slot 9 of an m = 8 instance
                 "1 1\n1 1\n",          # slot 1 twice
                 "2 2\n"):              # no edge (ad 2, slot 2)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert cli.main(["slots-cdf", path, str(good), str(bad), "--out",
                         str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: %s: invalid allocation: " % bad)
        assert "Traceback" not in err
        assert not out.exists()


def test_slots_cdf_takes_a_mapping_allocation(tmp_path):
    _inst, path = _write_inst(tmp_path, n=1, m=3,
                              edges=[(1, 1, 1.0), (1, 3, 2.0)])
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 1\n3 1\n")   # ad 1 twice: a mapping
    out = tmp_path / "cdf.csv"
    assert cli.main(["slots-cdf", path, str(alloc_path), "--out", str(out)]) \
        == cli.EXIT_OK
    with open(out, newline="") as fh:
        assert [row["cdf"] for row in csv.DictReader(fh)] == ["0.5", "0.5", "1"]


@pytest.mark.parametrize("count", ["-5", "2.5"])
def test_verify_simulate_takes_a_count(tmp_path, capsys, count):
    _inst, path = _write_inst(tmp_path)
    alloc_path = tmp_path / "alloc.txt"
    alloc_path.write_text("1 1\n")
    assert cli.main(["verify", path, str(alloc_path), "--simulate", count]) \
        == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: argument --simulate: ")
    assert captured.out == ""


def test_time_limit_takes_finite_seconds():
    parser = cli.build_parser()
    for text, value in (("0", 0.0), ("1.5", 1.5), ("1e3", 1000.0)):
        args = parser.parse_args(["bench", "--time-limit", text, "--out", "x"])
        assert args.time_limit == value


def test_solve_online_takes_threshold_auto(tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    assert cli.main(["solve", path, "online", "--threshold", "auto",
                     "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # auto: the best reward at slot 1, so only the 7.0 at slot 4 exceeds it
    assert report["counters"]["threshold"] == 5.0
    assert report["size"] == 1
    assert report["reward"] == core.expected_reward(
        inst, Allocation(entries=((4, 3),)))


def test_solve_refuses_an_infinite_threshold(tmp_path, capsys):
    # inf commits nothing and -inf no more than a low finite threshold, and
    # --json would print either as a bare Infinity, which is not JSON
    inst, path = _write_inst(tmp_path)
    out = tmp_path / "alloc.txt"
    for flags in (["--threshold", "inf"], ["--threshold", "-inf"],
                  ["--threshold=-inf"], ["--threshold=+inf"]):
        assert cli.main(["solve", path, "online", *flags, "--json",
                         "--out-allocation", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:"), flags
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()
    # a negative threshold is written with "=" and commits every ad
    assert cli.main(["solve", path, "online", "--threshold=-2.5", "--json",
                     "--out-allocation", str(out)]) == cli.EXIT_OK
    def refuse(constant):     # Infinity and NaN are not JSON
        raise ValueError(constant)
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["counters"]["threshold"] == -2.5
    assert report["size"] == 3
    assert core.read_allocation(out).entries == ((1, 1), (2, 2), (4, 3))


def test_bench_marks_a_run_over_its_time_limit_timeout(tmp_path):
    out, summary = tmp_path / "bench.csv", tmp_path / "summary.csv"
    assert cli.main(["bench", "--schemes", "symmetric", "--algorithms",
                     "gbp,forward", "--seeds", "1,2", "--n", "3", "--m", "4",
                     "--time-limit", "0", "--out", str(out),
                     "--summary-out", str(summary)]) == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["timeout"] * 4
    assert [row["reward"] for row in rows] == [""] * 4
    with open(summary, newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_slots_cdf_warns_of_an_empty_allocation_and_writes_the_others(
        tmp_path, capsys):
    inst, path = _write_inst(tmp_path)
    empty, good = tmp_path / "empty.txt", tmp_path / "good.txt"
    empty.write_text("")
    good.write_text("1 1\n4 3\n")
    out = tmp_path / "cdf.csv"
    assert cli.main(["slots-cdf", path, str(empty), str(good), "--out",
                     str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err \
        == "warning: %s is empty, no CDF emitted\n" % empty
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["allocation"] for row in rows] == [str(good)] * inst.num_slots
    assert [row["cdf"] for row in rows] == ["0.5", "0.5", "0.5", "1"]


def test_gen_refuses_more_slots_per_block_than_slots(tmp_path, capsys):
    out = tmp_path / "sb.txt"
    assert cli.main(["gen", "--scheme", "session_blocks", "--m", "5",
                     "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: slots_per_block ")
    assert not out.exists()

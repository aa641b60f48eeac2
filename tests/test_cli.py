import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alctrie
import alctrie.cli
from alctrie import montecarlo
from alctrie.analysis import prob_poisson_ge2
from alctrie.cli import build_parser, main
from alctrie.lctrie import compress, depth
from alctrie.source import SourceParams, generate_keys, trial_seed
from alctrie.trie import alpha_fillup_level, tabulate_profile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_predict_prints_both_predictors(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "65536", "--p", "0.7",
                           "--alpha", "0.5")
    assert code == 0
    rows = {r["model"]: r for r in csv_rows(out)}
    closed = float(rows["fixed_n:closed_form"]["value"])
    calibrated = float(rows["fixed_n:calibrated"]["value"])
    assert abs(closed - calibrated) <= 3.0
    assert float(rows["fixed_n:depth_alpha_lc"]["value"]) == pytest.approx(
        0.4539, abs=1e-3)
    assert float(rows["fixed_n:depth_full_lc"]["value"]) == pytest.approx(
        0.9790, abs=1e-3)


def test_predict_symmetric_source_omits_depth_constants(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "1024", "--p", "0.5",
                           "--alpha", "0.5")
    assert code == 0
    models = [r["model"] for r in csv_rows(out)]
    assert models == ["fixed_n:closed_form", "fixed_n:calibrated"]


def test_expect_symmetric_poisson_closed_form(capsys):
    code, out, _ = run_cli(capsys, "expect", "--p", "0.5", "--lambda", "1024",
                           "--k", "0..20")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 21
    for row in rows:
        k = int(row["k"])
        assert float(row["value"]) == pytest.approx(
            prob_poisson_ge2(1024.0 * 2.0**-k), abs=1e-12)


def test_expect_single_level_and_fixed_n(capsys):
    code, out, _ = run_cli(capsys, "expect", "--p", "0.7", "--n", "64",
                           "--k", "0")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 1 and rows[0]["model"] == "fixed_n"
    assert float(rows[0]["value"]) == 1.0


def test_query_empty_keyfile(tmp_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("# nothing here\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("0101\n11\n")
    code, out, _ = run_cli(capsys, "query", "--keys", str(keys),
                           "--queries", str(queries))
    assert code == 0
    assert out == "none\nnone\n"


def test_query_cidr_match(tmp_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("11.0.0.0/8\n10.0.0.0/16\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("10.0.0.1/32\n")
    code, out, _ = run_cli(capsys, "query", "--keys", str(keys),
                           "--queries", str(queries), "--alpha", "0.5")
    assert code == 0
    assert out == "1,16\n"


def test_build_stats(tmp_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("00\n01\n10\n11\n")
    code, out, _ = run_cli(capsys, "build", "--keys", str(keys),
                           "--alpha", "1.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["keys"] == 4
    assert payload["node_count"] == 1
    assert payload["consumed_histogram"] == {"2": 1}
    assert payload["empty_slot_fraction"] == 0.0


def test_seed_determines_output(capsys):
    args = ("sim-fillup", "--n", "64", "--p", "0.7", "--alpha", "0.5",
            "--trials", "8", "--seed", "17", "--jobs", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, third, _ = run_cli(capsys, "sim-fillup", "--n", "64", "--p", "0.7",
                          "--alpha", "0.5", "--trials", "8", "--seed", "18",
                          "--jobs", "1")
    assert third != first


def test_jobs_do_not_change_output(capsys):
    base = ("sim-depth", "--n", "32", "--p", "0.7", "--alpha", "0.5",
            "--trials", "6", "--seed", "3")
    _, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert serial == parallel


@pytest.mark.parametrize("p, alpha", [(0.5, 0.25), (0.7, 0.5), (0.9, 0.75)])
def test_jobs_do_not_change_output_with_widened_codes(capsys, p, alpha):
    # 1024 keys: at small alpha the root reads and sorts more than 8 bits
    for command in ("sim-depth", "sim-fillup"):
        base = (command, "--n", "1024", "--p", str(p), "--alpha", str(alpha),
                "--trials", "6", "--seed", "21")
        code, serial, _ = run_cli(capsys, *base, "--jobs", "1")
        assert code == 0
        _, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
        assert serial == parallel


def test_format_changes_encoding_not_values(capsys):
    base = ("sim-fillup", "--n", "32", "--p", "0.7", "--alpha", "0.5",
            "--trials", "5", "--seed", "11", "--jobs", "1")
    _, as_csv, _ = run_cli(capsys, *base, "--format", "csv")
    _, as_json, _ = run_cli(capsys, *base, "--format", "json")
    payload = json.loads(as_json)
    csv_f = [line.split(",")[2] for line in as_csv.strip().split("\n")[1:]]
    json_f = [str(row[2]) for row in payload["rows"]]
    assert csv_f == json_f


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["expect", "--p", "0.5", "--k", "0..3"])  # missing --n/--lambda
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bogus-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["predict", "--n", "100", "--lambda", "100", "--p", "0.7",
              "--alpha", "0.5"])
    assert err.value.code == 2


def test_sim_depth_without_n_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sim-depth", "--p", "0.7", "--alpha", "0.5"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("usage error: --n is required")
    assert "--lambda" not in message


@pytest.mark.parametrize("argv, message", [
    (["predict", "--n", "64", "--p", "1.5", "--alpha", "0.5"],
     "--p must lie strictly in (0, 1), got 1.5"),
    (["expect", "--n", "64", "--p", "0.7", "--k", "0", "--alpha", "1.0"],
     "--alpha must lie strictly in (0, 1), got 1.0"),
    (["predict", "--n", "64", "--p", "0.5", "--alpha", "1.0"],
     "--alpha must lie strictly in (0, 1), got 1.0"),
    (["sim-depth", "--n", "64", "--p", "0", "--alpha", "0.5"],
     "--p must lie strictly in (0, 1), got 0.0"),
    (["build", "--keys", "missing.txt", "--alpha", "0"],
     "--alpha must lie in (0, 1], got 0.0"),
    (["query", "--keys", "missing.txt", "--queries", "missing.txt",
      "--alpha", "1.5"], "--alpha must lie in (0, 1], got 1.5"),
    (["sim-fillup", "--n", "64", "--p", "0.5", "--alpha", "1.5"],
     "--alpha must lie in (0, 1], got 1.5"),
    (["sim-depth", "--n", "64", "--p", "0.5", "--alpha", "0"],
     "--alpha must lie in (0, 1], got 0.0"),
])
def test_fraction_outside_its_domain_is_a_usage_error(capsys, argv, message):
    # checked before any key file is read
    with pytest.raises(SystemExit) as err:
        main(argv)
    out = capsys.readouterr()
    assert (err.value.code, out.out, out.err) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # a seed outside 64 bits would alias another seed's output, or fail in
    # numpy's generator for the Poisson sizes
    (["sim-fillup", "--n", "64", "--seed", "-1"],
     "--seed must lie in [0, 2**64), got -1"),
    (["sim-fillup", "--lambda", "30", "--seed", "-1"],
     "--seed must lie in [0, 2**64), got -1"),
    (["sim-depth", "--n", "64", "--seed", str(2**64)],
     f"--seed must lie in [0, 2**64), got {2**64}"),
    (["sim-fillup", "--n", "64", "--trials", "0"],
     "--trials must be at least 1, got 0"),
    (["sim-depth", "--n", "64", "--trials", "-2"],
     "--trials must be at least 1, got -2"),
    (["sim-fillup", "--n", "64", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["sim-depth", "--n", "64", "--jobs", "-3"], "--jobs must be at least 1, got -3"),
    (["sim-fillup", "--n", "-5"], "--n must be at least 0, got -5"),
    (["sim-depth", "--n", "-5"], "--n must be at least 2, got -5"),
    (["sim-depth", "--n", "1"], "--n must be at least 2, got 1"),
    (["predict", "--n", "-1"], "--n must be at least 2, got -1"),
    (["predict", "--n", "1"], "--n must be at least 2, got 1"),
    (["predict", "--lambda", "1.5"], "--lambda must be at least 2, got 1.5"),
    (["predict", "--lambda", "inf"], "--lambda must be positive and finite, got inf"),
    (["expect", "--k", "2", "--lambda", "inf"],
     "--lambda must be positive and finite, got inf"),
    (["expect", "--k", "2", "--lambda", "0"],
     "--lambda must be positive and finite, got 0.0"),
    (["sim-fillup", "--lambda", "inf"], "--lambda must be positive and finite, got inf"),
    (["sim-fillup", "--lambda", "nan"], "--lambda must be positive and finite, got nan"),
    (["sim-fillup", "--lambda", "-1"], "--lambda must be positive and finite, got -1.0"),
])
def test_count_outside_its_domain_is_a_usage_error(capsys, monkeypatch, argv,
                                                   message):
    # checked before any trial runs
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(montecarlo, "_run_trials", no_trials)
    with pytest.raises(SystemExit) as err:
        main([*argv, "--p", "0.7", "--alpha", "0.5"])
    out = capsys.readouterr()
    assert (err.value.code, out.out, out.err) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("levels", ["-3..1", "-2", "5..4"])
def test_bad_level_range_is_a_usage_error(capsys, levels):
    with pytest.raises(SystemExit) as err:
        main(["expect", "--n", "64", "--p", "0.7", f"--k={levels}"])
    out = capsys.readouterr()
    assert (err.value.code, out.out) == (2, "")
    assert "argument --k:" in out.err


def test_last_seed_in_range_runs(capsys):
    base = ("sim-fillup", "--n", "64", "--p", "0.7", "--alpha", "0.5",
            "--trials", "4", "--jobs", "1", "--seed")
    code, last, _ = run_cli(capsys, *base, str(2**64 - 1))
    _, first, _ = run_cli(capsys, *base, "0")
    assert code == 0 and last != first


def test_simulations_take_the_classic_alpha_of_one(capsys):
    # alpha = 1: the classic fillup level and the depth in the classic LC trie
    base = ("--n", "64", "--p", "0.7", "--alpha", "1.0", "--trials", "6",
            "--seed", "5", "--jobs", "1")
    code, fillup, _ = run_cli(capsys, "sim-fillup", *base)
    assert code == 0
    code, depths, _ = run_cli(capsys, "sim-depth", *base)
    assert code == 0
    for f_row, d_row in zip(csv_rows(fillup), csv_rows(depths), strict=True):
        keys = generate_keys(SourceParams(0.7, trial_seed(5, int(f_row["trial"]))), 64)
        assert int(f_row["F"]) == alpha_fillup_level(tabulate_profile(keys), 1.0)
        assert int(d_row["D"]) == depth(compress(keys, 1.0), 0).depth


def test_runtime_error_exits_one(tmp_path, capsys):
    code = main(["build", "--keys", str(tmp_path / "missing.txt"),
                 "--alpha", "0.5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_parse_error_reports_line(tmp_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("01\nnot-a-key\n")
    code = main(["build", "--keys", str(keys), "--alpha", "0.5"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_build_rejects_nested_prefixes(tmp_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("10.0.0.0/8\n10.1.0.0/16\n")
    code, out, err = run_cli(capsys, "build", "--keys", str(keys),
                             "--alpha", "0.5")
    assert code == 1
    assert out == ""
    assert err == "error: line 2: key extends the 8-bit key on line 1\n"


def test_key_and_query_files_may_start_with_a_bom(tmp_path, capsys):
    runs = []
    for bom in ("", "\ufeff"):
        keys = tmp_path / f"keys{len(bom)}.txt"
        keys.write_text(bom + "11.0.0.0/8\n10.0.0.0/16\n", encoding="utf-8")
        queries = tmp_path / f"queries{len(bom)}.txt"
        queries.write_text(bom + "10.0.0.1/32\n0000101\n", encoding="utf-8")
        runs.append((run_cli(capsys, "build", "--keys", str(keys), "--alpha", "0.5"),
                     run_cli(capsys, "query", "--keys", str(keys), "--queries",
                             str(queries), "--alpha", "0.5")))
    assert runs[0] == runs[1]
    assert runs[0][1] == (0, "1,16\n0,7\n", "")


@pytest.mark.parametrize("keys_text, message", [
    ("10.0.0.0/8\n1.2.3.\u00b2/24\n", "line 2: bad IPv4 octet '\u00b2'"),
    ("0101\n# comment\n01x1\n", "line 3: expected 0/1 characters or CIDR, got '01x1'"),
    ("1.2.3.4/+8\n", "line 1: bad prefix length '+8'"),
    ("0\n1.2.3.4/33\n", "line 2: prefix length 33 outside 0..32"),
    ("10.0.0.0/8\n\n00001010\n", "line 3: duplicate key '00001010' (same bits as line 1)"),
])
def test_build_rejects_bad_key_lines(tmp_path, capsys, keys_text, message):
    keys = tmp_path / "keys.txt"
    keys.write_text(keys_text, encoding="utf-8")
    # query loads its keys before it opens the queries
    for command in (("build",), ("query", "--queries", str(keys))):
        code, out, err = run_cli(capsys, *command, "--keys", str(keys),
                                 "--alpha", "0.5")
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_query_rejects_bad_query_line(tmp_path, capsys, monkeypatch):
    keys = tmp_path / "keys.txt"
    keys.write_text("00\n01\n1\n")
    queries = tmp_path / "queries.txt"
    queries.write_text("0101\n# comment\n1.2.3.4/-1\n")
    # the whole query file is parsed before the first lookup
    looked_up = []
    monkeypatch.setattr(alctrie.cli, "longest_prefix_match",
                        lambda trie, query: looked_up.append(query))
    code, out, err = run_cli(capsys, "query", "--keys", str(keys),
                             "--queries", str(queries))
    assert (code, out, err) == (1, "", "error: line 3: bad prefix length '-1'\n")
    assert looked_up == []


def test_build_long_shared_prefix(tmp_path, capsys):
    # two keys sharing 2,500 bits nest about 1,250 nodes deep, past Python's
    # recursion limit; sharing 5,000 bits passes the 4,096-level depth cap
    keys = tmp_path / "keys.txt"
    keys.write_text("0" * 2500 + "0\n" + "0" * 2500 + "1\n")
    code, out, err = run_cli(capsys, "build", "--keys", str(keys),
                             "--alpha", "0.5", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["keys"] == 2
    assert payload["max_depth"] == payload["node_count"] == 1251
    keys.write_text("0" * 5000 + "0\n" + "0" * 5000 + "1\n")
    code, out, err = run_cli(capsys, "build", "--keys", str(keys),
                             "--alpha", "0.5")
    assert (code, out) == (1, "")
    assert err == "error: compression exceeded depth cap 4096 at level 4098\n"


@pytest.mark.parametrize("shared, alpha", [(40, "1e-12"), (70, "1e-21")])
def test_build_refuses_a_node_too_wide(tmp_path, capsys, shared, alpha):
    # a tiny alpha makes the root consume every shared level, 2**shared
    # slots: refused before any slot is allocated
    keys = tmp_path / "keys.txt"
    keys.write_text("0" * shared + "0\n" + "0" * shared + "1\n")
    code, out, err = run_cli(capsys, "build", "--keys", str(keys), "--alpha", alpha)
    assert (code, out) == (1, "")
    assert err == (f"error: node at level 0 would consume {shared} levels: "
                   f"2**{shared} slots, more than 2**32\n")


def test_cli_import_leaves_out_the_process_pool():
    # only --jobs > 1 starts worker processes; the pool's module stays unloaded
    # until then, as it costs about 20 ms of every start
    path = [str(Path(alctrie.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, alctrie.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_help_documents_every_flag():
    parser = build_parser()
    expected = {
        "predict": ["--n", "--lambda", "--p", "--alpha", "--format"],
        "expect": ["--n", "--lambda", "--p", "--k", "--alpha", "--format"],
        "sim-fillup": ["--n", "--lambda", "--p", "--alpha", "--trials",
                       "--seed", "--jobs", "--format"],
        "sim-depth": ["--n", "--p", "--alpha", "--trials", "--seed", "--jobs",
                      "--format"],
        "build": ["--keys", "--alpha", "--format"],
        "query": ["--keys", "--queries", "--alpha", "--format"],
    }
    subactions = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, flags in expected.items():
        help_text = subactions.choices[name].format_help()
        for flag in flags:
            assert flag in help_text, f"{name} help missing {flag}"


# SHA-256 (first 16 hex digits) of what each command prints to stdout, in
# each encoding.  The key file holds 300 distinct /24 prefixes; the queries
# hit a stored /24, fall inside one, or diverge from every key.  Only an
# empty key set answers "none".
PINNED_RUNS = {
    "predict": ["predict", "--n", "65536", "--p", "0.7", "--alpha", "0.5"],
    "predict-poisson": ["predict", "--lambda", "1000.5", "--p", "0.5",
                        "--alpha", "0.25"],
    "expect": ["expect", "--n", "4096", "--p", "0.7", "--k", "0..14",
               "--alpha", "0.3"],
    "expect-poisson": ["expect", "--lambda", "1024", "--p", "0.5", "--k", "3..6"],
    # the levels the monte_carlo benchmark's set-up computes, most of whose
    # cells take the short binomial series
    "expect-deep": ["expect", "--n", "65536", "--p", "0.7", "--k", "0..52"],
    "sim-fillup": ["sim-fillup", "--n", "4096", "--p", "0.7", "--alpha", "0.5",
                   "--trials", "5", "--seed", "11", "--jobs", "1"],
    "sim-fillup-alpha1": ["sim-fillup", "--n", "4096", "--p", "0.7",
                          "--alpha", "1.0", "--trials", "5", "--seed", "11",
                          "--jobs", "1"],
    # a mean of 2.5 keys leaves some trials with fewer than two: empty F
    "sim-fillup-poisson": ["sim-fillup", "--lambda", "2.5", "--p", "0.7",
                           "--alpha", "0.5", "--trials", "5", "--seed", "11",
                           "--jobs", "1"],
    "sim-depth": ["sim-depth", "--n", "4096", "--p", "0.7", "--alpha", "0.5",
                  "--trials", "5", "--seed", "11", "--jobs", "1"],
    "sim-depth-alpha1": ["sim-depth", "--n", "4096", "--p", "0.7",
                         "--alpha", "1.0", "--trials", "5", "--seed", "11",
                         "--jobs", "1"],
    "build": ["build", "--keys", "{keys}", "--alpha", "0.5"],
    "query": ["query", "--keys", "{keys}", "--queries", "{queries}",
              "--alpha", "0.5"],
    "build-empty": ["build", "--keys", "{empty}", "--alpha", "1.0"],
    "query-empty": ["query", "--keys", "{empty}", "--queries", "{queries}"],
}

OUTPUT_DIGESTS = {
    ("predict", "csv"): "374d3c947120dc46",
    ("predict", "json"): "75aa176079993d9c",
    ("predict-poisson", "csv"): "5d1b5c572793267d",
    ("predict-poisson", "json"): "d7251fb314087e70",
    ("expect", "csv"): "b715c837b2ab7634",
    ("expect", "json"): "108999be589b253a",
    ("expect-poisson", "csv"): "350eb8bdd202c198",
    ("expect-poisson", "json"): "3c0f00e2746cdff2",
    ("expect-deep", "csv"): "c8844ed1df07004a",
    ("sim-fillup", "csv"): "04530721dcf42d38",
    ("sim-fillup", "json"): "48c2c2307eaa9b6d",
    ("sim-fillup-alpha1", "csv"): "1f8c3cecc37dba85",
    ("sim-fillup-alpha1", "json"): "82252aec28cecbfc",
    ("sim-fillup-poisson", "csv"): "707d5dc724011da3",
    ("sim-fillup-poisson", "json"): "39cce370fa0f4c0f",
    ("sim-depth", "csv"): "56495842ed3a29d9",
    ("sim-depth", "json"): "3cacbe02fb035182",
    ("sim-depth-alpha1", "csv"): "b2c2b0ac32e99c40",
    ("sim-depth-alpha1", "json"): "53a2203042080dde",
    ("build", "csv"): "657eb4b6d460860f",
    ("build", "json"): "fc49b88db9abe181",
    ("query", "csv"): "3df659330c376881",
    ("query", "json"): "674724682b34706a",
    ("build-empty", "csv"): "82ade09676a310db",
    ("build-empty", "json"): "f6670f81557d4c6e",
    ("query-empty", "csv"): "ef584d426fa0c3fb",
    ("query-empty", "json"): "29267c9496aee6db",
}


def _pinned_files(tmp_path):
    keys = tmp_path / "keys.txt"
    keys.write_text("".join(f"{10 + i % 7}.{(i * 37) % 256}.{i % 256}.0/24\n"
                            for i in range(300)))
    queries = tmp_path / "queries.txt"
    queries.write_text("10.0.0.0/24\n11.37.1.200/32\n10.0.0.9/32\n"
                       "192.168.1.1/32\n11.37.1.0/25\n0101\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("# no keys\n")
    return {"keys": str(keys), "queries": str(queries), "empty": str(empty)}


@pytest.mark.parametrize("run, fmt", sorted(OUTPUT_DIGESTS))
def test_every_command_output_is_pinned(tmp_path, capsys, run, fmt):
    files = _pinned_files(tmp_path)
    argv = [a.format(**files) for a in PINNED_RUNS[run]]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == OUTPUT_DIGESTS[run, fmt]

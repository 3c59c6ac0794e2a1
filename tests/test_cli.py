import json
import subprocess
import sys

import pytest

import mfl.cli as cli
from mfl.corpus import corpus_source
from mfl.eval_pure import Verdict


@pytest.fixture
def corpus_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.mfl"
        path.write_text(corpus_source(name), encoding="utf-8")
        return str(path)

    return write


def test_check_ok(corpus_file, capsys):
    assert cli.main(["check", corpus_file("fib")]) == 0
    assert capsys.readouterr().out.strip() == "int"


def test_check_reports_type_error(tmp_path, capsys):
    bad = tmp_path / "bad.mfl"
    bad.write_text("main mfun f (a : int) : int is return a end\n")
    assert cli.main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:1:" in err and "ResourceInReturn" in err


def test_check_reports_syntax_error_position(tmp_path, capsys):
    import re
    bad = tmp_path / "bad.mfl"
    bad.write_text("main (1,\n")
    assert cli.main(["check", str(bad)]) == 1
    assert re.search(rf"{re.escape(str(bad))}:\d+:\d+: syntax:",
                     capsys.readouterr().err)


def test_run_prints_value_and_stats(corpus_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code = cli.main(["run", corpus_file("fib"), "--seed", "3",
                     "--stats", str(stats)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "55"
    doc = json.loads(stats.read_text())
    assert doc["memo_misses"] == 11 and doc["memo_hits"] == 8
    assert doc["seed"] == 3
    assert set(doc) == {"seed", "steps", "memo_hits", "memo_misses", "probes",
                        "branch_events", "boxes_allocated", "max_branch_len",
                        "returns"}


def test_stats_json_bytes_deterministic(corpus_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["run", corpus_file("quicksort"), "--seed", "11", "--stats", str(a)])
    cli.main(["run", corpus_file("quicksort"), "--seed", "11", "--stats", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_run_pure_semantics(corpus_file, capsys):
    assert cli.main(["run", corpus_file("partial"), "--semantics", "pure",
                     "--seed", "0"]) == 0
    assert capsys.readouterr().out.strip() == "76"


def test_run_cold(corpus_file, tmp_path, capsys):
    stats = tmp_path / "s.json"
    cli.main(["run", corpus_file("fib"), "--cold", "--seed", "0",
              "--stats", str(stats)])
    capsys.readouterr()
    assert json.loads(stats.read_text())["memo_hits"] == 0


def test_diff_ok(corpus_file, capsys):
    assert cli.main(["diff", corpus_file("quicksort")]) == 0
    assert "ok" in capsys.readouterr().out


def test_diff_mismatch_exit_code(corpus_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "diff_check",
                        lambda program: Verdict(False, "forced for the test"))
    assert cli.main(["diff", corpus_file("fib")]) == 2
    assert "mismatch" in capsys.readouterr().out


def test_fuzz_clean(tmp_path, capsys):
    out = tmp_path / "failures"
    assert cli.main(["fuzz", "--count", "20", "--seed", "5",
                     "--out", str(out)]) == 0
    assert "20/20" in capsys.readouterr().out
    assert not out.exists()  # no failures, no directory


def test_fuzz_writes_counterexamples(tmp_path, capsys, monkeypatch):
    out = tmp_path / "failures"
    verdicts = iter([Verdict(True, "ok"), Verdict(False, "forced")])
    monkeypatch.setattr(cli, "diff_check", lambda program: next(verdicts))
    monkeypatch.setattr(cli, "call_with_deep_stack", lambda fn, *a: fn(*a))
    assert cli.main(["fuzz", "--count", "2", "--seed", "5",
                     "--out", str(out)]) == 2
    cases = list(out.glob("*.mfl"))
    assert len(cases) == 1
    capsys.readouterr()


def test_bench_schema(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "quicksort", "--sizes", "8,16", "--trials", "1",
                     "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["benchmark"] == "quicksort" and doc["seed"] == 2
    assert [row["n"] for row in doc["rows"]] == [8, 16]
    for row in doc["rows"]:
        assert set(row) == {"n", "fresh_steps", "rerun_steps",
                            "rerun_hits", "rerun_misses"}


def test_trace_schema(corpus_file, capsys):
    assert cli.main(["trace", corpus_file("partial"), "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list) and doc
    by_loc = {table["location"]: table["entries"] for table in doc}
    assert sorted(by_loc) == [0, 1, 2]
    mf_entries = by_loc[2]
    branches = sorted(tuple(map(tuple, e["branch"])) for e in mf_entries)
    assert branches == [((1, 0), (0, 20)), ((1, 1), (0, 11))]
    for entries in by_loc.values():
        for entry in entries:
            assert set(entry) == {"branch", "value"}
            for code in entry["branch"]:
                assert len(code) == 2


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["definitely-not-a-command"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_mfl_seed_env_fallback(corpus_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MFL_SEED", "77")
    stats = tmp_path / "s.json"
    cli.main(["run", corpus_file("fib"), "--stats", str(stats)])
    capsys.readouterr()
    assert json.loads(stats.read_text())["seed"] == 77


def test_console_script_smoke(corpus_file):
    proc = subprocess.run([sys.executable, "-m", "mfl.cli", "check",
                           corpus_file("hcons")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "box" in proc.stdout


def test_python_dash_m_mfl(corpus_file):
    proc = subprocess.run([sys.executable, "-m", "mfl", "run",
                           corpus_file("fib"), "--seed", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "55"

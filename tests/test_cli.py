import json
import os
import subprocess
import sys

import pytest

import mfl.cli as cli
import mfl.typecheck as typecheck
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


@pytest.mark.parametrize("src, where", [
    ("main \u00b2\n", "1:6"),
    ("val \u00e9t\u00e9 = 1 main \u00e9t\u00e9\n", "1:5"),
], ids=["superscript-two", "e-acute"])
def test_non_ascii_character_is_a_syntax_error(tmp_path, capsys, src, where):
    bad = tmp_path / "bad.mfl"
    bad.write_text(src, encoding="utf-8")
    assert cli.main(["run", str(bad), "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith(f"{bad}:{where}: syntax: unexpected character")


@pytest.mark.parametrize("levels", [150, 10_000])
def test_deep_nesting_runs_or_fails_cleanly(tmp_path, levels):
    # a fresh process, so the parser runs under the default recursion limit
    src = tmp_path / "deep.mfl"
    src.write_text("main " + "(" * levels + "1" + ")" * levels + "\n")
    proc = subprocess.run([sys.executable, "-m", "mfl", "run", str(src), "--seed", "0"],
                          capture_output=True, text=True)
    if levels == 150:
        assert (proc.returncode, proc.stdout.strip()) == (0, "1"), proc.stderr
    else:
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"{src}:1:") and "nesting too deep" in proc.stderr
        assert "Traceback" not in proc.stderr


CHAINS = {
    "operators": ("main " + " + ".join(["1"] * 2000) + "\n", {"run": "2000", "check": "int"}),
    "bangs": ("main " + "! " * 2000 + "1\n", None),  # `!!int` is not indexable
}


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("chain", CHAINS)
def test_long_chain_checks_without_exhaustion(tmp_path, chain, command):
    # a fresh process, so nothing has raised the recursion limit: the
    # typechecker recurses once per operator or bang
    src, printed = CHAINS[chain]
    path = tmp_path / f"{chain}.mfl"
    path.write_text(src)
    proc = subprocess.run([sys.executable, "-m", "mfl", command, str(path)],
                          capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    if printed:
        assert (proc.returncode, proc.stdout.strip()) == (0, printed[command]), proc.stderr
    else:
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"{path}:1:") and "NotIndexable" in proc.stderr


@pytest.mark.parametrize("exhaustion, message", [
    (RecursionError, "recursion too deep"), (MemoryError, "out of memory")])
def test_exhaustion_is_a_runtime_error(corpus_file, capsys, monkeypatch,
                                       exhaustion, message):
    def exhausted(*args):
        raise exhaustion()

    monkeypatch.setattr(cli, "run_program", exhausted)
    assert cli.main(["run", corpus_file("fib"), "--seed", "0"]) == 1
    assert capsys.readouterr().err == f"runtime error: {message}\n"


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


@pytest.mark.parametrize("flag", ["--cold", "--checked"])
def test_run_pure_rejects_memo_flags(corpus_file, capsys, flag):
    # the pure semantics has no tables to pay for or check
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", corpus_file("fib"), "--semantics", "pure", flag])
    assert exc.value.code == 64
    assert "--semantics memo" in capsys.readouterr().err


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


def _count_check_program(monkeypatch) -> list:
    """Route `check_program` in every module of mfl that imported it
    through a wrapper; the returned list grows by one per call."""
    calls, real = [], typecheck.check_program

    def counted(program):
        calls.append(program)
        return real(program)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mfl" and getattr(module, "check_program", None) is real:
            monkeypatch.setattr(module, "check_program", counted)
    return calls


def test_diff_typechecks_once(corpus_file, capsys, monkeypatch):
    calls = _count_check_program(monkeypatch)
    assert cli.main(["diff", corpus_file("fib")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_fuzz_typechecks_each_program_once(tmp_path, capsys, monkeypatch):
    calls = _count_check_program(monkeypatch)
    assert cli.main(["fuzz", "--count", "5", "--seed", "5",
                     "--out", str(tmp_path / "failures")]) == 0
    capsys.readouterr()
    assert len(calls) == 5  # gen_program checks what it returns


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


@pytest.mark.parametrize("args, env", [
    (["run", "/nonexistent.mfl"], {}),
    (["run", "{tmp}"], {}),
    (["run", "{fib}", "--seed", "0", "--stats", "{tmp}"], {}),
    (["bench", "quicksort", "--sizes", "abc", "--seed", "0"], {}),
    (["bench", "quicksort", "--sizes", "64,0", "--seed", "0"], {}),
    (["bench", "quicksort", "--sizes", "64", "--trials", "0", "--seed", "0"], {}),
    (["fuzz", "--count", "-2", "--seed", "0"], {}),
    (["fuzz", "--count", "1"], {"MFL_SEED": "abc"}),
], ids=["missing-file", "directory", "unwritable-stats", "sizes-not-int",
        "sizes-zero", "trials-zero", "count-negative", "seed-env-not-int"])
def test_bad_outside_input_is_a_one_line_usage_error(corpus_file, tmp_path, args, env):
    argv = [a.format(tmp=tmp_path, fib=corpus_file("fib")) for a in args]
    proc = subprocess.run([sys.executable, "-m", "mfl", *argv], capture_output=True,
                          text=True, env={**os.environ, **env})
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("mfl: error: ") and proc.stderr.count("\n") == 1


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

"""Golden-file tests for the command line and its exit-code contract."""

import subprocess
import sys
from pathlib import Path

import pytest

from redukto.fileformat import render_automaton

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "redukto.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


GOLDEN_CASES = [
    ("run_m_e_aaaa_trace.txt", ["run", "m_e", "aaaa", "--trace"]),
    ("run_m_e_aaa.txt", ["run", "m_e", "aaa"]),
    ("run_dyck1_trace.txt", ["run", "dyck1", "a1ā1a1ā1", "--trace"]),
    # Two rewrites a cycle, the second floored at position 0.
    ("run_lm_1_abcab_trace.txt", ["run", "lm_1", "abcab", "--trace"]),
    ("decide_m_e_basic_b.txt", ["decide", "m_e", "b", "--kind", "basic"]),
    ("decide_m_e_h_hproper_aaa.txt", ["decide", "m_e_h", "aaa", "--kind", "hproper"]),
    ("decide_dyck1_input.txt", ["decide", "dyck1", "a1ā1a1ā1", "--kind", "input"]),
    ("enum_dyck1_basic_4.txt", ["enum", "dyck1", "--kind", "basic", "--max-len", "4"]),
    ("check_m_e_mono.txt", ["check", "m_e", "--what", "mono", "--max-len", "8"]),
    ("check_dyck1_mono.txt", ["check", "dyck1", "--what", "mono", "--max-len", "10"]),
    ("check_m_e_forms.txt", ["check", "m_e", "--what", "forms"]),
    ("enum_m_e_input_9.txt", ["enum", "m_e", "--kind", "input", "--max-len", "9"]),
    ("enum_dyck1_input_4.txt", ["enum", "dyck1", "--kind", "input", "--max-len", "4"]),
    ("catalog.txt", ["catalog"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_golden(name, argv):
    proc = run_cli(*argv)
    got = "exit %d\n%s" % (proc.returncode, proc.stdout)
    assert got == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_witness_of_a_shrunk_automaton(tmp_path):
    # A nondeterministic witness from the branch search, whose rewrites
    # keep the tape's length.
    shrunk = tmp_path / "shrunk.rlww"
    assert run_cli("transform", "shrink", "m_e_h", "-o", str(shrunk)).returncode == 0
    proc = run_cli("run", str(shrunk), "aa", "--trace")
    got = "exit %d\n%s" % (proc.returncode, proc.stdout)
    assert got == (GOLDEN / "run_m_e_h_shrunk_aa_trace.txt").read_text(encoding="utf-8")


def test_run_exit_codes(tmp_path):
    assert run_cli("run", "m_e", "aaaa").returncode == 0
    assert run_cli("run", "m_e", "aaa").returncode == 1
    assert run_cli("run", "m_e", "zz").returncode == 3
    bad = tmp_path / "bad.rlww"
    bad.write_text("name x\nwindow nope\n", encoding="utf-8")
    proc = run_cli("run", str(bad), "a")
    assert proc.returncode == 3
    assert "line 2" in proc.stderr


def test_run_with_limits_exit():
    proc = run_cli("run", "m_e", "aaaaaaaa", "--limits", "configs=3")
    assert proc.returncode == 2


def test_a_run_takes_as_many_steps_per_cycle_as_its_budget_allows(dyck1):
    # The first cycle of a1^10001 ā1 takes 10,003 steps, the whole run
    # 20,004; only the configurations budget bounds them.
    opening, closing = sorted(dyck1.spec.input_alphabet)
    proc = run_cli("run", "dyck1", opening * 10_001 + closing)
    assert (proc.returncode, proc.stdout) == (1, "outcome: reject\n")


@pytest.mark.parametrize("limits", ["steps=3", "cycles=1"])
def test_only_the_configs_limit_is_taken(limits):
    import os

    stderr = "error: bad limits entry %r\n" % limits
    proc = run_cli("run", "dyck1", "a1ā1a1ā1", "--limits", limits)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr)
    env = dict(os.environ, REDUKTO_LIMITS=limits)
    proc = run_cli("run", "dyck1", "a1ā1a1ā1", env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr)


def test_limits_environment_override():
    import os

    env = dict(os.environ, REDUKTO_LIMITS="configs=3")
    proc = run_cli("run", "m_e", "aaaaaaaa", env=env)
    assert proc.returncode == 2
    # The environment sets a default for every command, also for a check
    # that reads no limit: cpp holds by theorem, deciding no word.
    env = dict(os.environ, REDUKTO_LIMITS="configs=5")
    proc = run_cli("check", "dyck1", "--what", "cpp", env=env)
    assert (proc.returncode, proc.stdout) == (
        0, "preservation(complete-correctness) at length <= 8: holds-up-to-bound\n")


def test_limits_take_ascii_digits_only():
    import os

    # "²" and "٣" pass str.isdigit; the first is no int() literal at all.
    for raw in ("²", "٣"):
        proc = run_cli("decide", "m_e", "aa", "--limits", "configs=" + raw)
        assert (proc.returncode, proc.stderr) == (3, "error: bad limits entry 'configs=%s'\n" % raw)
        env = dict(os.environ, REDUKTO_LIMITS="configs=" + raw)
        proc = run_cli("decide", "m_e", "aa", env=env)
        assert (proc.returncode, proc.stderr) == (3, "error: bad limits entry 'configs=%s'\n" % raw)


def test_a_repeated_limit_is_refused():
    import os

    stderr = "error: bad limits entry 'configs=100': configs is given twice\n"
    proc = run_cli("decide", "m_e", "aa", "--limits", "configs=1,configs=100")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr)
    env = dict(os.environ, REDUKTO_LIMITS="configs=1,configs=100")
    proc = run_cli("decide", "m_e", "aa", env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", stderr)


def test_decide_input_alphabet_violation():
    proc = run_cli("decide", "m_e", "b", "--kind", "input")
    assert proc.returncode == 3
    proc = run_cli("decide", "m_e_h", "b", "--kind", "hproper")
    assert proc.returncode == 3
    assert proc.stderr == "error: symbol 'b' is not an input symbol\n"
    proc = run_cli("decide", "m_e", "a", "--kind", "hproper")
    assert proc.returncode == 3
    assert proc.stderr == "error: automaton m_e carries no morphism\n"


@pytest.mark.parametrize("argv", [
    ("decide", "dyck1", "a1", "--kind", "hproper"),
    ("enum", "dyck1", "--kind", "hproper", "--max-len", "3"),
    ("transform", "shrink", "dyck1", "-o"),
])
def test_a_missing_morphism_is_named_alike_everywhere(argv, tmp_path):
    out = tmp_path / "shrunk.rlww"
    proc = run_cli(*argv, *([str(out)] if argv[-1] == "-o" else []))
    assert (proc.returncode, proc.stdout, out.exists()) == (3, "", False)
    assert proc.stderr == "error: automaton dyck1 carries no morphism\n"


def test_cycle_without_progress_is_invalid_input(tmp_path, heavy):
    path = tmp_path / "heavy.rlww"
    path.write_text(render_automaton(heavy), encoding="utf-8")
    argv = ["-m", "redukto.cli", "enum", str(path), "--kind", "basic", "--max-len", "19"]
    for optimize in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *optimize, *argv], capture_output=True, text=True)
        assert proc.returncode == 3, optimize
        assert proc.stderr == "error: cycle did not decrease the tape weight\n"


def test_recurring_word_is_invalid_input(tmp_path, swapper):
    path = tmp_path / "swapper.rlww"
    path.write_text(render_automaton(swapper), encoding="utf-8")
    proc = run_cli("decide", str(path), "ab")
    assert proc.returncode == 3
    assert proc.stderr == "error: restarting word ab recurs: a cycle made no progress\n"


def test_file_arguments_resolve(tmp_path):
    exported = tmp_path / "m_e.rlww"
    assert run_cli("catalog", "--export", "m_e", "-o", str(exported)).returncode == 0
    assert run_cli("run", str(exported), "aaaa").returncode == 0
    # Exported text matches the in-memory rendering byte for byte.
    from redukto.catalog import catalog_get
    from redukto.fileformat import render_automaton

    assert exported.read_text(encoding="utf-8") == render_automaton(
        catalog_get("m_e").spec
    )


def test_transform_pipeline_and_checks(tmp_path):
    grammar = tmp_path / "anbn.g"
    out = tmp_path / "anbn.rlww"
    assert run_cli("catalog", "--export", "anbn_gnf", "-o", str(grammar)).returncode == 0
    proc = run_cli("transform", "gnf2hrrwwc", str(grammar), "--window", "3",
                   "-o", str(out))
    assert proc.returncode == 0
    assert "used 4" in proc.stdout
    assert run_cli("check", str(out), "--what", "forms").returncode == 0
    assert run_cli("check", str(out), "--what", "det").returncode == 0
    proc = run_cli("decide", str(out), "aabb", "--kind", "hproper")
    assert proc.returncode == 0
    assert "witness: (1,a) (2,a) (3,b) (3,b)" in proc.stdout
    assert run_cli("decide", str(out), "abab", "--kind", "hproper").returncode == 1


def test_transform_window_cap_failure(tmp_path):
    grammar = tmp_path / "anbn.g"
    out = tmp_path / "anbn.rlww"
    run_cli("catalog", "--export", "anbn_gnf", "-o", str(grammar))
    proc = run_cli("transform", "gnf2hrrwwc", str(grammar), "--window", "2",
                   "--window-cap", "2", "-o", str(out))
    assert proc.returncode == 1
    assert "synthesis-failed" in proc.stdout


def test_transform_shrink(tmp_path):
    out = tmp_path / "m_e_h_shrunk.rlww"
    proc = run_cli("transform", "shrink", "m_e_h", "-o", str(out))
    assert proc.returncode == 0
    assert "a=3" in proc.stdout
    assert run_cli("check", str(out), "--what", "det").returncode == 1
    assert run_cli("check", str(out), "--what", "shrink", "--max-len", "6").returncode == 0


def test_cycle_correctness_is_checked_on_a_shrunk_automaton(tmp_path):
    # A wrong guess of the shrunk m_e_h rewrites a member into a non-member;
    # the deterministic m_e keeps it by theorem, deciding no word.
    out = tmp_path / "s.rlww"
    assert run_cli("transform", "shrink", "m_e_h", "-o", str(out)).returncode == 0
    proc = run_cli("check", str(out), "--what", "ccp")
    assert (proc.returncode, proc.stdout) == (1, (
        "preservation(cycle-correctness) at length <= 8: violated\n"
        "  word: a a^\n"
        "  cycle rewrites a a^ (member) to b a^ (non-member)\n"))
    proc = run_cli("check", str(out), "--what", "ccp", "--limits", "configs=5")
    assert proc.returncode == 2, proc.stdout
    assert "resource-exceeded (configs limit exceeded" in proc.stdout
    proc = run_cli("check", "m_e", "--what", "ccp", "--max-len", "3")
    assert (proc.returncode, proc.stdout) == (
        0, "preservation(cycle-correctness) at length <= 3: holds-up-to-bound\n")


def test_cmp_against_oracle():
    proc = run_cli("cmp", "m_e", "input", "oracle:m_e", "input", "--max-len", "12")
    assert proc.returncode == 0
    assert "equal up to length 12" in proc.stdout
    proc = run_cli("cmp", "dyck1", "input", "oracle:l_2", "input", "--max-len", "4")
    assert proc.returncode == 1
    assert "counterexample" in proc.stdout


def test_check_cycle_degree_override():
    assert run_cli("check", "lm_1", "--what", "cycle", "--max-len", "8").returncode == 0
    assert run_cli(
        "check", "lm_1", "--what", "cycle", "--max-len", "8", "--degree", "1"
    ).returncode == 1


@pytest.mark.parametrize("argv", [
    ["enum", "l_3", "--kind", "input", "--max-len", "16", "--limits", "configs=3"],
    ["enum", "l_3", "--kind", "input", "--max-len", "16", "--limits", "configs=6"],
    ["enum", "m_e", "--kind", "input", "--max-len", "40", "--limits", "configs=50"],
    ["cmp", "m_e", "input", "oracle:m_e", "input", "--max-len", "40", "--limits", "configs=50"],
    # 797,161 words, and no syntactic bound on the accepting tails.
    ["enum", "lm_3", "--kind", "basic", "--max-len", "12"],
])
def test_running_out_of_resources_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("resource-exceeded")


def test_running_out_of_resources_names_the_limit():
    proc = run_cli("enum", "m_e", "--kind", "input", "--max-len", "40", "--limits", "configs=50")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("resource-exceeded: configs limit exceeded while deciding ")


def test_tripped_limit_is_named(tmp_path, m_e_h_shrunk):
    shrunk = tmp_path / "shrunk.rlww"
    shrunk.write_text(render_automaton(m_e_h_shrunk[0]), encoding="utf-8")
    search = "note: nondeterministic automaton, deciding by search\n"
    for argv, stdout in (
        (["run", "m_e", "aaaaaaaa", "--limits", "configs=3"],
         "outcome: limit-exceeded (configs limit exceeded)\n"),
        (["run", "dyck1", "a1ā1a1ā1", "--limits", "configs=4"],
         "outcome: limit-exceeded (configs limit exceeded)\n"),
        (["run", str(shrunk), "aaaa", "--limits", "configs=5"],
         search + "outcome: limit-exceeded (configs limit exceeded)\n"),
        (["decide", "dyck1", "a1ā1a1ā1", "--limits", "configs=4"],
         "resource-exceeded: configs limit exceeded\n"),
        (["check", "dyck1", "--what", "epp", "--max-len", "8", "--limits", "configs=5"],
         "preservation(complete-error) at length <= 8: resource-exceeded"
         " (configs limit exceeded while running a1 a1 ā1)\n"),
        (["check", "m_e", "--what", "mono", "--max-len", "8", "--limits", "configs=3"],
         "monotonicity at length <= 8: resource-exceeded (configs limit exceeded)\n"),
        (["transform", "gnf2hrrwwc", "anbn_gnf", "-o", str(tmp_path / "anbn.rlww"),
          "--limits", "configs=10"],
         "resource-exceeded: configs limit exceeded in the monotonicity check\n"),
    ):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (2, stdout), argv


@pytest.mark.parametrize("argv", [
    ["run", "m_e"],
    ["enum", "m_e", "--max-len", "x"],
    ["check", "m_e", "--what", "bogus"],
    ["transform", "gnf2hrrwwc", "anbn_gnf", "-o", "unused.rlww", "--train", "8"],
    [],
    ["catalog", "-o", "unused.txt"],
    ["cmp", "oracle:l_3", "input", "oracle:l_3", "input", "--max-len", "-1"],
    ["cmp", "oracle:l_3", "input", "oracle:l_3", "input", "--max-len", "5", "--limits", "configs=5"],
])
def test_bad_usage_exits_3(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "error: " in proc.stderr


@pytest.mark.parametrize("what", ["mono", "cycle", "cpp", "ccp", "epp", "shrink", "cycle-degree"])
def test_check_with_a_negative_bound_exits_3(tmp_path, m_e_h_shrunk, what):
    automaton = "m_e_h"
    bound, error = ("--max-len", "-1"), "length bound must be non-negative"
    if what == "shrink":
        automaton = str(tmp_path / "shrunk.rlww")
        Path(automaton).write_text(render_automaton(m_e_h_shrunk[0]), encoding="utf-8")
    if what == "cycle-degree":
        what, bound, error = "cycle", ("--degree", "0"), "rewrite cap must be positive"
    proc = run_cli("check", automaton, "--what", what, *bound)
    assert proc.returncode == 3, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % error


@pytest.mark.parametrize("what, option", [
    ("det", "--max-len"),
    ("forms", "--max-len"),
    ("det", "--degree"),
    ("mono", "--degree"),
    ("cpp", "--degree"),
    ("ccp", "--degree"),
    ("shrink", "--degree"),
    ("det", "--limits"),
    ("forms", "--limits"),
    ("cpp", "--limits"),
    ("ccp", "--limits"),
])
def test_check_refuses_an_option_it_would_ignore(what, option):
    value = {"--max-len": "-1", "--degree": "5", "--limits": "configs=1"}[option]
    proc = run_cli("check", "m_e", "--what", what, option, value)
    assert proc.returncode == 3, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: %s " % option)


@pytest.mark.parametrize("option, value", [
    ("--limits", "configs=1"),
    ("--window", "5"),
    ("--window-cap", "5"),
])
def test_transform_shrink_refuses_an_option_it_would_ignore(tmp_path, option, value):
    out = tmp_path / "shrunk.rlww"
    proc = run_cli("transform", "shrink", "m_e_h", "-o", str(out), option, value)
    assert proc.returncode == 3, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr == "error: %s does not apply to transform shrink\n" % option
    assert not out.exists()


def test_check_det_reports_no_length_bound():
    proc = run_cli("check", "m_e", "--what", "det")
    assert (proc.returncode, proc.stdout) == (0, "determinism: holds-up-to-bound\n")


def test_module_entry_point_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "redukto", "decide", "m_e", "aaaa"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "member\n"), proc.stderr
    proc = subprocess.run([sys.executable, "-m", "redukto", "check", "m_e", "--what", "mono",
                           "--max-len", "-1"], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


def test_help_exits_0():
    for argv in (["--help"], ["check", "--help"]):
        proc = run_cli(*argv)
        assert proc.returncode == 0, argv
        assert proc.stdout.startswith("usage: redukto")


def test_run_decides_a_nondeterministic_automaton_by_search(tmp_path):
    shrunk = tmp_path / "shrunk.rlww"
    assert run_cli("transform", "shrink", "m_e_h", "-o", str(shrunk)).returncode == 0
    note = "note: nondeterministic automaton, deciding by search\n"
    proc = run_cli("run", str(shrunk), "aaaa")
    assert (proc.returncode, proc.stdout) == (0, note + "outcome: accept\n")
    proc = run_cli("run", str(shrunk), "aaaa", "--trace")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == note.strip() and lines[-1] == "outcome: accept"
    assert any("\tRestart\t" in line for line in lines)


def test_word_arguments():
    # Whitespace-separated tokens, an unknown token, and "-" for the empty word.
    proc = run_cli("decide", "dyck1", "a1 ā1")
    assert (proc.returncode, proc.stdout) == (0, "member\n")
    proc = run_cli("decide", "dyck1", "a1 zz")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: unknown symbol 'zz'\n")
    assert run_cli("decide", "dyck1", "-").stdout == "member\n"
    assert run_cli("decide", "m_e", "-").stdout == "non-member\n"



def test_transform_refuses_a_window_cap_below_the_window(tmp_path):
    out = tmp_path / "cap.rlww"
    proc = run_cli("transform", "gnf2hrrwwc", "anbn_gnf", "--window", "4",
                   "--window-cap", "2", "-o", str(out))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: window cap 2 is below the window size 4\n"
    assert not out.exists()


def cli(capsys, *argv):
    """Exit code, stdout and stderr of the command line run in-process."""
    from redukto.cli import main

    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_run_on_a_nondeterministic_automaton_that_rejects(tmp_path, capsys, m_e_h_shrunk):
    shrunk = tmp_path / "shrunk.rlww"
    shrunk.write_text(render_automaton(m_e_h_shrunk[0]), encoding="utf-8")
    assert cli(capsys, "run", str(shrunk), "ba") == (
        1, "note: nondeterministic automaton, deciding by search\noutcome: reject\n", "")


def test_automaton_arguments_that_name_no_valid_automaton_exit_3(tmp_path, capsys):
    invalid = tmp_path / "invalid.rlww"
    invalid.write_text("name x\nwindow 1\nstates q0\ninitial q1\n", encoding="utf-8")
    for ref, message in (
        ("nope", "no file or catalog entry named 'nope'"),
        ("anbn_gnf", "'anbn_gnf' names a grammar, not an automaton"),
        (str(invalid), "initial state 'q1' not among states"),
    ):
        assert cli(capsys, "decide", ref, "a") == (3, "", "error: %s\n" % message)


def test_a_deterministic_file_that_offers_a_choice_exits_3(tmp_path, capsys):
    chooser = tmp_path / "chooser.rlww"
    chooser.write_text("name chooser\nclass RR CL none det j=1\nwindow 1\ninput a\nwork a\n"
                       "states q0\ninitial q0\ntrans q0 a -> MVR q0\ntrans q0 a -> Reject\n",
                       encoding="utf-8")
    assert cli(capsys, "decide", str(chooser), "a") == (
        3, "", "error: deterministic flag but 2 instructions at (q0, a)\n")


def test_check_shrink_without_weights_exits_3(capsys):
    assert cli(capsys, "check", "m_e", "--what", "shrink") == (
        3, "", "error: automaton m_e carries no weight function\n")


def test_catalog_export_without_output_prints_the_file(capsys, m_e):
    assert cli(capsys, "catalog", "--export", "m_e") == (0, render_automaton(m_e.spec), "")


def test_running_out_of_memory_exits_2_without_a_verdict(capsys, monkeypatch):
    from redukto import cli as cli_module

    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli_module, "cmd_decide", exhaust)
    assert cli(capsys, "decide", "m_e", "aaaa") == (
        2, "", "error: out of memory before the configs limit tripped; lower --limits configs=N\n")

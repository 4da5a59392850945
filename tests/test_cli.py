"""Command-line behavior: exit codes, files written, output text."""

import re

import pytest

from autostruct.cli import main
from autostruct.formats import parse_fsa, parse_rules
from autostruct.fsa import coreachable

GRID = """\
version 1
generators x y
inverse x X
inverse y Y
order wreathshortlex
lexorder x X y Y
level x 1
level y 2
relation y x = x y
"""


@pytest.fixture()
def grid_file(tmp_path):
    f = tmp_path / "grid.pres"
    f.write_text(GRID)
    return f


@pytest.fixture()
def grid_out(grid_file, tmp_path):
    out = tmp_path / "out"
    assert main(["autostructure", str(grid_file), "-o", str(out)]) == 0
    return out


def test_autostructure_writes_the_full_bundle(grid_out, capsys):
    names = {p.name for p in grid_out.iterdir()}
    assert {"W.fsa", "D.fsa", "R.rws", "report.txt", "M_e.fsa"} <= names
    assert {"M_x.fsa", "M_X.fsa", "M_y.fsa", "M_Y.fsa"} <= names
    report = (grid_out / "report.txt").read_text()
    assert "outcome: verified" in report
    assert "word acceptor states: 5" in report
    assert "difference machine states: 9" in report


def test_autostructure_exit_two_on_loop_limit(tmp_path, capsys):
    f = tmp_path / "double.pres"
    f.write_text(GRID.replace("relation y x = x y", "relation y x = x x y"))
    out = tmp_path / "out"
    code = main([
        "autostructure", str(f), "-o", str(out), "--max-loops", "2",
    ])
    assert code == 2
    assert "loop-limit" in (out / "report.txt").read_text()
    # partial output still lands so the run can be inspected
    assert (out / "D.fsa").exists()
    assert (out / "R.rws").exists()


def test_autostructure_reports_a_stalled_repair(tmp_path, capsys):
    f = tmp_path / "knot52.pres"
    assert main(["family", "KNOT52"]) == 0
    f.write_text(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["autostructure", str(f), "-o", str(out)]) == 2
    report = (out / "report.txt").read_text()
    assert "outcome: loop-limit" in report
    assert "correction loops: 2" in report
    assert "stopped by: stalled in stage repair\n" in report


def test_autostructure_prune_shrinks_only_the_difference_machine(tmp_path, capsys):
    f = tmp_path / "bs22.pres"
    assert main(["family", "BSpq", "2", "2"]) == 0
    f.write_text(capsys.readouterr().out)
    plain, pruned = tmp_path / "plain", tmp_path / "pruned"
    assert main(["autostructure", str(f), "-o", str(plain)]) == 0
    assert main(["autostructure", str(f), "-o", str(pruned), "--prune"]) == 0
    assert parse_fsa((plain / "D.fsa").read_text()).num_states == 41
    assert parse_fsa((pruned / "D.fsa").read_text()).num_states == 27
    names = {p.name for p in plain.iterdir()}
    assert names == {p.name for p in pruned.iterdir()}
    machines = {"R.rws", "W.fsa"} | {n for n in names if n.startswith("M_")}
    assert "M_e.fsa" in machines and len(machines) == 7
    for name in machines:
        assert (pruned / name).read_bytes() == (plain / name).read_bytes(), name
    report = (pruned / "report.txt").read_text()
    assert "difference machine states: 27\n" in report
    assert "difference machine states before pruning: 41\n" in report
    assert "before pruning" not in (plain / "report.txt").read_text()


def test_autostructure_removes_an_earlier_runs_machines(tmp_path, capsys):
    f = tmp_path / "bs11.pres"
    assert main(["family", "BSpq", "1", "1"]) == 0
    f.write_text(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["autostructure", str(f), "-o", str(out)]) == 0
    assert (out / "W.fsa").exists()
    code = main(["autostructure", str(f), "-o", str(out), "--kb-max-rules", "2"])
    assert code == 2
    assert "outcome: kb-stopped" in (out / "report.txt").read_text()
    assert {p.name for p in out.iterdir()} == {"R.rws", "report.txt"}


# report.txt of each run less its seconds line: (family arguments, run
# flags, the lines)
REPORTS = {
    "verified": (
        ["KNOT41", "--wirtinger"], [], """\
outcome: verified
order: shortlex
alphabet: x X y Y z Z t T
rules: 104
confluent: no
correction loops: 0
difference machine states: 21
word acceptor states: 18
multiplier states:
  M_e: 18
  M_T: 62
  M_X: 62
  M_Y: 62
  M_Z: 62
  M_t: 62
  M_x: 62
  M_y: 62
  M_z: 62
"""),
    "pruned": (
        ["BSpq", "2", "2"], ["--prune"], """\
outcome: verified
order: wreathshortlex
alphabet: x X y Y
rules: 8
confluent: yes
correction loops: 1
difference machine states: 27
difference machine states before pruning: 41
word acceptor states: 6
multiplier states:
  M_e: 6
  M_X: 7
  M_Y: 23
  M_x: 7
  M_y: 23
"""),
    "kb-stopped": (
        ["BSpq", "2", "2"], ["--kb-max-rules", "2"], """\
outcome: kb-stopped
order: wreathshortlex
alphabet: x X y Y
rules: 5
confluent: no
correction loops: 0
stopped by: rules cap 2 in stage kb
"""),
    "loop-cap": (
        ["BSpq", "1", "2"], ["--max-loops", "1"], """\
outcome: loop-limit
order: wreathshortlex
alphabet: x X y Y
rules: 8
confluent: yes
correction loops: 2
difference machine states: 19
word acceptor states: 6
multiplier states:
  M_e: 6
  M_X: 7
  M_Y: 21
  M_x: 7
  M_y: 21
witness: ('y', ('Y', 'X', 'X', 'X', 'X'))
stopped by: correction loops cap 1 in stage domains
"""),
    "stalled": (
        ["KNOT52"], [], """\
outcome: loop-limit
order: shortlex
alphabet: a A x X y Y z Z t T u U
rules: 164
confluent: no
correction loops: 2
difference machine states: 60
word acceptor states: 26
multiplier states:
  M_e: 26
  M_A: 27
  M_T: 119
  M_U: 120
  M_X: 119
  M_Y: 119
  M_Z: 119
  M_a: 27
  M_t: 119
  M_u: 120
  M_x: 119
  M_y: 119
  M_z: 119
witness: ('a', ('U', 'T'))
stopped by: stalled in stage repair
"""),
    "product-cap": (
        ["KNOT74", "--wirtinger"], [], """\
outcome: loop-limit
order: shortlex
alphabet: x X y Y z Z t T u U v V w W
rules: 745
confluent: no
correction loops: 0
difference machine states: 103
stopped by: states cap 100000 in stage multipliers
"""),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_autostructure_report_lines_are_pinned(tmp_path, capsys, case):
    family, flags, want = REPORTS[case]
    f = tmp_path / "in.pres"
    assert main(["family", *family]) == 0
    f.write_text(capsys.readouterr().out)
    out = tmp_path / "out"
    code = main(["autostructure", str(f), "-o", str(out), *flags])
    assert code == (0 if want.startswith("outcome: verified\n") else 2)
    lines = (out / "report.txt").read_text().splitlines(keepends=True)
    assert lines[-1].startswith("seconds: ")
    assert "".join(lines[:-1]) == want


@pytest.mark.parametrize("family,want", [
    (["KNOT41", "--wirtinger"],
     r"verified in \d+\.\d\ds: acceptor 18 states, 21 word differences"),
    # a run the product cap stopped has no acceptor to size
    (["KNOT74", "--wirtinger"], r"loop-limit in \d+\.\d\ds"),
])
def test_autostructure_summary_line(tmp_path, capsys, family, want):
    f = tmp_path / "in.pres"
    assert main(["family", *family]) == 0
    f.write_text(capsys.readouterr().out)
    main(["autostructure", str(f), "-o", str(tmp_path / "out")])
    assert re.fullmatch(want + "\n", capsys.readouterr().out)


def test_autostructure_exit_three_on_bad_file(tmp_path, capsys):
    f = tmp_path / "broken.pres"
    f.write_text("version 1\ngenerators x\n")
    assert main(["autostructure", str(f), "-o", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line" in err


def test_weight_for_no_symbol_is_exit_three(tmp_path, capsys):
    f = tmp_path / "typo.pres"
    f.write_text(
        "version 1\ngenerators x\ninverse x X\norder wtlex\nweight q 5\n"
        "relation x x = e\n"
    )
    assert main(["autostructure", str(f), "-o", str(tmp_path / "o")]) == 3
    assert "line 5: weight line names unknown symbol 'q'" in capsys.readouterr().err


def test_inverse_of_no_generator_is_exit_three(tmp_path, capsys):
    f = tmp_path / "typo.pres"
    f.write_text(
        "version 1\ngenerators x\ninverse x X\ninverse q Q\nrelation x x = e\n"
    )
    assert main(["autostructure", str(f), "-o", str(tmp_path / "o")]) == 3
    assert "line 4: inverse line names unknown symbol 'q'" in capsys.readouterr().err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["reduce", str(tmp_path / "nope.rws"), "x"]) == 3


def test_bad_usage_is_exit_three(capsys):
    assert main(["autostructure"]) == 3
    assert main(["no-such-command"]) == 3


@pytest.mark.parametrize("command, cap, message", [
    (
        "autostructure", ["--max-loops", "-1"],
        "the correction loops cap must not be negative",
    ),
    ("kbcomplete", ["--max-pairs", "-3"], "completion caps must be positive"),
    ("kbcomplete", ["--max-pairs", "0"], "completion caps must be positive"),
    ("autostructure", ["--kb-max-rules", "0"], "completion caps must be positive"),
    ("kbcomplete", ["--kb-max-rules", "0"], "completion caps must be positive"),
    ("autostructure", ["--kb-max-len", "0"], "completion caps must be positive"),
    ("kbcomplete", ["--kb-max-len", "0"], "completion caps must be positive"),
], ids=[
    "max-loops-negative", "max-pairs-negative", "max-pairs-zero",
    "autostructure-kb-max-rules-zero", "kbcomplete-kb-max-rules-zero",
    "autostructure-kb-max-len-zero", "kbcomplete-kb-max-len-zero",
])
def test_a_cap_below_its_least_is_an_input_error(
    grid_file, tmp_path, capsys, command, cap, message
):
    out = tmp_path / "out"
    assert main([command, str(grid_file), "-o", str(out)] + cap) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [
    ("autostructure", "out"), ("kbcomplete", "out/W.fsa"),
])
def test_an_unwritable_output_is_an_input_error(
    grid_file, tmp_path, capsys, command, out_flag
):
    blocked = tmp_path / "out" / "W.fsa"
    blocked.mkdir(parents=True)
    assert main([command, str(grid_file), "-o", str(tmp_path / out_flag)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {blocked}: ")


def test_zero_correction_loops_still_runs(grid_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "autostructure", str(grid_file), "-o", str(out), "--max-loops", "0",
    ])
    assert code == 0
    assert "correction loops: 0" in (out / "report.txt").read_text()
    assert capsys.readouterr().out.startswith("verified")


def test_kbcomplete_prints_a_rules_file(grid_file, capsys):
    assert main(["kbcomplete", str(grid_file)]) == 0
    captured = capsys.readouterr()
    rs = parse_rules(captured.out)
    assert rs.active_count() == 8
    assert "confluent" in captured.err


def test_kbcomplete_exit_two_at_tiny_caps(grid_file, tmp_path, capsys):
    out = tmp_path / "r.rws"
    code = main([
        "kbcomplete", str(grid_file), "-o", str(out), "--kb-max-len", "1",
    ])
    assert code == 2
    assert parse_rules(out.read_text()).active_count() >= 4


@pytest.mark.parametrize("family, cap, line", [
    (["BSpq", "2", "2"], ["--kb-max-rules", "5"], "stopped by rules cap 5: 6 rules"),
    (["BSpq", "2", "2"], ["--kb-max-len", "3"], "stopped by rule length cap 3: 5 rules"),
    (["KNOT41", "--wirtinger"], ["--max-pairs", "10"], "stopped by pairs cap 10: 11 rules"),
], ids=["rules", "rule-length", "pairs"])
def test_kbcomplete_names_the_cap_that_stopped_it(tmp_path, capsys, family, cap, line):
    f = tmp_path / "in.pres"
    assert main(["family", *family]) == 0
    f.write_text(capsys.readouterr().out)
    assert main(["kbcomplete", str(f), *cap]) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert parse_rules(captured.out).active_count() == int(line.split()[-2])


def test_reduce_accepts_directory_or_file(grid_out, capsys):
    assert main(["reduce", str(grid_out), "xyXY"]) == 0
    assert main(["reduce", str(grid_out / "R.rws"), "x y x"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["e", "yxx"]


def test_accept_exit_codes(grid_out, capsys):
    assert main(["accept", str(grid_out / "W.fsa"), "yyx"]) == 0
    assert main(["accept", str(grid_out / "W.fsa"), "xy"]) == 1
    assert main(["accept", str(grid_out / "W.fsa"), "e"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["accepted", "rejected", "accepted"]


def test_accept_reads_words_over_the_machine_symbols(tmp_path, capsys):
    # a machine over "ab" and the one-character "a" and "b": (ab)* a b*
    m = tmp_path / "m.fsa"
    m.write_text(
        "fsa version 1\ntype word\nalphabet ab a b\npad _\n"
        "states 2\nstart 1\naccept 2\n1 ab 1\n1 a 2\n2 b 2\n"
    )
    assert main(["accept", str(m), "ab"]) == 1  # one symbol "ab"
    assert main(["accept", str(m), "abb"]) == 0  # the run a, b, b
    assert main(["accept", str(m), "ab ab a"]) == 0
    assert capsys.readouterr().out.split() == ["rejected", "accepted", "accepted"]
    assert main(["accept", str(m), "ac"]) == 3
    assert "unknown symbol 'c'" in capsys.readouterr().err


def test_enumerate_and_growth(grid_out, capsys):
    assert main(["enumerate", str(grid_out / "W.fsa"), "--maxlen", "1"]) == 0
    assert main(["growth", str(grid_out / "W.fsa"), "--maxlen", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["e", "x", "X", "y", "Y"]
    assert out[5:] == ["0 1", "1 4", "2 8", "3 12"]


@pytest.mark.parametrize("command", ["enumerate", "growth"])
def test_negative_maxlen_is_an_input_error(grid_out, capsys, command):
    w = str(grid_out / "W.fsa")
    assert main([command, w, "--maxlen", "-2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--maxlen must not be negative" in captured.err
    # zero is a length: the empty word alone
    assert main([command, w, "--maxlen", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == (
        ["e"] if command == "enumerate" else ["0 1"]
    )


def test_fsaop_not_and_equal(grid_out, tmp_path, capsys):
    w = str(grid_out / "W.fsa")
    comp = tmp_path / "notW.fsa"
    assert main(["fsaop", "not", w]) == 0
    comp.write_text(capsys.readouterr().out)
    a = parse_fsa(comp.read_text())
    assert a.accepts(("x", "y"))
    assert not a.accepts(("y", "x"))
    assert main(["fsaop", "equal", w, str(comp)]) == 1
    assert capsys.readouterr().out.startswith("different:")
    # and with the complement gives the empty language
    assert main(["fsaop", "and", w, str(comp)]) == 0
    empty = parse_fsa(capsys.readouterr().out)
    assert empty.start not in coreachable(empty)


def test_fsaop_compose_multipliers_matches_identity(grid_out, tmp_path, capsys):
    mx, mX = str(grid_out / "M_x.fsa"), str(grid_out / "M_X.fsa")
    assert main(["fsaop", "compose", mx, mX]) == 0
    comp = tmp_path / "c.fsa"
    comp.write_text(capsys.readouterr().out)
    assert main(["fsaop", "equal", str(comp), str(grid_out / "M_e.fsa")]) == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_fsaop_min_is_idempotent(grid_out, capsys):
    w = str(grid_out / "W.fsa")
    assert main(["fsaop", "min", w]) == 0
    out = capsys.readouterr().out
    assert out == (grid_out / "W.fsa").read_text()


def test_fsaop_arity_errors(grid_out, capsys):
    w = str(grid_out / "W.fsa")
    assert main(["fsaop", "and", w]) == 3
    assert main(["fsaop", "min", w, w]) == 3
    assert main(["fsaop", "not", str(grid_out / "M_x.fsa")]) == 3


def test_fsaop_mismatched_machines_are_input_errors(grid_out, tmp_path, capsys):
    w, mx = str(grid_out / "W.fsa"), str(grid_out / "M_x.fsa")
    other = tmp_path / "other.fsa"
    other.write_text(
        "fsa version 1\ntype word\nalphabet x X\npad _\n"
        "states 1\nstart 1\naccept 1\n1 x 1\n"
    )
    capsys.readouterr()
    for op in ("compose", "and", "or", "equal"):
        assert main(["fsaop", op, w, mx]) == 3
        assert capsys.readouterr().err.startswith("error:")
    for op in ("and", "equal"):
        assert main(["fsaop", op, w, str(other)]) == 3
        assert capsys.readouterr().err.startswith("error:")
    assert main(["fsaop", "compose", w, w]) == 3
    assert "pair machines" in capsys.readouterr().err


def test_family_command_round_trips(tmp_path, capsys):
    assert main(["family", "BSpq", "1", "1"]) == 0
    assert capsys.readouterr().out == GRID.replace("# ", "")
    assert main(["family", "Hpq", "2", "1"]) == 0
    assert "relation x x y = Y x" in capsys.readouterr().out
    assert main(["family", "KNOT41"]) == 0
    text = capsys.readouterr().out
    assert "generators a x y z t" in text
    assert "order shortlex" in text
    assert main(["family", "KNOT41", "--wirtinger"]) == 0
    assert "generators x y z t" in capsys.readouterr().out
    assert main(["family", "NOPE"]) == 3

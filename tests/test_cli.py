"""Exercise the command line surface: each command's output, exit code and
error line, the argparse parser's refusals and help, and the --all-scope
sweeps, through cli.main with its output captured."""

import errno
import io
import json
import os
import sys

import pytest
from hypothesis import given, strategies as st

from crystalfold import cli
from crystalfold.cartan import make_datum
from crystalfold.cli import SCOPE_INSTANCES, main
from crystalfold.crystal import Report, pair_ids, tensor
from crystalfold.intertwine import compute_r_matrix, energy_on_tensor
from crystalfold.models import classical_highest_node, kr_crystal
from leaves import exchange_pair, run_cli as run


def test_scope_list_has_every_instance():
    assert len(SCOPE_INSTANCES) == 22
    assert ("d", 3, 2, 1) in SCOPE_INSTANCES
    assert ("a", 3, 3, 2) in SCOPE_INSTANCES


def test_build_json_is_reproducible():
    first = run("build", "--case", "a", "--n", "2", "--i", "1", "--s", "1",
                "--target", "hat", "--format", "json")
    second = run("build", "--case", "a", "--n", "2", "--i", "1", "--s", "1",
                 "--target", "hat", "--format", "json")
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["datum_ref"] == "a:n=2:i=1:s=1:hat"
    assert len(doc["nodes"]) == 6


def test_build_dot_and_text():
    dot = run("build", "--case", "a", "--n", "2", "--target", "hat",
              "--format", "dot")
    assert dot.exit_code == 0
    assert dot.output.startswith("digraph")
    assert '[label="0"]' in dot.output
    text = run("build", "--case", "b", "--n", "1", "--target", "kr",
               "--format", "text")
    assert text.exit_code == 0
    assert "nodes=3" in text.output
    assert "f1 t:1 -> t:2" in text.output


def test_build_writes_file(tmp_path):
    out = tmp_path / "graph.json"
    res = run("build", "--case", "c", "--n", "3", "--i", "1", "--s", "1",
              "--target", "tilde", "--format", "json", "--out", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 8


@pytest.mark.parametrize("command", ["build", "branch", "rmatrix", "energy"])
@pytest.mark.parametrize("where, code", [("directory", errno.EISDIR),
                                         ("missing parent", errno.ENOENT)])
def test_out_that_cannot_be_written_exits_two(tmp_path, command, where, code):
    out = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.json")
    res = run(command, "--case", "a", "--n", "2", "--out", out)
    assert res.exit_code == 2
    assert res.output == "error: cannot write %s: %s\n" % (out, os.strerror(code))


def test_out_of_scope_exits_two():
    res = run("build", "--case", "e")
    assert res.exit_code == 2
    assert "argument --case: invalid choice: 'e'" in res.output
    res = run("build", "--case", "a", "--n", "2", "--i", "9", "--target", "kr")
    assert res.exit_code == 2
    res = run("build", "--case", "a", "--n", "2", "--s", "0", "--target", "kr")
    assert res.exit_code == 2
    res = run("verify", "--case", "c", "--n", "3", "--i", "2")
    assert res.exit_code == 2


@pytest.mark.parametrize("case,n,i", [("a", 2, 4), ("a", 2, -1), ("b", 1, -1),
                                       ("c", 3, -1), ("d", 3, -1), ("d", 3, 0)])
def test_tilde_target_refuses_columns_outside_the_diagram(case, n, i):
    res = run("build", "--case", case, "--n", str(n), "--i", str(i), "--target", "tilde")
    assert res.exit_code == 2
    assert res.output == "error: column %d is not a classical node\n" % i


def test_verify_passes_in_scope():
    res = run("verify", "--case", "b", "--n", "1", "--i", "1", "--s", "2")
    assert res.exit_code == 0
    assert "axiom:pairing" in res.output
    assert "perfect:phi-bijection" in res.output
    assert "strings:weyl" in res.output
    assert "FAIL" not in res.output


def test_verify_failed_stage_exits_one_and_names_it(monkeypatch):
    def failing(datum, i, s, full_regularity=False):
        report = Report()
        report.add("axiom:pairing", False, "color 0: nodes x and y share f-target z")
        return report

    monkeypatch.setattr(cli, "verify_main_theorem", failing)
    res = run("verify", "--case", "a", "--n", "2", "--i", "1", "--s", "1")
    assert res.exit_code == 1
    assert "axiom:pairing              FAIL  [color 0: nodes x and y share" in res.output


def test_branch_matches_formula():
    res = run("branch", "--case", "a", "--n", "3", "--i", "2", "--s", "2")
    assert res.exit_code == 0
    assert "cardinality" in res.output
    assert "MISMATCH" not in res.output


def test_branch_beyond_the_scope_matches_formula():
    # the orbit tensor of (b,3,3,2) has 240,100 nodes; branch reads the 490
    # walked fixed nodes only
    res = run("branch", "--case", "b", "--n", "3", "--i", "3", "--s", "2",
              "--format", "json")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["matches_formula"] is True
    assert doc["total"] == 490


def test_branch_without_formula_notes_it():
    res = run("branch", "--case", "d", "--n", "3", "--i", "2", "--s", "1")
    assert res.exit_code == 0
    assert "no closed formula" in res.output


def test_branch_json_document():
    res = run("branch", "--case", "d", "--n", "3", "--i", "1", "--s", "2",
              "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["total"] == 35
    assert doc["matches_formula"] is True
    assert [c["dim"] for c in doc["components"]] == [1, 7, 27]


def test_rmatrix_table():
    res = run("rmatrix", "--case", "a", "--n", "2", "--i", "1", "--s", "1")
    assert res.exit_code == 0
    lines = [ln for ln in res.output.splitlines() if ln]
    assert len(lines) == 16
    assert all(" -> " in ln for ln in lines)


def test_energy_table_values():
    res = run("energy", "--case", "b", "--n", "1", "--i", "1", "--s", "1")
    assert res.exit_code == 0
    table = {}
    for ln in res.output.splitlines():
        _, bid, val = ln.split()
        table[bid] = int(val)
    assert table["t:1*t:1"] == 0
    assert table["t:1*t:2"] == -1
    assert sorted(table.values()).count(-1) == 3
    assert len(table) == 9


def _tables_as_dicts(case, n, i, s):
    """The energy and R matrix tables of one column as dicts, from the library."""
    datum = make_datum(case, n)
    crys = kr_crystal(datum, i, s)
    top = classical_highest_node(datum, crys, i, s)
    prod = tensor(crys, crys)
    energy = dict(zip(prod.ids, energy_on_tensor(prod, prod.at(top, top))))
    left, right = crys, kr_crystal(datum, datum.omega[i], s)
    rmat = compute_r_matrix(datum, (i, s), (datum.omega[i], s))
    exchange = {}
    for a, x in enumerate(left.ids):
        for b, y in enumerate(right.ids):
            c, d = exchange_pair(rmat, a, b)
            exchange[x + "*" + y] = right.ids[c] + "*" + left.ids[d]
    return {"energy": ("H", energy), "rmatrix": ("map", exchange)}


@pytest.mark.parametrize("case,n,i,s", [("a", 2, 1, 1), ("b", 1, 1, 1), ("c", 3, 1, 1),
                                        ("a", 3, 1, 2)])
def test_json_maps_render_as_json_dumps(case, n, i, s):
    for command, (name, table) in _tables_as_dicts(case, n, i, s).items():
        res = run(command, "--case", case, "--n", str(n), "--i", str(i), "--s", str(s),
                  "--format", "json")
        assert res.exit_code == 0, res.output
        assert res.output == json.dumps({name: table}, sort_keys=True, indent=2) + "\n"


def test_json_map_escapes_as_json_dumps():
    left, right = ['a"\\', "b\u00e9\n"], ["c\U0001f600", "d/"]
    values = ["x\t", "y/\u0100", "z", "\u2028"]
    chunks = list(cli._json_map("m\u00fc", left, right, values))
    # a block of lines per left id, then the closing braces
    assert len(chunks) == len(left) + 1
    assert "".join(chunks) == json.dumps(
        {"m\u00fc": dict(zip(pair_ids(left, right), values))}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("keys", [
    (("x",), ("b", "a")),
    (("x",), ("a", "a")),
    # each factor ascends, but x*z sorts above x*y*y*z, the next left id's first pair
    (("x", "x*y"), ("y*z", "z")),
    (("ab", "a"), ("y",)),
])
def test_json_map_refuses_keys_out_of_order(keys):
    left, right = keys
    # refused on the call, before any chunk is written
    with pytest.raises(ValueError, match="keys of the H map do not ascend strictly"):
        cli._json_map("H", left, right, [0] * (len(left) * len(right)))


@given(st.lists(st.text(alphabet=" *+xy", max_size=3), min_size=1, max_size=4),
       st.lists(st.text(alphabet=" *+xy", max_size=3), min_size=1, max_size=4))
def test_json_map_refuses_exactly_when_the_pair_ids_do_not_ascend(left, right):
    ids = [x + "*" + y for x in left for y in right]
    values = list(range(len(ids)))
    if all(map(str.__lt__, ids, ids[1:])):
        chunks = cli._json_map("H", left, right, values)
        assert "".join(chunks) == json.dumps(
            {"H": dict(zip(ids, values))}, sort_keys=True, indent=2) + "\n"
    else:
        with pytest.raises(ValueError, match="keys of the H map do not ascend strictly"):
            cli._json_map("H", left, right, values)


def test_release_freed_heap_without_malloc_trim_does_nothing(monkeypatch):
    import ctypes
    cli._release_freed_heap()  # this C library's own, where it has one
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli._release_freed_heap() is None


def test_verify_all_scope_without_case():
    res = run("verify", "--all-scope")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 22
    assert all(ln.endswith("pass") for ln in lines)


def test_branch_all_scope_without_case():
    res = run("branch", "--all-scope")
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 22


@pytest.mark.parametrize("args,option", [
    (("verify", "--all-scope", "--case", "a"), "--case"),
    (("verify", "--all-scope", "--full-regularity", "--n", "2"), "--n"),
    (("verify", "--all-scope", "--i", "1"), "--i"),
    (("branch", "--all-scope", "--s", "2", "--case", "b"), "--case"),
    (("branch", "--all-scope", "--format", "json"), "--format"),
    (("branch", "--all-scope", "--out", "scope.txt"), "--out"),
])
def test_all_scope_refuses_the_options_it_would_drop(monkeypatch, tmp_path, args, option):
    # the sweep covers every scope instance into one text table, so an
    # instance, a format or an output file would be silently ignored
    monkeypatch.chdir(tmp_path)
    res = run(*args)
    assert res.exit_code == 2
    assert res.output == "error: %s cannot be combined with --all-scope\n" % option
    assert not os.listdir(tmp_path)


def test_missing_case_is_rejected():
    res = run("build")
    assert res.exit_code == 2
    assert "--case is required" in res.output


@pytest.mark.parametrize("args,error", [
    (("verify", "--cas", "a"), "unrecognized arguments: --cas a"),
    (("build", "--form", "json"), "unrecognized arguments: --form json"),
    (("verify", "--all", "--case", "a"), "unrecognized arguments: --all"),
    ((), "the following arguments are required: COMMAND"),
])
def test_parser_refuses_abbreviations_and_no_command(args, error):
    res = run(*args)
    assert res.exit_code == 2
    assert res.output.endswith("crystalfold: error: %s\n" % error)


# each command's options as --help lists them, with their choices and defaults
INSTANCE_HELP = ("--case {a,b,c,d}", "--n INTEGER default: 3", "--i INTEGER default: 1",
                 "--s INTEGER default: 1")
HELP = {
    "build": ("--target {kr,tilde,hat} default: hat", "--format {json,dot,text} default: text",
              "--out PATH"),
    "verify": ("--full-regularity", "--all-scope"),
    "branch": ("--format {json,text} default: text", "--all-scope", "--out PATH"),
    "rmatrix": ("--format {json,text} default: text", "--out PATH"),
    "energy": ("--format {json,text} default: text", "--out PATH"),
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_lists_each_option_with_its_choices_and_default(command):
    res = run(command, "--help")
    assert res.exit_code == 0
    listed = " ".join(res.output.split("options:")[1].split())
    assert listed == " ".join(INSTANCE_HELP + HELP[command] + ("--help show this message and exit",))


def test_help_lists_every_command():
    res = run("--help")
    assert res.exit_code == 0
    text = " ".join(res.output.split())
    for command in HELP:
        assert "%s %s" % (command, getattr(cli, command).__doc__) in text


class ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("args", [
    ("energy", "--format", "json"),  # the map, chunk by chunk
    ("energy",),  # one chunk of text
    ("rmatrix",),
    ("verify", "--s", "2"),  # printed reports
], ids=["energy-json", "energy-text", "rmatrix-text", "verify"])
def test_closed_standard_output_is_named(monkeypatch, capsys, args):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        main([*args, "--case", "a", "--n", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: cannot write standard output: %s\n" % (
        os.strerror(errno.EPIPE))


# every (case, n, i, s) request is answered or refused, never crashed
GRID = [(case, n, i, s)
        for case, n, size in (("a", 2, 4), ("b", 1, 3), ("b", 2, 5),
                              ("c", 3, 5), ("d", 3, 5))
        for i in range(size + 1) for s in (1, 2)]


@pytest.mark.parametrize("command", ["verify", "branch"])
def test_request_grid_answers_or_refuses(command):
    for case, n, i, s in GRID:
        res = run(command, "--case", case, "--n", str(n), "--i", str(i),
                  "--s", str(s))
        where = (command, case, n, i, s, res.output)
        assert res.exit_code in (0, 2), where
        assert res.exception is None or isinstance(res.exception, SystemExit), where
        if res.exit_code == 2:
            assert res.output.startswith("error: "), where


@pytest.mark.parametrize("command,case,n,i,rep", [
    ("verify", "a", 2, 3, 1), ("branch", "a", 2, 3, 1),
    ("branch", "b", 2, 3, 2), ("branch", "c", 3, 4, 3),
])
def test_non_representative_column_names_the_representative(command, case, n, i, rep):
    res = run(command, "--case", case, "--n", str(n), "--i", str(i))
    assert res.exit_code == 2
    assert "column %d is not an orbit representative" % i in res.output
    assert "use i = %d" % rep in res.output


@pytest.mark.parametrize("command", [("verify",), ("branch",), ("build", "--target", "tilde"),
                                     ("rmatrix",)], ids=["verify", "branch", "build-tilde", "rmatrix"])
def test_width_refusal_names_the_orbit_column(command):
    res = run(*command, "--case", "d", "--n", "3", "--i", "2", "--s", "2")
    assert res.exit_code == 2
    assert res.output == ("error: fork column 3 is only available at width 1; "
                          "it is in the orbit (2, 3, 4) of the requested column 2\n")

"""CLI surface: subcommands, exit codes, file outputs, determinism."""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from equiframes import cli, designs, scalar
from equiframes.cli import BUNDLED_H510, build_parser, h510_path, main, parse_hadamard_spec
from equiframes.designs import load_sts, verify_sts
from equiframes.frames import load_frame_exact, verify_etf
from equiframes.graphs import drackn_check, load_graph, srg_check
from equiframes.hadamard import fourier, load_butson, store_butson, verify_hadamard


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_make_sts(tmp_path, capsys):
    code, out = run(capsys, "--out", str(tmp_path), "make", "sts", "--V", "9")
    assert code == 0
    s = load_sts(tmp_path / "sts_v9.txt")
    assert verify_sts(s).ok and s.block_count == 12


def test_make_sts_bad_congruence(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "make", "sts", "--V", "8"])
    assert code == 1


def test_make_sts_past_the_array_limit_is_refused_before_any_block(tmp_path, capsys,
                                                                   monkeypatch):
    """V=21 has 70 blocks: under a limit one block short of them it exits 1
    naming the limit, before bose makes a block, and writes nothing.  V=19
    (57 blocks) still builds, and so does every V up to 319 at the default
    limit."""
    assert 319 * 318 // 6 * designs._BLOCK_BYTES <= scalar._ARRAY_LIMIT_BYTES
    limit = 69 * designs._BLOCK_BYTES
    monkeypatch.setattr("equiframes.scalar._ARRAY_LIMIT_BYTES", limit)
    with mock.patch("equiframes.designs.bose", side_effect=AssertionError("a block was made")):
        code = main(["--out", str(tmp_path), "make", "sts", "--V", "21"])
    err = capsys.readouterr().err
    assert code == 1
    assert (f"70 block triple system needs {70 * designs._BLOCK_BYTES} bytes, past the "
            f"{limit}-byte limit") in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())
    assert main(["--out", str(tmp_path), "make", "sts", "--V", "19"]) == 0


def test_make_sts_with_parallel_class(tmp_path, capsys):
    from equiframes.designs import is_parallel_class, load_parallel_class

    code, _ = run(capsys, "--out", str(tmp_path), "make", "sts", "--V", "9",
                  "--parallel-class")
    assert code == 0
    s = load_sts(tmp_path / "sts_v9.txt")
    cls = load_parallel_class(tmp_path / "sts_v9_parallel.txt")
    assert is_parallel_class(s, cls)
    # V = 7 has no class of blocks: 7 is not divisible by 3
    assert main(["--out", str(tmp_path), "make", "sts", "--V", "7",
                 "--parallel-class"]) == 2
    capsys.readouterr()


def test_make_hadamard_spec(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "make", "hadamard",
                  "--spec", "paley:19")
    assert code == 0
    h = load_butson(tmp_path / "butson_n20_q2.txt")
    assert verify_hadamard(h).ok


def test_make_hadamard_kron_spec(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "make", "hadamard",
                  "--spec", "kron(sylvester:1,paley:19)")
    assert code == 0
    assert (tmp_path / "butson_n40_q2.txt").exists()


def test_parse_spec_rejects_garbage():
    from equiframes.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_hadamard_spec("wat:4")


def test_make_etf_tremain_v7(tmp_path, capsys):
    code, out = run(capsys, "--out", str(tmp_path), "make", "etf", "tremain",
                    "--V", "7")
    assert code == 0
    assert "coherence: 0.2" in out
    frame = load_frame_exact(tmp_path / "tremain_v7.etf")
    assert (frame.dim, frame.count) == (15, 36)
    assert verify_etf(frame).is_etf


def test_make_etf_tremain_h2_real(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "make", "etf", "tremain",
                  "--h", "2", "--real")
    assert code == 0
    frame = load_frame_exact(tmp_path / "tremain_h2.etf")
    assert (frame.dim, frame.count) == (5, 10)


def test_make_etf_steiner_v7_json(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path), "make", "etf",
                    "steiner", "--V", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["tight_constant"] == [12, 1]
    assert rep["is_etf"] is True


def test_make_etf_csv_format(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "make", "etf", "tremain",
                  "--h", "2", "--format", "csv")
    assert code == 0
    assert (tmp_path / "tremain_h2.csv").exists()


def test_derive_srg_waldron_h2(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive", "srg",
                    "waldron", "--h", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["certified_params"] == [9, 4, 1, 2]
    g, _ = load_graph(tmp_path / "srg_waldron_h2.g6")
    cert = srg_check(g)
    assert cert.ok and cert.params.as_tuple() == (9, 4, 1, 2)


def test_derive_srg_gs_h2(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path),
                    "derive", "srg", "gs", "--h", "2")
    assert code == 0
    assert json.loads(out)["certified_params"] == [10, 6, 3, 4]


# SHA-256 of the .g6 files of small rows: any later change of output bytes shows
SRG_G6_SHA256 = {
    ("waldron", 2): "75a9a8fd31b481c60b5b3b08c8b20273e13496320834350fe58e5ca4cf4d43c5",
    ("waldron", 4): "80a5c3a0e08665eee89d165f493e48b21becf61c6d0a0dfb0d027c01f12151ce",
    ("gs", 2): "d6f33c5dab5a93d0975a0f310b8b250fb4e4be26fb8b6840c5f7627200338bb2",
    ("gs", 8): "877576d8612f94f810f2029773b3b8577bc5b9a1c620bd699f847ea22aad946e",
}


@pytest.mark.parametrize("kind, h", list(SRG_G6_SHA256))
def test_derive_srg_graph6_bytes_are_pinned(tmp_path, capsys, kind, h):
    """The positive-adjacent sign graph's graph6 file, byte for byte; the
    report names that convention."""
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive", "srg", kind, "--h", str(h))
    assert code == 0 and json.loads(out)["convention"] == "positive-adjacent"
    data = (tmp_path / f"srg_{kind}_h{h}.g6").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SRG_G6_SHA256[kind, h]


@pytest.mark.parametrize("kind", ["gs", "waldron"])
def test_derive_srg_names_the_counting_kernel(tmp_path, capsys, kind):
    """The report says which product counted: the block factors for the
    Tremain sign graphs, in the JSON and in the text output."""
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive", "srg", kind, "--h", "8")
    assert code == 0 and json.loads(out)["counting"] == "factored"
    code, out = run(capsys, "--out", str(tmp_path), "derive", "srg", kind, "--h", "8")
    assert code == 0 and "counting: factored" in out.splitlines()


def test_derive_drackn_h2(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive",
                    "drackn", "--h", "2", "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["params"] == [10, 2, 4] and rep["n_minus_rc"] == 2
    g, fibers = load_graph(tmp_path / "drackn_h2_p2.edges")
    assert fibers is not None
    assert drackn_check(g, fibers).ok


def test_derive_drackn_p5_uses_bundled_matrix(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive",
                    "drackn", "--h", "5", "--p", "5")
    assert code == 0
    assert json.loads(out)["params"] == [55, 5, 10]


@pytest.mark.parametrize("h, p, counting", [(16, 2, "factored"), (5, 5, "dense")])
def test_derive_drackn_names_the_counting_kernel(tmp_path, capsys, h, p, counting):
    """A p = 2 cover is counted on its quotient by the block factors; the
    odd-p cover by A·A on all N·p vertices.  The JSON and the text say which."""
    argv = ["--out", str(tmp_path), "derive", "drackn", "--h", str(h), "--p", str(p)]
    code, out = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["counting"] == counting
    code, out = run(capsys, *argv)
    assert code == 0 and f"counting: {counting}" in out.splitlines()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 763. MiB for an array"),
     "out of memory: Unable to allocate 763. MiB for an array"),
    (MemoryError(), "out of memory: MemoryError"),
])
def test_memory_error_exits_1_with_one_line_and_no_traceback(tmp_path, capsys, error, line):
    """An admitted size the process cannot get (numpy raises a MemoryError
    subclass naming the array) ends with exit 1 and one stderr line."""
    with mock.patch("equiframes.cli.make_sts", side_effect=error):
        code = main(["--out", str(tmp_path), "make", "sts", "--V", "20001"])
    assert code == 1 and capsys.readouterr().err == f"{line}\n"
    assert not list(tmp_path.iterdir())


def test_tables_srg1_formula_only(tmp_path, capsys):
    code, out = run(capsys, "--json", "tables", "srg1", "--row-budget", "0")
    assert code == 0
    rows = json.loads(out)
    assert [r["h"] for r in rows] == [2, 4, 8, 16, 20, 28]
    assert all(r["status"] == "formula-only" for r in rows)
    by_h = {r["h"]: r for r in rows}
    assert (by_h[20]["v"], by_h[20]["k"]) == (819, 418)
    assert (by_h[28]["lambda"], by_h[28]["mu"]) == (417, 405)


def test_tables_srg1_certifies_small_rows(tmp_path, capsys):
    code, out = run(capsys, "--json", "tables", "srg1", "--row-budget", "2")
    assert code == 0
    rows = json.loads(out)
    by_h = {r["h"]: r for r in rows}
    assert by_h[2]["status"] == "certified"
    assert by_h[4]["status"] == "certified"
    assert by_h[28]["status"] == "formula-only"


def test_tables_srg2_formula_values(tmp_path, capsys):
    code, out = run(capsys, "--json", "tables", "srg2", "--row-budget", "0")
    assert code == 0
    by_h = {r["h"]: r for r in json.loads(out)}
    assert (by_h[8]["v"], by_h[8]["k"], by_h[8]["lambda"], by_h[8]["mu"]) == (
        136, 75, 42, 40)
    assert (by_h[32]["v"], by_h[32]["k"]) == (2080, 1071)
    assert (by_h[56]["k"], by_h[56]["mu"]) == (3219, 1624)


def test_tables_drackn(tmp_path, capsys):
    code, out = run(capsys, "--json", "tables", "drackn", "--row-budget", "2")
    assert code == 0
    rows = json.loads(out)
    by_h = {r["h"]: r for r in rows}
    assert (by_h[2]["n"], by_h[2]["r"], by_h[2]["c"]) == (10, 2, 4)
    assert by_h[4]["c"] == 16 and by_h[8]["c"] == 64
    assert all(r["n-rc"] == r["h"] for r in rows)


PINNED_TABLES = {
    ("srg1", "--row-budget", "0"): """\
 h    M     N     v    k  lambda   mu        status
 2    5    10     9    4       1    2  formula-only
 4   15    36    35   18       9    9  formula-only
 8   51   136   135   70      37   35  formula-only
16  187   528   527  270     141  135  formula-only
20  287   820   819  418     217  209  formula-only
28  551  1596  1595  810     417  405  formula-only
""",
    ("srg1", "--row-budget", "2"): """\
 h    M     N     v    k  lambda   mu        status
 2    5    10     9    4       1    2     certified
 4   15    36    35   18       9    9     certified
 8   51   136   135   70      37   35     certified
16  187   528   527  270     141  135     certified
20  287   820   819  418     217  209     certified
28  551  1596  1595  810     417  405  formula-only
""",
    ("srg2", "--row-budget", "0"): """\
 h     M     N     v     k  lambda    mu        status
 2     5    10    10     6       3     4  formula-only
 8    51   136   136    75      42    40  formula-only
20   287   820   820   429     228   220  formula-only
32   715  2080  2080  1071     558   544  formula-only
44  1335  3916  3916  2001    1032  1012  formula-only
56  2147  6328  6328  3219    1650  1624  formula-only
""",
    ("srg2", "--row-budget", "2"): """\
 h     M     N     v     k  lambda    mu        status
 2     5    10    10     6       3     4     certified
 8    51   136   136    75      42    40     certified
20   287   820   820   429     228   220     certified
32   715  2080  2080  1071     558   544  formula-only
44  1335  3916  3916  2001    1032  1012  formula-only
56  2147  6328  6328  3219    1650  1624  formula-only
""",
    ("drackn", "--p", "2", "--row-budget", "2"): """\
 h    M    N    n  r    c  n-rc        status
 2    5   10   10  2    4     2     certified
 4   15   36   36  2   16     4     certified
 8   51  136  136  2   64     8     certified
16  187  528  528  2  256    16  formula-only
""",
    ("drackn", "--p", "5"): """\
h   M   N   n  r   c  n-rc     status
5  22  55  55  5  10     5  certified
""",
    ("drackn", "--p", "7"): """\
h   M    N    n  r   c  n-rc            status
7  40  105  105  7  14     7  no-H(p,2p)-input
""",
}


@pytest.mark.parametrize("argv", list(PINNED_TABLES), ids=" ".join)
def test_tables_output_is_pinned(capsys, argv):
    """Text output byte for byte; the JSON output is the same rows, keyed by
    the header, printed with indent 2.  --p 5 certifies from the bundled
    H(5,10); --p 7 has no H(7,14) input."""
    text = PINNED_TABLES[argv]
    assert run(capsys, "tables", *argv) == (0, text)
    header, *lines = [line.split() for line in text.splitlines()]
    rows = [{key: value if key == "status" else int(value) for key, value in zip(header, line)}
            for line in lines]
    assert run(capsys, "--json", "tables", *argv) == (0, json.dumps(rows, indent=2) + "\n")


@pytest.mark.parametrize("p, message", [
    (0, "p must equal a prime, got 0"),
    (1, "p must equal a prime, got 1"),
    (3, "--p 3 asks for the row h = 3, and no Tremain frame has h = 0 (mod 3)"),
    (4, "p must equal a prime, got 4"),
])
def test_tables_drackn_refuses_a_p_with_no_cover_row(capsys, p, message):
    """No row for a fiber size drackn_cover refuses, and every message names
    p, not only the row h = p that an odd p asks for."""
    assert main(["tables", "drackn", "--p", str(p)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"configuration error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("srg1",), "unrecognized arguments: --hadamard-file2 {missing}"),
    (("srg2", "--row-budget", "0"), "unrecognized arguments: --hadamard-file2 {missing}"),
    (("drackn", "--p", "2", "--row-budget", "2"),
     "--hadamard-file2 is read by no row of tables drackn --p 2"),
], ids=["srg1", "srg2", "drackn-p2"])
def test_tables_refuse_a_second_hadamard_file_no_row_reads(capsys, tmp_path, argv, message):
    """A missing file too: the option is refused before any row is computed;
    the SRG tables do not declare it, so the parser refuses it."""
    missing = tmp_path / "missing.txt"
    assert main(["tables", *argv, "--hadamard-file2", str(missing)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"configuration error: {message.format(missing=missing)}\n")


def test_tables_odd_p_reads_the_second_hadamard_file(capsys, tmp_path):
    """--p 5 certifies its row from the given file; --p 7 fails to read a
    missing one (exit 3)."""
    bundled = h510_path()
    assert run(capsys, "tables", "drackn", "--p", "5", "--hadamard-file2", str(bundled)) \
        == (0, PINNED_TABLES[("drackn", "--p", "5")])
    assert main(["tables", "drackn", "--p", "7", "--hadamard-file2",
                 str(tmp_path / "missing.txt")]) == 3


@pytest.mark.parametrize("with_files", [False, True, "missing"])
def test_derive_drackn_refuses_a_composite_p_before_building(tmp_path, capsys, with_files):
    """p = 4 is refused as p, not as a missing H(4,8), and no frame is built
    even when both Hadamard files are given; a missing file is never read."""
    files = []
    if with_files == "missing":
        files = ["--hadamard-file1", str(tmp_path / "missing.txt")]
    elif with_files:
        for flag, n in (("--hadamard-file1", 4), ("--hadamard-file2", 8)):
            path = tmp_path / f"fourier{n}.txt"
            store_butson(path, fourier(n))
            files += [flag, str(path)]
    refuse = mock.Mock(side_effect=AssertionError("built before refusing"))
    with mock.patch("equiframes.pipelines.build_tremain", refuse):
        code = main(["--out", str(tmp_path), "derive", "drackn", "--h", "4", "--p", "4", *files])
    assert code == 1
    assert capsys.readouterr().err == "configuration error: p must equal a prime, got 4\n"
    refuse.assert_not_called()


def test_h510_environment_variable_is_not_read(tmp_path, capsys, monkeypatch):
    """The cover's second input comes only from the command line or the
    bundled file: a variable naming a missing file changes nothing."""
    monkeypatch.setenv("EQUIFRAMES_H510", str(tmp_path / "missing.txt"))
    assert h510_path() == BUNDLED_H510
    code, out = run(capsys, "--json", "--out", str(tmp_path), "derive",
                    "drackn", "--h", "5", "--p", "5")
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_exit_code_certification_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 0\n0 0\n")
    code = main(["--out", str(tmp_path), "make", "hadamard",
                 "--hadamard-file", str(bad)])
    assert code == 2


def test_exit_code_io_error(tmp_path):
    code = main(["--out", str(tmp_path), "make", "hadamard",
                 "--hadamard-file", str(tmp_path / "missing.txt")])
    assert code == 3


def test_exit_code_bad_usage():
    assert main(["make", "etf", "tremain"]) == 1  # neither --V nor --h
    assert main(["derive", "srg", "nonsense", "--h", "2"]) == 1
    assert main(["--threads", "2", "derive", "srg", "gs", "--h", "2"]) == 1  # removed flag


@pytest.mark.parametrize("text, code, prefix", [
    ("2 2\n0 0\n", 1, "configuration error"),
    ("2 2\n0 0\n0 0\n", 2, "certification failure"),
], ids=["truncated", "not-hadamard"])
def test_butson_file_exit_code_does_not_depend_on_its_path(tmp_path, capsys, text, code, prefix):
    """A malformed file exits 1 and a table that is not Hadamard exits 2, even
    under a directory named like the not-Hadamard message."""
    path = tmp_path / "not a Hadamard" / "h.txt"
    path.parent.mkdir()
    path.write_text(text)
    assert main(["--out", str(tmp_path / "out"), "make", "hadamard",
                 "--hadamard-file", str(path)]) == code
    assert capsys.readouterr().err.startswith(f"{prefix}: {path}: ")


GLOBALS = {"help", "json", "out", "seed"}
CLI_FUNCTIONS = {node.name: node for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef)}


def _leaves(parser, words=()):
    """(command words, parser) of every leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*words, name))


def _args_read(name: str, seen: set) -> set:
    """Every ``args.<name>`` read in cli function ``name`` and in the cli
    functions it passes ``args`` to."""
    seen.add(name)
    read = set()
    for node in ast.walk(CLI_FUNCTIONS[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in CLI_FUNCTIONS
              and node.func.id not in seen
              and any(getattr(arg, "id", None) == "args" for arg in node.args)):
            read |= _args_read(node.func.id, seen)
    return read


def test_every_option_of_a_command_is_read_by_its_handler():
    """No option is accepted and then ignored: each leaf declares only the
    options its handler reads (the globals --json, --out and --seed aside)."""
    leaves = dict(_leaves(build_parser()))
    assert len(leaves) == 10
    unread = [(words, action.option_strings[0])
              for words, leaf in leaves.items()
              for action in leaf._actions
              if action.option_strings and action.dest not in GLOBALS
              and action.dest not in _args_read(leaf.get_default("func").__name__, set())]
    assert not unread


REFUSED = [
    ("derive", "srg", "gs", "--h", "2", "--mode", "float"),
    ("derive", "drackn", "--h", "2", "--p", "2", "--tol", "1"),
    ("make", "sts", "--V", "9", "--mode", "float"),
    ("make", "etf", "tremain", "--V", "7", "--mode", "float"),
    ("make", "etf", "steiner", "--V", "7", "--tol", "1"),
    *[("make", "etf", "steiner", "--V", "7", *extra) for extra in (
        ("--h", "2"), ("--real",), ("--hadamard-file2", "F"), ("--remove-row2", "1"),
        ("--parallel-class",))],
    ("tables", "srg1", "--p", "5"),
    ("tables", "srg2", "--hadamard-file2", "F"),
    ("make", "hadamard", "--spec", "fourier:3", "--hadamard-file", "F"),
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_an_option_the_command_does_not_read_is_refused(tmp_path, capsys, argv):
    """Exit 1, nothing on stdout and no file written; F is a valid H(3,3)."""
    given = tmp_path / "fourier3.txt"
    store_butson(given, fourier(3))
    argv = [str(given) if word == "F" else word for word in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [given]


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUIFRAMES_OUT", str(tmp_path / "envout"))
    code, _ = run(capsys, "make", "sts", "--V", "9")
    assert code == 0
    assert (tmp_path / "envout" / "sts_v9.txt").exists()


def test_determinism_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--out", str(out), "make", "etf", "tremain", "--V", "7"]) == 0
        capsys.readouterr()
    assert (out1 / "tremain_v7.etf").read_bytes() == (out2 / "tremain_v7.etf").read_bytes()


DEGENERATE_FILES = [
    (load_butson, "order0.txt", "0 2\n"),
    (load_frame_exact, "empty.etf", "0 0 1\nbands 0 0 0\n"),
    (load_frame_exact, "order0.etf", "1 2 0\nbands 1 0 0\n(1|0|0|0|0) (1|0|0|0|0)\n"),
    (load_frame_exact, "header_field.etf", "1 2 x\nbands 1 0 0\n(1|0|0|0|0) (1|0|0|0|0)\n"),
    (load_frame_exact, "token_field.etf", "1 2 1\nbands 1 0 0\n(1|0|0|0|0) (1.5|0|0|0|0)\n"),
    (load_frame_exact, "negative_k.etf", "1 2 1\nbands 1 0 0\n(1|0|0|0|0) (1|0|0|0|-1)\n"),
    (load_frame_exact, "coeff_count.etf", "1 2 2\nbands 1 0 0\n(1|0|0|0|0) (1,0|0|0|0|0)\n"),
    (load_frame_exact, "mixed_row.etf", "1 2 1\nbands 1 0 0\n(1|0|0|0|0) (0|1|0|0|0)\n"),
    (load_graph, "empty.g6", ""),
    (load_graph, "truncated.g6", "D\n"),
    (load_graph, "header.edges", "n \n"),
    (load_graph, "range.edges", "n 3\n0 5\n"),
]


@pytest.mark.parametrize("loader, name, text", DEGENERATE_FILES,
                         ids=[name for _, name, _ in DEGENERATE_FILES])
def test_loader_rejects_degenerate_file_naming_it(tmp_path, loader, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        loader(path)


# phi(1030) = 408 coefficients per part: a well-formed 1 x 2 frame past the root order bound
_ONE_1030 = ",".join(["1"] + ["0"] * 407)
_ZERO_1030 = ",".join(["0"] * 408)

LOADER_DEFECTS = [
    (load_butson, "exponent_x.txt", "2 2\n0 0\n0 x\n", "non-integer exponent in row '0 x'"),
    (load_frame_exact, "order_1030.etf",
     f"1 2 1030\nbands 1 0 0\n({_ONE_1030}|{_ZERO_1030}|{_ZERO_1030}|{_ZERO_1030}|0) "
     f"({_ONE_1030}|{_ZERO_1030}|{_ZERO_1030}|{_ZERO_1030}|0)\n",
     "root order 1030 exceeds the supported 1024"),
    (load_graph, "fibers_past_order.edges", "n 4\np 3\n0 1\n",
     "fiber size 3 does not split 4 vertices"),
    (load_graph, "fiber_size_0.edges", "n 4\np 0\n0 1\n", "fiber size 0 does not split 4 vertices"),
    (load_graph, "three_fields.edges", "n 3\n0 1 2\n",
     "edge line '0 1 2' does not have two vertices"),
]


@pytest.mark.parametrize("loader, name, text, message", LOADER_DEFECTS,
                         ids=[name for _, name, _, _ in LOADER_DEFECTS])
def test_loader_defect_raises_naming_file(tmp_path, loader, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("argv", [
    ("make", "hadamard", "--hadamard-file"),
    ("make", "etf", "tremain", "--V", "7", "--hadamard-file1"),
])
def test_malformed_butson_file_exits_1_naming_it(tmp_path, capsys, argv):
    path = tmp_path / "exponent_x.txt"
    path.write_text("2 2\n0 0\n0 x\n")
    assert main(["--out", str(tmp_path), *argv, str(path)]) == 1
    assert f"{path}: non-integer exponent" in capsys.readouterr().err


@pytest.mark.parametrize("argv, order", [
    (("derive", "srg", "waldron", "--h", "52"), 52),
    (("derive", "srg", "gs", "--h", "92"), 92),
    (("derive", "drackn", "--h", "52", "--p", "2"), 52),
    (("make", "etf", "tremain", "--h", "52", "--real"), 52),
])
def test_real_family_refuses_missing_real_hadamard_before_building(tmp_path, capsys, argv, order):
    """No silent Fourier fallback: exit 1 naming the order, and no frame,
    triple system or Fourier matrix is ever built."""
    refuse = mock.Mock(side_effect=AssertionError("built before refusing"))
    with mock.patch("equiframes.pipelines.tremain_etf", refuse), \
            mock.patch("equiframes.pipelines.make_sts", refuse), \
            mock.patch("equiframes.pipelines.fourier", refuse):
        assert main(["--out", str(tmp_path), *argv]) == 1
    assert f"no real Hadamard matrix of order {order}" in capsys.readouterr().err
    refuse.assert_not_called()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("make", "etf", "tremain", "--V", "999"),
    ("derive", "srg", "gs", "--h", "500"),
])
def test_a_frame_past_the_array_limit_is_refused_before_building(tmp_path, capsys, argv):
    """N = 500500: its Gram phase matrix would need 250 GB.  Exit 1 naming
    the limit, having allocated under 1 MB and written nothing."""
    tracemalloc.start()
    try:
        code = main(["--out", str(tmp_path), *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and peak < 2**20, (code, peak)
    assert "500500 x 500500 Gram phase matrix needs 250500250000 bytes, past the " \
           "2147483648-byte limit" in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


def test_a_csv_copy_past_the_array_limit_is_refused(tmp_path, capsys, monkeypatch):
    """The V=7 frame (15 x 36) certifies under a limit of 8000 bytes: its
    planes take 540 and its phases 1296.  Its complex128 copy for --format
    csv needs 16 * 15 * 36 = 8640, so the writer exits 1 and writes nothing."""
    monkeypatch.setattr("equiframes.scalar._ARRAY_LIMIT_BYTES", 8000)
    code = main(["--out", str(tmp_path), "make", "etf", "tremain", "--V", "7",
                 "--format", "csv"])
    err = capsys.readouterr().err
    assert code == 1
    assert "15 x 36 complex frame array needs 8640 bytes, past the 8000-byte limit" in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


def test_real_family_refuses_complex_hadamard_file(tmp_path, capsys):
    path = tmp_path / "fourier4.txt"
    path.write_text("4 4\n0 0 0 0\n0 1 2 3\n0 2 0 2\n0 3 2 1\n")
    code = main(["--out", str(tmp_path), "make", "etf", "tremain", "--h", "4", "--real",
                 "--hadamard-file1", str(path)])
    assert code == 1
    assert "the first one has root order 4" in capsys.readouterr().err

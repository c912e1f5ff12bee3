"""CLI surface: subcommands, exit codes, file outputs, determinism."""
from __future__ import annotations

import json
import re
from unittest import mock

import pytest

from equiframes.cli import main, parse_hadamard_spec
from equiframes.designs import load_sts, verify_sts
from equiframes.frames import load_frame_exact, verify_etf
from equiframes.graphs import drackn_check, load_graph, srg_check
from equiframes.hadamard import load_butson, verify_hadamard


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


def test_make_etf_float_mode(tmp_path, capsys):
    code, out = run(capsys, "--json", "--out", str(tmp_path), "--mode", "float",
                    "make", "etf", "tremain", "--V", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "float"
    assert rep["max_residual"] < 1e-10


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


LOADER_DEFECTS = [
    (load_butson, "exponent_x.txt", "2 2\n0 0\n0 x\n", "non-integer exponent in row '0 x'"),
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


def test_real_family_refuses_complex_hadamard_file(tmp_path, capsys):
    path = tmp_path / "fourier4.txt"
    path.write_text("4 4\n0 0 0 0\n0 1 2 3\n0 2 0 2\n0 3 2 1\n")
    code = main(["--out", str(tmp_path), "make", "etf", "tremain", "--h", "4", "--real",
                 "--hadamard-file1", str(path)])
    assert code == 1
    assert "the first one has root order 4" in capsys.readouterr().err

import contextlib
import io
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from designcodes.cli import main
from designcodes.codes import build_code
from designcodes.designs import (
    dumps_comb_design,
    dumps_subspace_design,
    projective_version,
    trivial_design,
)
from designcodes.field import FieldCtx


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


def test_points(capsys):
    code, out, _ = run(capsys, "points", "--v", "2", "--q", "2")
    assert code == 0
    assert out.splitlines() == ["0\t0 1", "1\t1 0", "2\t1 1"]


def test_design_trivial_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.qdesign"
    code, _, _ = run(
        capsys, "design", "trivial", "--t", "2", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "design", "verify", str(path))
    assert code == 0
    assert kv(out)["verified"] == "true"
    assert kv(out)["observed_lambda"] == "1"


def test_k0_design_is_refused_at_write_time(tmp_path, capsys):
    # the zero subspace has no generators: its file line would be blank,
    # and a blank line reads back as no block, so the pair
    # `design trivial --out` / `design verify` must not report a design
    # that the file does not hold
    path = tmp_path / "z.qdesign"
    code, out, err = run(
        capsys, "design", "trivial", "--t", "0", "--v", "3", "--k", "0", "--q", "2",
        "--out", str(path),
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not path.exists()


def test_design_verify_failure_exits_1(tmp_path, capsys):
    ctx = FieldCtx.of(2)
    d = trivial_design(2, 4, 2, ctx)
    text = dumps_subspace_design(d)
    lines = text.splitlines()
    (tmp_path / "broken.qdesign").write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "design", "verify", str(tmp_path / "broken.qdesign"))
    assert code == 1
    pairs = kv(out)
    assert pairs["verified"] == "false"
    assert "witness" in pairs


def test_huge_field_order_is_rejected_promptly(tmp_path, capsys):
    path = tmp_path / "big.qdesign"
    path.write_text("qdesign t=2 v=3 k=2 lambda=1 q=10000019 poly=0\n")
    start = time.perf_counter()
    for argv in (
        ("design", "verify", str(path)),
        ("table", "--v", "3", "--k", "2", "--lambda", "1", "--q", "1000000007"),
        ("code", "params", "--v", "3", "--k", "2", "--q", "1000000007"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.endswith("fields with q > 512 are not supported\n")
    assert time.perf_counter() - start < 1.0


def test_design_verify_commented_file(tmp_path, capsys):
    text = dumps_subspace_design(trivial_design(2, 4, 2, FieldCtx.of(2)))
    first, *rest = text.splitlines()
    path = tmp_path / "commented.qdesign"
    path.write_text("# a 2-(4,2,1)_2 design\n#\n" + first + "  # header\n" + "\n".join(rest) + "\n")
    code, out, _ = run(capsys, "design", "verify", str(path))
    assert code == 0
    assert kv(out)["verified"] == "true"


def test_design_verify_directory_is_domain_error(tmp_path, capsys):
    code, out, err = run(capsys, "design", "verify", str(tmp_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_code_rank_header_without_cols_is_domain_error(tmp_path, capsys):
    path = tmp_path / "m.pmatrix"
    path.write_text("pmatrix rows=1 p=2\n101\n")
    code, out, err = run(capsys, "code", "rank", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: pmatrix header is missing cols\n"


def test_code_build_bad_block_token_names_the_line(tmp_path, capsys):
    path = tmp_path / "d.cdesign"
    path.write_text("cdesign t=2 n=3 k=2 lambda=1\n0 1\n\n# comment\n0 x\n")
    code, out, err = run(capsys, "code", "build", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: line 5: 'x' is not an integer\n"


def test_code_rank_negative_header_count_is_domain_error(tmp_path, capsys):
    path = tmp_path / "m.pmatrix"
    path.write_text("pmatrix rows=-1 cols=3 p=2\n")
    code, out, err = run(capsys, "code", "rank", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: pmatrix header value 'rows=-1' is negative\n"


def test_loader_errors_name_the_file(tmp_path, capsys):
    not_an_int = "line 2: 'x' is not an integer"
    files = {
        "d.qdesign": ("qdesign t=2 v=3 k=2 lambda=1 q=2 poly=2\n1 0 0; 0 1 x\n", not_an_int),
        "d.cdesign": ("cdesign t=2 n=3 k=2 lambda=1\n0 x\n", not_an_int),
        "m.pmatrix": ("pmatrix rows=1 cols=3 p=2\n1x1\n", not_an_int),
        "d.txt": ("design t=2\n", "neither a qdesign nor a cdesign file"),
    }
    for argv in [
        ("design", "verify", "d.qdesign"),
        ("code", "build", "d.cdesign"),
        ("code", "rank", "m.pmatrix"),
        ("simulate", "--designfile", "d.txt", "--weight", "1", "--trials", "1"),
        ("decode", "two-step", "--designfile", "d.qdesign", "--word", "0"),
        ("decode", "two-step", "--designfile", "d.txt", "--word", "0"),
    ]:
        name = next(a for a in argv if a in files)
        path = tmp_path / name
        text, message = files[name]
        path.write_text(text)
        code, out, err = run(capsys, *(str(path) if a == name else a for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "field, bad_block, message",
    [
        ("q=2 poly=2", "1 0 0 ; 0 1", "vector has 2 coordinates, expected 3"),
        ("q=2 poly=2", "1 0 0 ; 0 0 2", "2 is not an element of GF(2)"),
        ("q=4 poly=7", "1 0 0 ; 0 0 5", "5 is not an element of GF(4)"),
    ],
    ids=["short-generator", "two-at-q2", "five-at-q4"],
)
def test_bad_generator_names_its_line(tmp_path, capsys, field, bad_block, message):
    # the errors a generator's coordinates raise name the block's line once
    path = tmp_path / "a.qdesign"
    path.write_text(f"qdesign t=1 v=3 k=2 lambda=1 {field}\n1 0 0 ; 0 1 0\n{bad_block}\n")
    code, out, err = run(capsys, "design", "verify", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 3: {message}\n"


def test_design_derive(capsys):
    code, out, _ = run(
        capsys, "design", "derive", "--t", "2", "--v", "6", "--k", "3",
        "--lambda", "3", "--q", "2",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["r"] == "31" and pairs["b"] == "279" and pairs["admissible"] == "true"


def test_design_derive_q_without_v_is_domain_error(capsys):
    code, out, err = run(
        capsys, "design", "derive", "--t", "2", "--k", "3", "--lambda", "1", "--q", "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: need --v for subspace parameters\n"


def test_code_build_report(tmp_path, capsys):
    path = tmp_path / "d.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "5", "--k", "3", "--q", "2",
        "--out", str(path))
    matrix_path = tmp_path / "m.pmatrix"
    code, out, _ = run(
        capsys, "code", "build", str(path), "--mode", "projective",
        "--matrix-out", str(matrix_path),
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["n"] == "31" and pairs["rank"] == "16" and pairs["dim"] == "15"
    assert pairs["ell"] == "2" and pairs["d_bch"] == "8"
    assert pairs["d_lower"] == "7" and pairs["d_exact"] == "8"

    code, out, _ = run(capsys, "code", "rank", str(matrix_path))
    assert code == 0 and kv(out)["rank"] == "16"

    code, out, _ = run(capsys, "code", "mindist", str(matrix_path))
    assert code == 0 and kv(out)["d"] == "8"


def test_code_build_of_a_lambda_zero_design(tmp_path, capsys):
    # the header's lambda = 0 gives no design parameters, but the code is
    # built from the blocks alone
    path = tmp_path / "d.cdesign"
    path.write_text("cdesign t=2 n=4 k=2 lambda=0\n0 1\n2 3\n")
    code, out, err = run(capsys, "code", "build", str(path))
    assert (code, err) == (0, "")
    pairs = kv(out)
    assert (pairs["n"], pairs["rank"], pairs["dim"]) == ("4", "2", "2")


@pytest.mark.parametrize(
    "v,k,q,p,printed",
    [
        (3, 2, 3, 2, False),  # lines of PG(2,3) over GF(2): d = 13, the all-ones word
        (4, 3, 3, 2, False),  # planes of PG(3,3) over GF(2): dimension 0
        (3, 2, 2, 3, False),  # lines of PG(2,2) over GF(3): the all-ones word, d = 7
        (3, 2, 3, 3, True),
        (3, 2, 4, 2, True),
    ],
)
def test_code_build_distance_lines_only_over_the_field_characteristic(
    tmp_path, capsys, v, k, q, p, printed
):
    # the distance bounds describe the code over the design field's
    # characteristic; a build over another p prints none of them
    path = tmp_path / "d.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", str(v), "--k", str(k),
        "--q", str(q), "--out", str(path))
    code, out, _ = run(capsys, "code", "build", str(path), "--p", str(p))
    assert code == 0
    keys = kv(out).keys()
    assert {"n", "rank", "dim"} <= keys
    assert [key for key in keys if key.startswith("d_")] == (
        ["d_bch", "d_lower", "d_exact"] if printed else []
    )


def test_code_build_matrix_out_is_over_the_code_field(tmp_path, capsys):
    # the lines of PG(2,3): rank 7 over GF(3), 12 over GF(2); a field whose
    # entries need more than one digit has no matrix file
    path, matrix_path = tmp_path / "d.qdesign", tmp_path / "m.pmatrix"
    run(capsys, "design", "trivial", "--t", "2", "--v", "3", "--k", "2", "--q", "3",
        "--out", str(path))
    code, out, _ = run(capsys, "code", "build", str(path), "--p", "3",
                       "--matrix-out", str(matrix_path))
    assert code == 0 and kv(out)["rank"] == "7"
    assert matrix_path.read_text().splitlines()[0] == "pmatrix rows=13 cols=13 p=3"
    code, out, _ = run(capsys, "code", "rank", str(matrix_path))
    assert (code, kv(out)["rank"]) == (0, "7")
    big = tmp_path / "big.pmatrix"
    code, out, err = run(capsys, "code", "build", str(path), "--p", "11",
                         "--matrix-out", str(big))
    assert (code, out) == (1, "")
    assert err == "error: matrix file format uses one digit per entry (p <= 7)\n"
    assert not big.exists()


def test_code_build_unwritable_matrix_writes_no_file(tmp_path, capsys):
    # the design file used to be written before the matrix writer rejected
    # p = 11, so the failed command left it behind
    path, dout, mout = tmp_path / "d.qdesign", tmp_path / "x.cdesign", tmp_path / "x.pmatrix"
    run(capsys, "design", "trivial", "--t", "2", "--v", "3", "--k", "2", "--q", "3",
        "--out", str(path))
    code, out, err = run(capsys, "code", "build", str(path), "--p", "11",
                         "--design-out", str(dout), "--matrix-out", str(mout))
    assert (code, out) == (1, "")
    assert err == "error: matrix file format uses one digit per entry (p <= 7)\n"
    assert not dout.exists() and not mout.exists()


def test_code_rank_p_zero_is_domain_error(tmp_path, capsys):
    path = tmp_path / "m.pmatrix"
    path.write_text("pmatrix rows=1 cols=3 p=2\n101\n")
    code, out, err = run(capsys, "code", "rank", str(path), "--p", "0")
    assert (code, out, err) == (1, "", "error: 0 is not prime\n")


def test_code_params_matches_build(capsys):
    code, out, _ = run(
        capsys, "code", "params", "--v", "5", "--k", "3", "--q", "2",
        "--mode", "projective",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["n"] == "31" and pairs["dim"] == "15" and pairs["d_bch"] == "8"


@pytest.mark.parametrize("q", [2, 3, 4])
def test_code_params_k_equal_v_is_the_even_weight_code(capsys, q):
    # the one check is the all-ones row: d = 2 at every q
    code, out, _ = run(
        capsys, "code", "params", "--t", "2", "--v", "3", "--k", "3", "--q", str(q)
    )
    assert code == 0
    pairs = kv(out)
    assert (pairs["rank"], pairs["d_bch"], pairs["d_exact"]) == ("1", "2", "2")


@pytest.mark.parametrize("lam", ["2", "5"])
def test_code_params_lambda_above_maximum_is_domain_error(capsys, lam):
    # [1, 0]_2 = 1: a 2-(3, 2, lambda)_2 design has lambda at most 1, as `table` says
    argv = ["--v", "3", "--k", "2", "--q", "2", "--lambda", lam]
    code, out, err = run(capsys, "code", "params", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: lambda={lam} exceeds the maximum 1\n"
    _, _, table_err = run(capsys, "table", *argv)
    assert table_err == err


def test_code_params_reads_the_table_row(capsys):
    # the row of test_table_kv_format, with its distance lines after it
    code, out, _ = run(
        capsys, "code", "params", "--v", "9", "--k", "5", "--q", "2", "--lambda", "93"
    )
    assert code == 0
    assert out.splitlines() == [
        "n=511", "rank=256", "dim=255", "ell=8", "d_bch=32", "d_lower=31", "d_exact=32"
    ]


def test_code_build_flats_design_out(tmp_path, capsys):
    path = tmp_path / "d.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "3", "--k", "2", "--q", "2",
        "--out", str(path))
    dout = tmp_path / "flats.cdesign"
    code, out, _ = run(
        capsys, "code", "build", str(path), "--mode", "flats", "--design-out", str(dout),
    )
    assert code == 0
    assert kv(out)["n"] == "8" and kv(out)["dim"] == "4"
    code, out, _ = run(capsys, "design", "verify", str(dout))
    assert code == 0 and kv(out)["observed_lambda"] == "1"


def test_code_build_affine_of_t3_design_matches_params(tmp_path, capsys):
    # over F_2 the affine version of a t >= 3 design is a 3-design with
    # lambda_3: build reports the capability that params predicts for it
    path = tmp_path / "t3.qdesign"
    run(capsys, "design", "trivial", "--t", "3", "--v", "6", "--k", "4", "--q", "2",
        "--out", str(path))
    dout = tmp_path / "a.cdesign"
    code, built, _ = run(
        capsys, "code", "build", str(path), "--mode", "affine", "--design-out", str(dout),
    )
    assert code == 0 and kv(built)["ell"] == "3"
    code, predicted, _ = run(
        capsys, "code", "params", "--t", "3", "--v", "6", "--k", "4", "--q", "2",
        "--mode", "affine",
    )
    assert code == 0 and kv(predicted)["ell"] == "3"
    assert dout.read_text().splitlines()[0] == "cdesign t=3 n=32 k=8 lambda=7"
    code, out, _ = run(capsys, "design", "verify", str(dout))
    assert code == 0 and kv(out)["observed_lambda"] == "7"


def test_hamada_breakdown(capsys):
    code, out, _ = run(capsys, "hamada", "--v", "7", "--k", "4", "--p", "2", "--m", "2",
                       "--breakdown")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank=2276"
    terms = [ln for ln in lines if ln.startswith("term ")]
    total = sum(int(ln.rsplit("=", 1)[1]) for ln in terms)
    assert total == 2276


def test_decode_one_step_clean(capsys):
    code, out, _ = run(
        capsys, "decode", "one-step", "--v", "3", "--k", "2", "--q", "2",
        "--word", "0000000",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["status"] == "decoded" and pairs["flips"] == ""


def test_decode_one_step_single_error(capsys):
    code, out, _ = run(
        capsys, "decode", "one-step", "--v", "3", "--k", "2", "--q", "2",
        "--word", "0100000",
    )
    pairs = kv(out)
    assert pairs["status"] == "decoded" and pairs["word"] == "0000000"


def test_decode_two_step(capsys):
    word = "0" * 28 + "111"
    code, out, _ = run(
        capsys, "decode", "two-step", "--v", "5", "--k", "3", "--q", "2", "--word", word,
    )
    pairs = kv(out)
    assert pairs["status"] == "decoded" and pairs["word"] == "0" * 31


_SHIPPED_DESIGN = str(
    Path(__file__).resolve().parents[1] / "perfbench" / "designs" / "2-7-3-3_2.qdesign"
)


def _positions(*ranges):
    return ",".join(str(j) for r in ranges for j in r)


@pytest.mark.parametrize(
    "argv, word, lines",
    [
        # slot lanes, past the capability 10: the flips hold the 12 errors
        # and four more positions, and the flipped word is no codeword
        (
            ["one-step", "--designfile", _SHIPPED_DESIGN],
            "1" * 12 + "0" * 115,
            [
                "status=detected-uncorrectable",
                "flips=" + _positions(range(12), (31, 43, 88, 122)),
            ],
        ),
        (
            ["one-step", "--designfile", _SHIPPED_DESIGN],
            "1" * 10 + "0" * 117,
            ["status=decoded", "flips=" + _positions(range(10)), "word=" + "0" * 127],
        ),
        # the count table, past the capability 7: a miscorrection
        (
            ["one-step", "--v", "5", "--k", "2"],
            "1" * 8 + "0" * 23,
            [
                "status=decoded",
                "flips=" + _positions(range(8), range(15, 31)),
                "word=" + "0" * 15 + "1" * 16,
            ],
        ),
        # two-step through the lines of PG(3,4), past the capability 2
        (
            ["two-step", "--v", "4", "--k", "3", "--q", "4"],
            "1" * 3 + "0" * 82,
            [
                "status=decoded",
                "flips=" + _positions(range(3), range(5, 85)),
                "word=" + "0" * 5 + "1" * 80,
            ],
        ),
    ],
    ids=["lanes-detected", "lanes-decoded", "count-table", "two-step-q4"],
)
def test_decode_prints_every_flipped_position(capsys, argv, word, lines):
    code, out, err = run(capsys, "decode", *argv, "--word", word)
    assert (code, err) == (0, "")
    assert out.splitlines() == lines


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "two-step", "--word", "0" * 21],
        ["radius", "--decoder", "two-step"],
        ["simulate", "--decoder", "two-step", "--weight", "2", "--trials", "5"],
    ],
    ids=["decode", "radius", "simulate"],
)
def test_two_step_with_k_below_3_names_k_and_the_step2_design(capsys, argv):
    code, out, err = run(capsys, *argv, "--v", "3", "--k", "2", "--q", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: --k 2 is too small for two-step decoding")
    assert "step-2 design" in err and err.count("\n") == 1


def test_decode_two_step_with_designfile(tmp_path, capsys):
    path = tmp_path / "step2.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "5", "--k", "2", "--q", "2",
        "--out", str(path))
    word = "1" * 2 + "0" * 29
    code, out, _ = run(
        capsys, "decode", "two-step", "--designfile", str(path), "--word", word,
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["status"] == "decoded" and pairs["word"] == "0" * 31


@pytest.mark.parametrize(
    "t, k, message",
    [
        (1, 2, "two-step decoding needs a step-2 design with t >= 2, not t = 1"),
        (2, 5, "the step-2 design's blocks (k = 5, v = 5) leave no room for superspaces"),
    ],
    ids=["t=1", "k=v"],
)
def test_two_step_checks_the_step2_file_before_building_the_code(
    tmp_path, capsys, monkeypatch, t, k, message
):
    path = tmp_path / "step2.qdesign"
    run(capsys, "design", "trivial", "--t", str(t), "--v", "5", "--k", str(k), "--q", "2",
        "--out", str(path))

    def build_code(*args):
        raise AssertionError("the code was built before the step-2 design was checked")

    monkeypatch.setattr("designcodes.cli.build_code", build_code)
    code, out, err = run(
        capsys, "simulate", "--decoder", "two-step", "--designfile", str(path),
        "--weight", "1", "--trials", "1",
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["radius", "simulate", "decode"])
@pytest.mark.parametrize("mode", ["affine", "flats"])
def test_two_step_decodes_the_code_of_every_mode(capsys, command, mode):
    # --mode makes both the code and the step-2 design of PG(4,2), as for
    # one-step decoding, and projective is the default; the codes have 16
    # (affine), 32 (flats) and 31 (projective) positions
    def argv(n):
        return {
            "radius": ["radius", "--decoder", "two-step", "--seed", "1"],
            "simulate": ["simulate", "--decoder", "two-step", "--seed", "1",
                         "--weight", "2", "--trials", "30"],
            "decode": ["decode", "two-step", "--word", "0" * n],
        }[command] + ["--v", "5", "--k", "3", "--q", "2"]

    n = {"affine": 16, "flats": 32}[mode]
    code, out, err = run(capsys, *argv(n), "--mode", mode)
    assert code == 0 and err == "" and out
    code, out, err = run(capsys, *argv(31), "--mode", "projective")
    assert code == 0 and err == ""
    assert run(capsys, *argv(31)) == (code, out, err)


def test_two_step_refuses_a_step2_file_that_misses_a_point(tmp_path, capsys):
    # the step-2 blocks must cover every position of the code
    path = _step2_file(tmp_path, capsys)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    argv = ["simulate", "--decoder", "two-step", "--designfile", str(path)]
    code, out, err = run(capsys, *argv, "--weight", "1", "--trials", "1")
    assert (code, out) == (1, "")
    assert err == "error: code length does not match the design's geometry\n"


def test_two_step_flats_needs_q_2(capsys):
    argv = ["simulate", "--decoder", "two-step", "--v", "4", "--k", "3", "--q", "4"]
    code, out, err = run(capsys, *argv, "--weight", "1", "--trials", "1", "--mode", "flats")
    assert (code, out, err) == (1, "", "error: flats construction requires q = 2\n")


def _fano_files(tmp_path):
    """The Fano plane as a qdesign file and its projective version as a
    cdesign file."""
    fano = trivial_design(2, 3, 2, FieldCtx.of(2))
    qpath, cpath = tmp_path / "d.qdesign", tmp_path / "d.cdesign"
    qpath.write_text(dumps_subspace_design(fano))
    cpath.write_text(dumps_comb_design(projective_version(fano)))
    return qpath, cpath


def _refused(capsys, argv, start):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, ""), argv
    assert err.startswith(f"error: {start}") and err.count("\n") == 1, (argv, err)


def _refuses_cdesign_mode(capsys, argv, mode):
    # every command that reads a cdesign's blocks as the code's checks
    # refuses every mode, with one message
    code, out, err = run(capsys, *argv, "--mode", mode)
    assert (code, out) == (1, ""), argv
    assert err == (
        f"error: --mode {mode} does not apply to a cdesign file, whose blocks are the code's checks\n"
    )


@pytest.mark.parametrize("mode", ["projective", "affine", "flats"])
def test_code_build_of_a_cdesign_refuses_a_mode(tmp_path, capsys, mode):
    # a cdesign's blocks are the code's checks as they stand, so no mode
    # applies to it
    _, cpath = _fano_files(tmp_path)
    _refuses_cdesign_mode(capsys, ["code", "build", str(cpath)], mode)
    assert run(capsys, "code", "build", str(cpath))[0] == 0


def test_code_build_refuses_a_hyperplane_outside_affine_mode(tmp_path, capsys):
    qpath, cpath = _fano_files(tmp_path)
    for path, mode in [(qpath, None), (qpath, "projective"), (qpath, "flats"), (cpath, None)]:
        argv = ["code", "build", str(path), "--hyperplane", "0 1 0"]
        argv += ["--mode", mode] if mode else []
        _refused(capsys, argv, "--hyperplane applies only to --mode affine")
    code, out, err = run(capsys, "code", "build", str(qpath), "--mode", "affine", "--hyperplane", "0 1 0")
    assert code == 0 and err == "" and kv(out)["n"] == "4"


@pytest.mark.parametrize("mode", ["affine", "flats", "projective"])
@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "one-step", "--word", "0" * 7],
        ["radius"],
        ["simulate", "--weight", "1", "--trials", "3"],
    ],
    ids=["decode-one-step", "radius", "simulate"],
)
def test_one_step_commands_refuse_a_mode_with_a_cdesign(tmp_path, capsys, argv, mode):
    # as `code build` does: --mode projective is refused too, not read as
    # the cdesign's blocks as they stand
    _, cpath = _fano_files(tmp_path)
    argv = argv + ["--designfile", str(cpath)]
    _refuses_cdesign_mode(capsys, argv, mode)
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize("mode", [None, "projective"])
@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "two-step", "--word", "0" * 7],
        ["radius", "--decoder", "two-step"],
        ["simulate", "--decoder", "two-step", "--weight", "1", "--trials", "1"],
    ],
    ids=["decode-two-step", "radius", "simulate"],
)
def test_two_step_commands_refuse_a_cdesign(tmp_path, capsys, argv, mode):
    # the step-2 design is a subspace design, whose superspaces make the code
    _, cpath = _fano_files(tmp_path)
    argv = argv + ["--designfile", str(cpath)] + (["--mode", mode] if mode else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {cpath}: two-step decoding needs a qdesign file, not a cdesign\n"


# cdesign files whose blocks fail verification: {0, 1, 2} + i mod 7, whose
# pair counts are 2 and 1, and the Fano plane under a lambda = 2 header
NON_DESIGNS = {
    "cyclic": (
        "cdesign t=2 n=7 k=3 lambda=1\n"
        + "".join(f"{i} {(i + 1) % 7} {(i + 2) % 7}\n" for i in range(7)),
        "non-constant",
    ),
    "fano-lambda-2": (
        "cdesign t=2 n=7 k=3 lambda=2\n"
        + "".join(f"{i} {(i + 1) % 7} {(i + 3) % 7}\n" for i in range(7)),
        "1",
    ),
}

_ONE_STEP_COMMANDS = [
    ["decode", "one-step", "--word", "1000000"],
    ["radius"],
    ["simulate", "--weight", "1", "--trials", "3"],
]


@pytest.mark.parametrize("name", NON_DESIGNS)
@pytest.mark.parametrize("argv", _ONE_STEP_COMMANDS, ids=["decode-one-step", "radius", "simulate"])
def test_one_step_commands_refuse_a_cdesign_that_fails_verification(tmp_path, capsys, argv, name):
    # one-step decoding reads the file's lambda, so a file whose blocks do
    # not form its header's design is refused, naming the observed lambda
    text, observed = NON_DESIGNS[name]
    path = tmp_path / "bad.cdesign"
    path.write_text(text)
    _refused(
        capsys,
        argv + ["--designfile", str(path)],
        f"{path} fails verification (observed lambda {observed}, header lambda",
    )
    # a mode is still refused first
    _refused(capsys, argv + ["--designfile", str(path), "--mode", "flats"], "--mode flats")


@pytest.mark.parametrize("argv", _ONE_STEP_COMMANDS, ids=["decode-one-step", "radius", "simulate"])
def test_one_step_commands_refuse_a_qdesign_that_fails_verification(tmp_path, capsys, argv):
    # the Fano plane, a 2-(3,2,1)_2 design, under a lambda = 2 header
    qpath, _ = _fano_files(tmp_path)
    qpath.write_text(qpath.read_text().replace("lambda=1", "lambda=2"))
    for mode in ("projective", "affine", "flats"):
        _refused(
            capsys,
            argv + ["--designfile", str(qpath), "--mode", mode],
            f"{qpath} fails verification (observed lambda 1, header lambda 2)",
        )


@pytest.mark.parametrize(
    "argv",
    _ONE_STEP_COMMANDS + [["code", "build"]],
    ids=["decode-one-step", "radius", "simulate", "code-build"],
)
def test_a_construction_error_comes_before_verification(tmp_path, capsys, argv):
    # the lines of PG(2,3), a 2-(3,2,1)_3 design, under a lambda = 2 header:
    # the flats construction refuses q = 3 before the file is verified
    path = tmp_path / "d.qdesign"
    text = dumps_subspace_design(trivial_design(2, 3, 2, FieldCtx.of(3)))
    path.write_text(text.replace("lambda=1", "lambda=2"))
    assert run(capsys, "design", "verify", str(path))[0] == 1
    argv = argv + ([str(path)] if argv[0] == "code" else ["--designfile", str(path)])
    code, out, err = run(capsys, *argv, "--mode", "flats")
    assert (code, out, err) == (1, "", "error: flats construction requires q = 2\n")


def test_code_build_prints_no_ell_for_a_file_that_fails_verification(tmp_path, capsys):
    # `ell=` reads the header's parameters, so it is left out for the
    # cyclic cdesign, whose blocks form no 2-(7,3,1) design, and for the
    # Fano plane under a lambda = 2 header; the code is still built
    path = tmp_path / "bad.cdesign"
    path.write_text(NON_DESIGNS["cyclic"][0])
    code, out, err = run(capsys, "code", "build", str(path))
    assert (code, err) == (0, "")
    assert out == "n=7\nrank=7\ndim=0\n"
    qpath, cpath = _fano_files(tmp_path)
    code, out, _ = run(capsys, "code", "build", str(cpath))
    assert code == 0 and kv(out)["ell"] == "1"
    qpath.write_text(qpath.read_text().replace("lambda=1", "lambda=2"))
    code, out, err = run(capsys, "code", "build", str(qpath))
    assert (code, err) == (0, "")
    assert {"n", "rank", "dim", "d_bch"} <= kv(out).keys() and "ell" not in kv(out)


def test_a_refused_option_leaves_a_malformed_file_its_own_error(tmp_path, capsys):
    # the file is read before the options are judged against it
    path = tmp_path / "d.cdesign"
    path.write_text("cdesign t=2 n=3 k=2 lambda=1\n0 x\n")
    for argv in [
        ["code", "build", str(path), "--mode", "flats"],
        ["code", "build", str(path), "--hyperplane", "0 1 0"],
        ["radius", "--designfile", str(path), "--mode", "affine"],
    ]:
        _refused(capsys, argv, f"{path}: line 2: 'x' is not an integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "one-step", "--word", "0" * 7],
        ["decode", "two-step", "--word", "0" * 31],
        ["radius"],
        ["simulate", "--weight", "1", "--trials", "1"],
    ],
    ids=["decode-one-step", "decode-two-step", "radius", "simulate"],
)
def test_decoder_commands_take_no_t(capsys, argv):
    # no decoder reads t: one-step decodes the trivial 2-design, two-step
    # uses t = 2 throughout
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--v", "3", "--k", "2", "--q", "2", "--t", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1\n# comment\n0 0\n", "line 4: block (0, 0) does not have 2 distinct points"),
        ("0 1\n1 2 0\n", "line 3: block (0, 1, 2) does not have 2 distinct points"),
        ("0 3\n", "line 2: block (0, 3) has points outside [0, 3)"),
        ("0 1\n1 0\n", "duplicate block (designs are simple)"),
    ],
)
def test_bad_cdesign_block_names_its_line(tmp_path, capsys, body, message):
    path = tmp_path / "bad.cdesign"
    path.write_text("cdesign t=1 n=3 k=2 lambda=1\n" + body)
    code, out, err = run(capsys, "design", "verify", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {message}\n"


def test_radius_command(capsys):
    code, out, _ = run(
        capsys, "radius", "--decoder", "one-step", "--v", "3", "--k", "2", "--q", "2",
    )
    assert code == 0
    pairs = kv(out)
    assert pairs["radius"] == "1" and pairs["first_failure"] == "2"
    assert pairs["exhaustive"] == "true"


@pytest.mark.parametrize("v,budget", [(3, "0"), (4, "-3")])
def test_radius_budget_below_one_is_domain_error(capsys, v, budget):
    code, out, err = run(
        capsys, "radius", "--v", str(v), "--k", "2", "--q", "2", "--budget", budget,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("max_weight", ["-2", "0"])
def test_radius_max_weight_below_one_is_domain_error(capsys, max_weight):
    code, out, err = run(
        capsys, "radius", "--v", "3", "--k", "2", "--q", "2", "--max-weight", max_weight,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "max_weight" in err


def test_simulate_negative_trials_is_domain_error(capsys):
    code, out, err = run(
        capsys, "simulate", "--v", "3", "--k", "2", "--q", "2", "--weight", "1",
        "--trials", "-5",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "trials" in err


@pytest.mark.parametrize("trials", ["0", "3"])
def test_simulate_negative_weight_is_domain_error(capsys, trials):
    code, out, err = run(
        capsys, "simulate", "--v", "3", "--k", "2", "--q", "2", "--weight", "-1",
        "--trials", trials,
    )
    assert (code, out) == (1, "")
    assert err == "error: weight must be non-negative, got -1\n"


@pytest.mark.parametrize("p,m", [("4", "1"), ("2", "0")])
def test_hamada_bad_characteristic_or_degree_is_domain_error(capsys, p, m):
    code, out, err = run(capsys, "hamada", "--v", "3", "--k", "2", "--p", p, "--m", m)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_simulate_command_deterministic(capsys):
    argv = [
        "simulate", "--decoder", "two-step", "--v", "5", "--k", "3", "--q", "2",
        "--weight", "3", "--trials", "50", "--seed", "9", "--zero",
    ]
    code, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert out1 == out2
    pairs = kv(out1)
    assert pairs["success_rate"] == "1.0"
    assert int(pairs["check_evals"]) > 0


def test_table_kv_format(capsys):
    code, out, _ = run(
        capsys, "table", "--t", "2", "--v", "9", "--k", "5", "--lambda", "93",
        "--q", "2", "--mode", "projective", "--format", "kv",
    )
    pairs = kv(out)
    assert pairs["n"] == "511" and pairs["dim"] == "255" and pairs["ell"] == "8"
    assert pairs["r"] == "1581" and pairs["speedup"] == "127.0"


def test_table_default_format_is_one_tsv_line(capsys):
    code, out, err = run(
        capsys, "table", "--t", "2", "--v", "7", "--k", "3", "--lambda", "3", "--q", "2"
    )
    assert (code, err) == (0, "")
    assert out == "2-(7,3,3)_2\t1\t31\t[127, 28, 10]\t63\t10.3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--t", "1", "--v", "7", "--k", "3", "--lambda", "7", "--q", "2"],
        ["code", "params", "--t", "1", "--v", "7", "--k", "3", "--q", "2"],
    ],
    ids=["table", "code-params"],
)
def test_constructions_below_t2_are_refused_by_construction_params(capsys, argv):
    _refused(capsys, argv, "construction needs a design with t >= 2\n")


def test_table_inadmissible_lambda_is_domain_error(capsys):
    code, _, err = run(
        capsys, "table", "--t", "2", "--v", "8", "--k", "3", "--lambda", "1", "--q", "2",
    )
    assert code == 1
    assert "lambda_0" in err


def test_experiment_rank_equal(tmp_path, capsys):
    path = tmp_path / "d.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "4", "--k", "2", "--q", "2",
        "--out", str(path))
    code, out, _ = run(capsys, "experiment", "rank", str(path))
    assert code == 0
    pairs = kv(out)
    assert pairs["matrix_rank"] == "11" and pairs["binary_rank"] == "11"
    assert pairs["verdict"] == "equal"


def test_experiment_rank_refuses_broken_design(tmp_path, capsys):
    ctx = FieldCtx.of(2)
    d = trivial_design(2, 4, 2, ctx)
    lines = dumps_subspace_design(d).splitlines()
    (tmp_path / "broken.qdesign").write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "experiment", "rank", str(tmp_path / "broken.qdesign"))
    assert code == 1
    assert kv(out)["verified"] == "false"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--does-not-exist"])
    assert exc.value.code == 2


def test_missing_geometry_without_designfile(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "one-step", "--word", "000"])
    assert exc.value.code == 2
    # reported against the subcommand's options, not the top-level usage
    err = capsys.readouterr().err
    assert err.startswith("usage: designcodes decode one-step ")
    assert err.endswith("error: --v is required without --designfile\n")


def test_file_emit_load_emit_roundtrip(tmp_path, capsys):
    p1 = tmp_path / "a.qdesign"
    p2 = tmp_path / "b.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "4", "--k", "3", "--q", "2",
        "--out", str(p1))
    from designcodes.designs import load_subspace_design, save_subspace_design

    save_subspace_design(load_subspace_design(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "designcodes", "table", "--t", "2", "--v", "7", "--k", "3",
         "--lambda", "21", "--q", "4"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "2-(7,3,21)_4\t1\t341\t[5461, 1064, 136]\t5733\t16.2"


# Valid file texts that the fuzz test below mutates: the Fano plane as a
# 2-(3,2,1)_2 qdesign, its projective version as a cdesign and its check
# matrix as a pmatrix, and the lines of PG(2,4) as a qdesign over GF(4).
_FANO = trivial_design(2, 3, 2, FieldCtx.of(2))
_FUZZ_BASES = [
    ("d.qdesign", dumps_subspace_design(_FANO)),
    ("d.qdesign", dumps_subspace_design(trivial_design(2, 3, 2, FieldCtx.of(4)))),
    ("d.cdesign", dumps_comb_design(projective_version(_FANO))),
    ("m.pmatrix", build_code(projective_version(_FANO), 2, "projective").checks.dumps()),
]
_JUNK = ["x", "-1", "0", "1", "2", "3", "7", "1.5", "0x1", "=", "#", ";", ""]


@st.composite
def _mutated(draw):
    """A valid design or matrix text with one to three edits: a token
    dropped, duplicated or corrupted, a line cut short, or a stray `=` or
    `#` put into a line."""
    name, text = draw(st.sampled_from(_FUZZ_BASES))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        edit = draw(st.sampled_from(["drop", "dup", "corrupt", "cut", "stray"]))
        if edit in ("drop", "dup", "corrupt") and toks:
            j = draw(st.integers(0, len(toks) - 1))
            if edit == "drop":
                del toks[j]
            elif edit == "dup":
                toks.insert(j, toks[j])
            else:
                toks[j] = draw(st.sampled_from(_JUNK))
            lines[i] = " ".join(toks)
        elif edit == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from("=#")) + lines[i][at:]
    return name, "\n".join(lines) + "\n"


def _commands(path):
    if path.suffix == ".pmatrix":
        return [("code", "rank", path), ("code", "mindist", path)]
    cmds = [("design", "verify", path), ("code", "build", path)]
    cmds += [("code", "build", path, "--mode", mode) for mode in ("projective", "affine", "flats")]
    cmds.append(("decode", "one-step", "--designfile", path, "--word", "0" * 7))
    if path.suffix == ".qdesign":
        cmds.append(("experiment", "rank", path))
        cmds.append(("decode", "two-step", "--designfile", path, "--word", "0" * 7))
    return cmds


@settings(max_examples=40, deadline=None)
@given(_mutated())
def test_cli_survives_mutated_files(tmp_path_factory, case):
    # every command either succeeds, exits 1 with one error line, or (design
    # verify, experiment rank) exits 1 reporting verified=false; never an
    # uncaught exception
    name, text = case
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text)
    for argv in _commands(path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            continue
        assert code == 1, (argv, text)
        if err:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, text, err)
        else:
            assert "verified=false" in out.splitlines(), (argv, text, out)


@pytest.mark.parametrize(
    "name, text, repeat",
    [_FUZZ_BASES[0] + ("t=5",), _FUZZ_BASES[0] + ("t=1",)]
    + [_FUZZ_BASES[2] + ("n=7",), _FUZZ_BASES[3] + ("p=2",)],
    ids=["qdesign-t=5", "qdesign-t=1", "cdesign-n=7", "pmatrix-p=2"],
)
def test_repeated_header_key_is_domain_error(tmp_path, capsys, name, text, repeat):
    # the last value of a repeated key used to win silently: a trailing t=1
    # loaded a 1-design, and t=5 failed verification with a misleading message
    path = tmp_path / name
    argv = ("code", "rank") if name.endswith(".pmatrix") else ("design", "verify")
    path.write_text(text)
    assert run(capsys, *argv, str(path))[0] == 0
    header, _, body = text.partition("\n")
    path.write_text(f"{header} {repeat}\n{body}")
    code, out, err = run(capsys, *argv, str(path))
    kind, key = header.split()[0], repeat.split("=")[0]
    assert code == 1 and out == ""
    assert err == f"error: {path}: {kind} header repeats key {key!r}\n"


def _step2_file(tmp_path, capsys):
    """The trivial 2-(5,2,7)_2 design as a qdesign file: a design every
    decoder command accepts, one-step and two-step."""
    path = tmp_path / "step2.qdesign"
    run(capsys, "design", "trivial", "--t", "2", "--v", "5", "--k", "2", "--q", "2",
        "--out", str(path))
    return path


_DECODER_COMMANDS = [
    ["decode", "one-step", "--word", "0" * 31],
    ["decode", "two-step", "--word", "0" * 31],
    ["radius", "--budget", "50", "--max-weight", "2"],
    ["simulate", "--weight", "1", "--trials", "3"],
]


@pytest.mark.parametrize(
    "option, value", [("--v", "5"), ("--k", "2"), ("--q", "2"), ("--poly", "2")]
)
def test_decoder_commands_refuse_a_source_option_with_a_designfile(
    tmp_path, capsys, option, value
):
    # the file fixes the design, its field and its geometry: an option that
    # would be dropped is refused, even when it agrees with the file
    path = _step2_file(tmp_path, capsys)
    for argv in _DECODER_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--designfile", str(path), option, value])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and f"error: {option} does not apply with --designfile" in err
        command = " ".join(argv[:2] if argv[0] == "decode" else argv[:1])
        assert err.startswith(f"usage: designcodes {command} "), argv


def test_decoder_commands_take_a_designfile_alone(tmp_path, capsys):
    path = _step2_file(tmp_path, capsys)
    for argv in _DECODER_COMMANDS:
        code, out, err = run(capsys, *argv, "--designfile", str(path))
        assert code == 0 and err == "" and out, argv


def test_decoder_commands_default_to_q2_without_a_designfile(capsys):
    for argv in _DECODER_COMMANDS:
        code, out, err = run(capsys, *argv, "--v", "5", "--k", "3")
        assert code == 0 and err == "" and out, argv
        assert run(capsys, *argv, "--v", "5", "--k", "3", "--q", "2") == (code, out, err)


def test_design_trivial_without_out_prints_the_file(tmp_path, capsys):
    path = tmp_path / "d.qdesign"
    argv = ["design", "trivial", "--t", "2", "--v", "4", "--k", "2", "--q", "3"]
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert run(capsys, *argv) == (0, path.read_text(), "")


def test_design_derive_combinatorial(capsys):
    code, out, err = run(capsys, "design", "derive", "--t", "2", "--n", "7", "--k", "3",
                         "--lambda", "1")
    assert code == 0 and err == ""
    pairs = kv(out)
    assert (pairs["b"], pairs["r"], pairs["admissible"]) == ("7", "3", "true")


def test_design_derive_needs_q_or_n(capsys):
    code, out, err = run(capsys, "design", "derive", "--t", "2", "--k", "3", "--lambda", "1")
    assert (code, out) == (1, "")
    assert err == "error: need --q for subspace parameters or --n for combinatorial\n"


def test_hamada_binary_prints_the_binary_formula(capsys):
    assert run(capsys, "hamada", "--v", "7", "--k", "3", "--p", "2", "--m", "1") == (
        0,
        "rank=99\nbinary_formula=99\n",
        "",
    )


def test_design_verify_of_a_cdesign_names_a_point_tuple_witness(tmp_path, capsys):
    # the Fano plane without its last block, 2 4 5: the pair 2 4 lies in no block
    _, cpath = _fano_files(tmp_path)
    lines = cpath.read_text().splitlines()
    assert lines[-1] == "2 4 5"
    cpath.write_text("\n".join(lines[:-1]) + "\n")
    code, out, err = run(capsys, "design", "verify", str(cpath))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "verified=false",
        "observed_lambda=non-constant",
        "witness=2 4",
        "witness_count=0",
    ]


def test_experiment_rank_refuses_a_cdesign(tmp_path, capsys):
    _, cpath = _fano_files(tmp_path)
    _refused(capsys, ["experiment", "rank", str(cpath)], "the rank experiment needs a")


def test_experiment_rank_with_geometric_matrix(tmp_path, capsys):
    qpath, _ = _fano_files(tmp_path)
    code, out, err = run(capsys, "experiment", "rank", str(qpath), "--with-geometric-matrix")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "matrix_rank=4",
        "hamada_rank=4",
        "binary_rank=4",
        "geometric_matrix_rank=4",
        "verdict=equal",
    ]

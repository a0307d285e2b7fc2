"""Golden outputs: seeded CLI runs and a code's basis, pinned byte for byte.

The values were captured before the GF(2) elimination and the field tables
were reworked.  `random_codeword` draws from `nullspace_basis()` in its
order, so any change to the basis order shows up here as well.  The q = 4
two-step simulation and the two-step radius were captured before the
two-step decoder took its superspace point sets from the quotient classes;
the q = 4 run's split between miscorrected and detected words depends on
the exact step-1 tables.  The one-step run on the shipped 2-(7,3,3)_2
design (its 11 detected words pin the DETECTED path) and the q = 3
two-step run (J = 4, so step-1 estimates can tie) were captured before
the decoders computed each check's parity once per word.  The `design
verify` and `experiment rank` outputs, on the shipped design and on a copy
missing its last block (which pins the witness lines), were captured before
verification counted containments through the point columns.  The sha256
of the `twostep-q4` decoder's tables and of the point sets of the lines of
PG(2,8) were captured before the geometry of every characteristic-2 field
walked packed vectors by XOR.  The sha256 of the `twostep-subspace`
decoder's tables and of the block rows and order of the 4-subspaces of
F_2^7 and of the shipped design were captured before q = 2 subspaces were
held as row masks.  The sha256 of the written projective, affine and flats
versions of the shipped design and of the lines of PG(2,4), and of the
stdout of `scripts/reproduce_tables.py` and `scripts/rank_experiment.py`,
were captured before combinatorial blocks were held as point masks.  The
two-step run through the shipped design (J = 15) was captured before the
step-1 majority was counted by a halving adder tree.  The sampled one-step
radius through the shipped design and the two-step run drawn from
`random.sample`'s pool branch were captured before error patterns were
drawn as masks by `decoders._error_mask`.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from designcodes.cli import main
from designcodes.codes import build_code
from designcodes.decoders import TwoStepDecoder
from designcodes.designs import (
    affine_version,
    dumps_comb_design,
    flats_construction,
    load_subspace_design,
    projective_version,
    trivial_design,
)
from designcodes.field import FieldCtx
from designcodes.pspace import enumerate_subspaces, points_of_subspace


ROOT = Path(__file__).resolve().parents[1]
SHIPPED_DESIGN = ROOT / "perfbench" / "designs" / "2-7-3-3_2.qdesign"


def stdout_of(capsys, *argv, status=0):
    assert main(list(argv)) == status
    return capsys.readouterr().out


def _broken_copy(tmp_path):
    """The shipped design without its last block."""
    lines = SHIPPED_DESIGN.read_text(encoding="utf-8").splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.split("#", 1)[0].strip())
    path = tmp_path / "broken.qdesign"
    path.write_text("".join(lines[:last] + lines[last + 1 :]), encoding="utf-8")
    return path


def test_simulate_two_step_golden(capsys):
    out = stdout_of(
        capsys, "simulate", "--decoder", "two-step", "--v", "5", "--k", "3", "--q", "2",
        "--weight", "2", "--trials", "300", "--seed", "7",
    )
    assert out == (
        "seed=7\nweight=2\ntrials=300\nsuccesses=300\nmiscorrected=0\ndetected=0\n"
        "success_rate=1.0\ncheck_evals=465000\n"
    )


def test_simulate_two_step_q4_golden(capsys):
    out = stdout_of(
        capsys, "simulate", "--decoder", "two-step", "--v", "4", "--k", "3", "--q", "4",
        "--weight", "3", "--trials", "300", "--seed", "5",
    )
    assert out == (
        "seed=5\nweight=3\ntrials=300\nsuccesses=0\nmiscorrected=12\ndetected=288\n"
        "success_rate=0.0\ncheck_evals=1071000\n"
    )


def test_simulate_two_step_shipped_design_golden(capsys):
    # J = 15: the 4-subspace code of PG(6,2) through the shipped design
    out = stdout_of(
        capsys, "simulate", "--decoder", "two-step", "--designfile", str(SHIPPED_DESIGN),
        "--weight", "8", "--trials", "300", "--seed", "5",
    )
    assert out == (
        "seed=5\nweight=8\ntrials=300\nsuccesses=58\nmiscorrected=0\ndetected=242\n"
        "success_rate=0.19333333333333333\ncheck_evals=7543800\n"
    )


def test_simulate_one_step_subspace_design_golden(capsys):
    out = stdout_of(
        capsys, "simulate", "--decoder", "one-step", "--designfile", str(SHIPPED_DESIGN),
        "--weight", "11", "--trials", "200", "--seed", "3",
    )
    assert out == (
        "seed=3\nweight=11\ntrials=200\nsuccesses=189\nmiscorrected=0\ndetected=11\n"
        "success_rate=0.945\ncheck_evals=1600200\n"
    )


def test_simulate_two_step_pool_draw_golden(capsys):
    # n = 31 and weight 6 lie below `random.sample`'s setsize of 85, so
    # every error pattern is drawn from its pool branch
    out = stdout_of(
        capsys, "simulate", "--decoder", "two-step", "--v", "5", "--k", "3", "--q", "2",
        "--weight", "6", "--trials", "300", "--seed", "4",
    )
    assert out == (
        "seed=4\nweight=6\ntrials=300\nsuccesses=0\nmiscorrected=30\ndetected=270\n"
        "success_rate=0.0\ncheck_evals=465000\n"
    )


def test_simulate_two_step_q3_golden(capsys):
    out = stdout_of(
        capsys, "simulate", "--decoder", "two-step", "--v", "4", "--k", "3", "--q", "3",
        "--weight", "3", "--trials", "300", "--seed", "2",
    )
    assert out == (
        "seed=2\nweight=3\ntrials=300\nsuccesses=0\nmiscorrected=0\ndetected=300\n"
        "success_rate=0.0\ncheck_evals=312000\n"
    )


def test_radius_two_step_golden(capsys):
    out = stdout_of(
        capsys, "radius", "--decoder", "two-step", "--v", "5", "--k", "3", "--q", "2",
        "--seed", "1",
    )
    assert out == "radius=3\nfirst_failure=4\ntrials=4992\nexhaustive=true\n"


def test_radius_one_step_golden(capsys):
    out = stdout_of(
        capsys, "radius", "--decoder", "one-step", "--v", "5", "--k", "3", "--q", "2",
        "--seed", "1",
    )
    assert out == "radius=3\nfirst_failure=4\ntrials=4992\nexhaustive=true\n"


def test_radius_one_step_sampled_golden(capsys):
    # C(127, w) exceeds the budget from w = 2 on, so every weight past the
    # first is sampled, from `random.sample`'s set branch
    out = stdout_of(
        capsys, "radius", "--decoder", "one-step", "--designfile", str(SHIPPED_DESIGN),
        "--budget", "300", "--max-weight", "14", "--seed", "2",
    )
    assert out == "radius=10\nfirst_failure=11\ntrials=2851\nexhaustive=false\n"


def test_design_verify_shipped_golden(capsys):
    out = stdout_of(capsys, "design", "verify", str(SHIPPED_DESIGN))
    assert out == "verified=true\nobserved_lambda=3\n"


def test_design_verify_missing_block_golden(capsys, tmp_path):
    out = stdout_of(capsys, "design", "verify", str(_broken_copy(tmp_path)), status=1)
    assert out == (
        "verified=false\nobserved_lambda=non-constant\n"
        "witness=1 0 0 1 0 1 1 ; 0 1 1 0 0 0 1\nwitness_count=2\n"
    )


def test_experiment_rank_shipped_golden(capsys):
    out = stdout_of(capsys, "experiment", "rank", str(SHIPPED_DESIGN))
    assert out == "matrix_rank=99\nhamada_rank=99\nbinary_rank=99\nverdict=equal\n"


def test_experiment_rank_missing_block_golden(capsys, tmp_path):
    out = stdout_of(capsys, "experiment", "rank", str(_broken_copy(tmp_path)), status=1)
    assert out == "verified=false\nwitness=1 0 0 1 0 1 1 ; 0 1 1 0 0 0 1\nwitness_count=2\n"


def test_nullspace_basis_and_random_codewords_golden():
    code = build_code(projective_version(trivial_design(2, 5, 3, FieldCtx.of(2))), 2, "projective")
    assert (code.n, code.rank) == (31, 16)
    assert code.nullspace_basis() == [
        2040, 6630, 10965, 19275, 491640, 1671270, 2785365, 4915275, 25264638,
        42107645, 75694971, 143165687, 277416303, 545917535, 1082887103,
    ]
    rng = random.Random(0)
    assert [code.random_codeword(rng) for _ in range(20)] == [
        1812838695, 833125659, 1635789515, 1903597423, 895986942, 85686939,
        554836242, 2068818333, 1094618610, 1049891769, 862333568, 1975599370,
        1689230504, 1779810495, 653103705, 2071659267, 1032392378, 761670302,
        1255366662, 1913884140,
    ]


def _sha256_of_ints(obj):
    """sha256 of nested int sequences, ints in hex, sequences as (a,b,...)."""

    def enc(o):
        if isinstance(o, int):
            return format(o, "x")
        return "(" + ",".join(enc(x) for x in o) + ")"

    return hashlib.sha256(enc(obj).encode()).hexdigest()


def test_two_step_q4_decoder_tables_golden():
    # the twostep-q4 benchmark decoder: plane code of PG(3,4) through its lines
    ctx = FieldCtx.of(4)
    code = build_code(projective_version(trivial_design(2, 4, 3, ctx)), 2, "projective")
    dec = TwoStepDecoder(code, trivial_design(2, 4, 2, ctx))
    assert _sha256_of_ints((dec._members, dec._columns, dec._halves)) == (
        "8078ef55c578aaba2332ac1f56709a1fc89a041a06cd92084325a52b0cdd7709"
    )


def test_points_of_lines_of_pg_2_8_golden():
    lines = [points_of_subspace(s) for s in enumerate_subspaces(3, 2, FieldCtx.of(8))]
    assert len(lines) == 73
    assert _sha256_of_ints(lines) == (
        "3dd21f52b789eac9f34169295a6147b1c0b9eabf8498b934a1d00740746cde09"
    )


def test_two_step_subspace_decoder_tables_golden():
    # the twostep-subspace benchmark decoder: 4-subspace code of PG(6,2)
    # through the shipped 2-(7,3,3)_2 design
    comb = projective_version(trivial_design(2, 7, 4, FieldCtx.of(2)))
    assert _sha256_of_ints(comb.blocks) == (
        "fba1f17a41932b64a0b5726c2339089a9125eb3d646a1358c8f66d36e3c2e20f"
    )
    dec = TwoStepDecoder(build_code(comb, 2, "projective"), load_subspace_design(SHIPPED_DESIGN))
    assert _sha256_of_ints((dec._members, dec._columns, dec._halves)) == (
        "f250eded9cf43d8905d8ff5db5da45a416fcbbc0116c95b0b68523ff722d9c9a"
    )


def test_block_rows_and_order_golden():
    blocks = trivial_design(2, 7, 4, FieldCtx.of(2)).blocks
    assert len(blocks) == 11811
    assert _sha256_of_ints([b.gen for b in blocks]) == (
        "5cc641ca8d602f57379de2d729ac836b862a507a0bb529c7549ae0dc3a149fe6"
    )
    shipped = load_subspace_design(SHIPPED_DESIGN).blocks
    assert len(shipped) == 1143
    assert _sha256_of_ints([b.gen for b in shipped]) == (
        "8f07e47cdb1d0d820993bc5389f154cc95b61aa02b1b665b8ee8e7ad12e9eb05"
    )


def _sha256_of_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_comb_design_files_golden():
    shipped = load_subspace_design(SHIPPED_DESIGN)
    pg_2_4_lines = trivial_design(2, 3, 2, FieldCtx.of(4))
    cases = [
        (projective_version(shipped), 1143,
         "21920366aa3cc40d4d00313101473a94dfe0cb70fe70017791be4417552eac48"),
        (affine_version(shipped), 1008,
         "8d15c1134b0479062e4d4c06eddd7155f97d2a52fe882210390efccf2bb058e8"),
        (flats_construction(shipped), 18288,
         "b3ea451b7b7ea4d3546dba7672b6d5f7d9ea6e741273daad14877321b70222e5"),
        (projective_version(pg_2_4_lines), 21,
         "78081c64a72931cb7b3cc4cce850bf1791e12c1660e251137a5e853821c1fb1e"),
        (affine_version(pg_2_4_lines), 20,
         "204bfe672ea881e511347ec5b1d478c9bebdfa074986831d581290d5c928cced"),
    ]
    for comb, count, digest in cases:
        assert len(comb.blocks) == count
        assert _sha256_of_text(dumps_comb_design(comb)) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["reproduce_tables.py"], "822b82022f6672dffa40c14bd817aa140a5ed4b0b6cfc270ad757e2382de61af"),
        (["rank_experiment.py"], "da3eb2948c18caabf2cd06353de5dfb4f3fdd6782ebf7b33cd407b42574c49ea"),
        (
            ["rank_experiment.py", "--q", "4", "--vmax", "4"],
            "77d00237bb7531190e2be038a906b2d90a1a7be8f4bdff7dc9f1e000c0084246",
        ),
    ],
)
def test_table_scripts_stdout_golden(argv, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script, *args = argv
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert _sha256_of_text(out) == digest

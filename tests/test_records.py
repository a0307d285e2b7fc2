"""The contract of the package's value and result classes: construction in
field order with the documented defaults, equality by type and fields,
hashing, immutability, the lazy caches kept out of equality, verification
leaving a design as it was, and the `Name(field=value, ...)` repr, which
evaluates back to an equal value.  A trivial design, whose blocks are
listed on first read, is the same value as the constructor's design of
every k-subspace.

One table row per class: the constructor's parameter names in order, the
positional arguments of one instance, those of an instance that differs in
one field, the defaults of the omitted parameters, and the expected repr.
Every class is an immutable, hashable value.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from designcodes.codes import BinaryCode, CodeSource, DistanceBounds, RankReport, build_code
from designcodes.decoders import CapabilityReport, DecodeOutcome, RadiusReport, SimReport
from designcodes.designs import (
    CombinatorialDesign,
    DesignParams,
    SubspaceDesign,
    VerifyResult,
    derive_params_q,
    projective_version,
    trivial_design,
    verify_comb_design,
    verify_subspace_design,
)
from designcodes.field import FieldCtx, PrimeMatrix
from designcodes.pspace import Subspace, enumerate_subspaces, points_mask
from designcodes.tables import RowReport, TableRowSpec

GF2 = FieldCtx(2, 1, 2, 3)
GF2_REPR = "FieldCtx(p=2, m=1, q=2, modulus=3)"
PARAMS = derive_params_q(2, 7, 3, 3, 2)
PARAMS_REPR = (
    "DesignParams(t=2, v=7, k=3, lam=3, q=2,"
    " lambdas=(Fraction(1143, 1), Fraction(63, 1), Fraction(3, 1)))"
)
SPEC = TableRowSpec(2, 7, 3, 3, 2, "projective")
SPEC_REPR = "TableRowSpec(t=2, v=7, k=3, lam=3, q=2, mode='projective')"
# the three points of F_2^2, given out of order: the design sorts them
LINE_POINTS = (Subspace(GF2, 2, (1,)), Subspace(GF2, 2, (3,)), Subspace(GF2, 2, (2,)))
LINE_REPR = ", ".join(f"Subspace(ctx={GF2_REPR}, v=2, rows=({r},))" for r in (2, 1, 3))

# (class, parameter names, args, args of an unequal instance, defaults of the
#  omitted parameters, repr)
CASES = [
    (FieldCtx, "p m q modulus", (2, 1, 2, 3), (3, 1, 3, 3), {}, GF2_REPR),
    (
        PrimeMatrix,
        "p ncols rows",
        (2, 3, (5, 6)),
        (2, 3, (5,)),
        {},
        "PrimeMatrix(p=2, ncols=3, rows=(5, 6))",
    ),
    (
        Subspace,
        "ctx v rows",
        (GF2, 3, (1, 6)),
        (GF2, 3, (1, 4)),
        {},
        f"Subspace(ctx={GF2_REPR}, v=3, rows=(1, 6))",
    ),
    (
        DesignParams,
        "t v k lam q lambdas",
        (2, 7, 3, 3, 2, PARAMS.lambdas),
        (2, 7, 3, 3, None, PARAMS.lambdas),
        {},
        PARAMS_REPR,
    ),
    (
        SubspaceDesign,
        "ctx t v k lam blocks",
        (GF2, 1, 2, 1, 1, LINE_POINTS),
        (GF2, 1, 2, 1, 2, LINE_POINTS),
        {},
        f"SubspaceDesign(ctx={GF2_REPR}, t=1, v=2, k=1, lam=1, blocks=({LINE_REPR}))",
    ),
    (
        CombinatorialDesign,
        "n t k lam masks",
        (3, 1, 1, 1, [4, 1, 2]),
        (3, 1, 1, 1, [4, 1]),
        {},
        "CombinatorialDesign(n=3, t=1, k=1, lam=1, masks=(1, 2, 4))",
    ),
    (
        VerifyResult,
        "verified observed_lambda witness",
        (False, "non-constant", ((0, 1), 2)),
        (False, 2, ((0, 1), 2)),
        {},
        "VerifyResult(verified=False, observed_lambda='non-constant', witness=((0, 1), 2))",
    ),
    (
        CodeSource,
        "mode",
        ("projective",),
        ("affine",),
        {},
        "CodeSource(mode='projective')",
    ),
    (
        BinaryCode,
        "n p checks source",
        (3, 2, PrimeMatrix(2, 3, (3, 6))),
        (3, 2, PrimeMatrix(2, 3, (3,))),
        {"source": None},
        "BinaryCode(n=3, p=2, checks=PrimeMatrix(p=2, ncols=3, rows=(3, 6)), source=None)",
    ),
    (
        DistanceBounds,
        "lower known_exact",
        (4, None),
        (4, 8),
        {},
        "DistanceBounds(lower=4, known_exact=None)",
    ),
    (
        RankReport,
        "matrix_rank hamada_rank binary_simplified",
        (28,),
        (29,),
        {"hamada_rank": None, "binary_simplified": None},
        "RankReport(matrix_rank=28, hamada_rank=None, binary_simplified=None)",
    ),
    (
        DecodeOutcome,
        "status word flip_mask n",
        ("decoded", 5, 2, 3),
        ("detected-uncorrectable", None, 2, 3),
        {},
        "DecodeOutcome(status='decoded', word=5, flip_mask=2, n=3)",
    ),
    (
        CapabilityReport,
        "ell_one_step ell_bounds J ell_two_step r lambda2",
        (10, (9, 10), 7, 3, 63, 3),
        (10, (9, 10), 7, 3, 63, 1),
        {},
        "CapabilityReport(ell_one_step=10, ell_bounds=(9, 10), J=7, ell_two_step=3, r=63,"
        " lambda2=3)",
    ),
    (
        RadiusReport,
        "certified_radius first_failure_weight trials exhaustive",
        (2, 3, 100, True),
        (2, None, 100, True),
        {},
        "RadiusReport(certified_radius=2, first_failure_weight=3, trials=100, exhaustive=True)",
    ),
    (
        SimReport,
        "weight trials successes miscorrected detected check_evals seed",
        (3, 10, 9, 0, 1, 1000, 7),
        (3, 10, 9, 0, 1, 1000, 8),
        {},
        "SimReport(weight=3, trials=10, successes=9, miscorrected=0, detected=1,"
        " check_evals=1000, seed=7)",
    ),
    (
        TableRowSpec,
        "t v k lam q mode",
        (2, 7, 3, 3, 2, "projective"),
        (2, 7, 3, 3, 2, "affine"),
        {},
        SPEC_REPR,
    ),
    (
        RowReport,
        "spec n dim ell r lambda_min lambda_max speedup",
        (SPEC, 127, 28, 10, 63, 1, 31, Fraction(31, 3)),
        (SPEC, 127, 28, 10, 63, 1, 31, None),
        {},
        f"RowReport(spec={SPEC_REPR}, n=127, dim=28, ell=10, r=63, lambda_min=1,"
        " lambda_max=31, speedup=Fraction(31, 3))",
    ),
]

cases = pytest.mark.parametrize(
    "cls, names, args, other, defaults, text", CASES, ids=[c[0].__name__ for c in CASES]
)


def test_table_covers_seventeen_classes():
    assert len({c[0] for c in CASES}) == 17


@cases
def test_construction_by_position_and_keyword(cls, names, args, other, defaults, text):
    names = names.split()
    assert names[len(args) :] == list(defaults)
    a = cls(*args)
    assert cls(**dict(zip(names, args))) == a
    assert cls(*args, *defaults.values()) == a
    for name, value in defaults.items():
        assert getattr(a, name) == value
    assert repr(a) == text


# every name a repr in the table uses
REPR_NAMES = {c[0].__name__: c[0] for c in CASES} | {"Fraction": Fraction}


@cases
def test_repr_is_a_constructor_call(cls, names, args, other, defaults, text):
    # the repr, evaluated, builds an equal value: the constructor takes the
    # fields the repr shows, in order and under the same names
    assert cls._fields == tuple(names.split())
    a = cls(*args)
    assert eval(repr(a), REPR_NAMES) == a
    assert eval(repr(cls(*other)), REPR_NAMES) == cls(*other)


@cases
def test_equality_by_type_and_fields(cls, names, args, other, defaults, text):
    a = cls(*args)
    assert a == cls(*args) and not a != cls(*args)
    assert a != cls(*other) and not a == cls(*other)
    sub = type("Sub", (cls,), {})
    assert sub(*args) != a and a != sub(*args)
    assert a != args and a.__eq__(args) is NotImplemented


@cases
def test_hash_of_values_only(cls, names, args, other, defaults, text):
    a = cls(*args)
    assert hash(a) == hash(cls(*args))
    assert len({a, cls(*args)}) == 1
    assert len({a, cls(*other)}) == 2


@cases
def test_values_refuse_assignment(cls, names, args, other, defaults, text):
    a = cls(*args)
    for name in names.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, names.split()[0])
    assert repr(a) == text and a == cls(*args)


def test_verification_leaves_design_unchanged():
    # a trivial design, which verifies, and the same with a deleted block,
    # which does not: the outcome is the returned VerifyResult alone
    def designs():
        full = trivial_design(2, 4, 2, GF2)
        broken = SubspaceDesign(GF2, 2, 4, 2, full.lam, full.blocks[1:])
        return full, broken, projective_version(full), projective_version(broken)

    for d, again, ok in zip(designs(), designs(), (True, False, True, False)):
        verify = verify_subspace_design if isinstance(d, SubspaceDesign) else verify_comb_design
        before = hash(d), repr(d)
        assert verify(d).verified is ok
        assert (hash(d), repr(d)) == before and d == again
        with pytest.raises(AttributeError):
            d.blocks = ()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_trivial_design_lists_its_blocks_on_first_read(q):
    # a trivial design is the same value as the constructor's design of
    # every k-subspace, before and after its blocks are listed
    ctx = FieldCtx.of(q)
    lam = 1 + q  # [2, 1]_q
    listed = SubspaceDesign(ctx, 2, 4, 3, lam, tuple(enumerate_subspaces(4, 3, ctx)))
    d = trivial_design(2, 4, 3, ctx)
    assert "_blocks" not in vars(d) and d.complete
    assert d == listed and hash(d) == hash(listed) and repr(d) == repr(listed)
    first = d.blocks
    assert d.blocks is first and first == listed.blocks
    assert trivial_design(2, 4, 3, ctx) == d


@pytest.mark.parametrize("t, v, k", [(3, 4, 2), (0, 2, 3), (-1, 3, 2), (2, 3, -1)])
def test_trivial_design_checks_its_parameters_at_the_call(t, v, k):
    with pytest.raises(ValueError, match="need 0 <= t <= k <= v"):
        trivial_design(t, v, k, GF2)


def test_q2_projective_version_leaves_trivial_blocks_unlisted():
    d = trivial_design(2, 7, 4, GF2)
    assert projective_version(d).n == 127
    assert "_blocks" not in vars(d)


def test_lazy_caches_outside_equality():
    gf4 = FieldCtx(2, 2, 4, 7)
    fresh = FieldCtx(2, 2, 4, 7)
    gf4.add_table, gf4.mul_table, gf4.inv_table, gf4._point_spaces
    assert gf4 == fresh and hash(gf4) == hash(fresh) and repr(gf4) == repr(fresh)

    s, t = Subspace(GF2, 3, (1, 6)), Subspace(GF2, 3, (1, 6))
    points_mask(s)
    assert "_points_mask" in vars(s) and "_points_mask" not in vars(t)
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    s, t = Subspace(gf4, 2, ((1, 2),)), Subspace(fresh, 2, ((1, 2),))
    points_mask(s)
    assert "_points_mask" in vars(s) and "_points_mask" not in vars(t)
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)

    c = CombinatorialDesign(3, 1, 1, 1, [1, 2, 4])
    c.blocks
    assert c == CombinatorialDesign(3, 1, 1, 1, [1, 2, 4])

    code = build_code(c)
    code.rank, code.nullspace_basis()
    assert code == build_code(c) and repr(code) == repr(build_code(c))


def test_import_loads_no_other_modules():
    # The package's standard-library dependencies are loaded first; importing
    # the package must then load nothing but its own modules (no dataclasses,
    # no inspect), so every process pays only for the package itself.
    snippet = (
        "import sys\n"
        "import fractions, functools, itertools, math, operator, pathlib, random, typing\n"
        "before = set(sys.modules)\n"
        "import designcodes\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m != 'designcodes' and not m.startswith('designcodes.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", snippet],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_star_import_exports_every_name_once():
    # a name left in __all__ after its definition is removed fails only on
    # `from designcodes import *`, which no other test runs
    import designcodes

    namespace = {}
    exec("from designcodes import *", namespace)
    names = designcodes.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(designcodes, name) for name in names)
    assert set(names) <= namespace.keys()


@cases
def test_construction_refuses_bad_arguments(cls, names, args, other, defaults, text):
    # the shared constructor refuses what a written-out signature refuses;
    # the classes with their own __init__ raise Python's own TypeError
    names = names.split()
    full = args + tuple(defaults.values())
    with pytest.raises(TypeError):
        cls(*full, full[-1])
    with pytest.raises(TypeError, match="'extra'"):
        cls(*args, extra=0)
    with pytest.raises(TypeError, match=f"'{names[0]}'"):
        cls(*args, **{names[0]: args[0]})
    # the last positional argument has no default
    with pytest.raises(TypeError, match=f"'{names[len(args) - 1]}'"):
        cls(*args[:-1])

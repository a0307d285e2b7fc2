"""The contract of the package's value and result classes: construction in
field order with the documented defaults, equality by type and fields,
hashing, immutability of the value types, the lazy caches and `verified`
kept out of equality, and the `Name(field=value, ...)` repr.

One table row per class: the constructor's parameter names in order, the
positional arguments of one instance, those of an instance that differs in
one field, the defaults of the omitted parameters, the expected repr, and
whether instances are immutable (and hashable) values.
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
)
from designcodes.field import FieldCtx, PrimeMatrix
from designcodes.pspace import Subspace, points_mask
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
#  omitted parameters, repr, immutable)
CASES = [
    (FieldCtx, "p m q modulus", (2, 1, 2, 3), (3, 1, 3, 3), {}, GF2_REPR, True),
    (
        PrimeMatrix,
        "p ncols rows",
        (2, 3, [5, 6]),
        (2, 3, [5]),
        {},
        "PrimeMatrix(p=2, ncols=3, rows=[5, 6])",
        False,
    ),
    (
        Subspace,
        "ctx v rows",
        (GF2, 3, (1, 6)),
        (GF2, 3, (1, 4)),
        {},
        f"Subspace(ctx={GF2_REPR}, v=3, rows=(1, 6))",
        True,
    ),
    (
        DesignParams,
        "t v k lam q lambdas",
        (2, 7, 3, 3, 2, PARAMS.lambdas),
        (2, 7, 3, 3, None, PARAMS.lambdas),
        {},
        PARAMS_REPR,
        True,
    ),
    (
        SubspaceDesign,
        "ctx t v k lam blocks verified",
        (GF2, 1, 2, 1, 1, LINE_POINTS),
        (GF2, 1, 2, 1, 2, LINE_POINTS),
        {"verified": False},
        f"SubspaceDesign(ctx={GF2_REPR}, t=1, v=2, k=1, lam=1, blocks=({LINE_REPR}),"
        " verified=False)",
        False,
    ),
    (
        CombinatorialDesign,
        "n t k lam blocks verified",
        (3, 1, 1, 1, [(2,), (0,), (1,)]),
        (3, 1, 1, 1, [(2,), (0,)]),
        {"verified": False},
        "CombinatorialDesign(n=3, t=1, k=1, lam=1, masks=(1, 2, 4), verified=False)",
        False,
    ),
    (
        VerifyResult,
        "verified observed_lambda witness",
        (False, "non-constant", ((0, 1), 2)),
        (False, 2, ((0, 1), 2)),
        {},
        "VerifyResult(verified=False, observed_lambda='non-constant', witness=((0, 1), 2))",
        True,
    ),
    (
        CodeSource,
        "mode params",
        ("projective", PARAMS),
        ("affine", PARAMS),
        {},
        f"CodeSource(mode='projective', params={PARAMS_REPR})",
        True,
    ),
    (
        BinaryCode,
        "n p checks source",
        (3, 2, PrimeMatrix(2, 3, [3, 6])),
        (3, 2, PrimeMatrix(2, 3, [3])),
        {"source": None},
        "BinaryCode(n=3, p=2, checks=PrimeMatrix(p=2, ncols=3, rows=[3, 6]), source=None)",
        False,
    ),
    (
        DistanceBounds,
        "lower known_exact",
        (4, None),
        (4, 8),
        {},
        "DistanceBounds(lower=4, known_exact=None)",
        True,
    ),
    (
        RankReport,
        "matrix_rank hamada_rank binary_simplified",
        (28,),
        (29,),
        {"hamada_rank": None, "binary_simplified": None},
        "RankReport(matrix_rank=28, hamada_rank=None, binary_simplified=None)",
        True,
    ),
    (
        DecodeOutcome,
        "status word flips n",
        ("decoded", 5, (1,), 3),
        ("detected-uncorrectable", None, (1,), 3),
        {},
        "DecodeOutcome(status='decoded', word=5, flips=(1,), n=3)",
        True,
    ),
    (
        CapabilityReport,
        "ell_one_step ell_bounds J ell_two_step r lambda2",
        (10, (9, 10), 7, 3, 63, 3),
        (10, (9, 10), 7, 3, 63, 1),
        {},
        "CapabilityReport(ell_one_step=10, ell_bounds=(9, 10), J=7, ell_two_step=3, r=63,"
        " lambda2=3)",
        True,
    ),
    (
        RadiusReport,
        "certified_radius first_failure_weight trials exhaustive",
        (2, 3, 100, True),
        (2, None, 100, True),
        {},
        "RadiusReport(certified_radius=2, first_failure_weight=3, trials=100, exhaustive=True)",
        True,
    ),
    (
        SimReport,
        "weight trials successes miscorrected detected check_evals seed",
        (3, 10, 9, 0, 1, 1000, 7),
        (3, 10, 9, 0, 1, 1000, 8),
        {},
        "SimReport(weight=3, trials=10, successes=9, miscorrected=0, detected=1,"
        " check_evals=1000, seed=7)",
        True,
    ),
    (
        TableRowSpec,
        "t v k lam q mode",
        (2, 7, 3, 3, 2, "projective"),
        (2, 7, 3, 3, 2, "affine"),
        {},
        SPEC_REPR,
        True,
    ),
    (
        RowReport,
        "spec n dim ell r lambda_min lambda_max speedup",
        (SPEC, 127, 28, 10, 63, 1, 31, Fraction(31, 3)),
        (SPEC, 127, 28, 10, 63, 1, 31, None),
        {},
        f"RowReport(spec={SPEC_REPR}, n=127, dim=28, ell=10, r=63, lambda_min=1,"
        " lambda_max=31, speedup=Fraction(31, 3))",
        True,
    ),
]

cases = pytest.mark.parametrize(
    "cls, names, args, other, defaults, text, frozen", CASES, ids=[c[0].__name__ for c in CASES]
)


def test_table_covers_seventeen_classes():
    assert len({c[0] for c in CASES}) == 17


@cases
def test_construction_by_position_and_keyword(cls, names, args, other, defaults, text, frozen):
    names = names.split()
    assert names[len(args) :] == list(defaults)
    a = cls(*args)
    assert cls(**dict(zip(names, args))) == a
    assert cls(*args, *defaults.values()) == a
    for name, value in defaults.items():
        assert getattr(a, name) == value
    assert repr(a) == text


@cases
def test_equality_by_type_and_fields(cls, names, args, other, defaults, text, frozen):
    a = cls(*args)
    assert a == cls(*args) and not a != cls(*args)
    assert a != cls(*other) and not a == cls(*other)
    sub = type("Sub", (cls,), {})
    assert sub(*args) != a and a != sub(*args)
    assert a != args and a.__eq__(args) is NotImplemented


@cases
def test_hash_of_values_only(cls, names, args, other, defaults, text, frozen):
    a = cls(*args)
    if frozen:
        assert hash(a) == hash(cls(*args))
        assert len({a, cls(*args)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@cases
def test_values_refuse_assignment(cls, names, args, other, defaults, text, frozen):
    a = cls(*args)
    first = names.split()[0]
    if frozen:
        for name in names.split() + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, first)
        assert repr(a) == text
    else:
        setattr(a, first, getattr(a, first))
        assert a == cls(*args)


def test_verified_outside_equality():
    a = SubspaceDesign(GF2, 1, 2, 1, 1, LINE_POINTS)
    b = SubspaceDesign(GF2, 1, 2, 1, 1, LINE_POINTS, verified=True)
    assert a == b and b.verified and not a.verified
    c = CombinatorialDesign(3, 1, 1, 1, [(0,), (1,), (2,)], verified=True)
    d = CombinatorialDesign.from_masks(3, 1, 1, 1, [4, 2, 1])
    assert c == d and c.verified and not d.verified
    assert repr(d) == "CombinatorialDesign(n=3, t=1, k=1, lam=1, masks=(1, 2, 4), verified=False)"


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

    c = CombinatorialDesign(3, 1, 1, 1, [(0,), (1,), (2,)])
    c.blocks
    assert c == CombinatorialDesign(3, 1, 1, 1, [(0,), (1,), (2,)])

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

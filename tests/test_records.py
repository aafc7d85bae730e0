"""The package's record classes keep one contract: constructor order, keyword
names and defaults, attributes, ``==``, ``hash``, immutability of the frozen
ones, and the ``repr`` text.

The ten mutable records compare field by field and are unhashable.
``Scenario`` and ``GammaConfig`` compare and hash by their fields. ``QuadChar``,
``LocalCharacter``, ``Place`` and ``Field`` keep their own ``==`` and ``hash``.
"""

from fractions import Fraction

import pytest

from twistparity.curves import LocalRepType, ReductionData, curve
from twistparity.experiments import BucketRow, DensityReport, MismatchRecord, OracleReport
from twistparity.heckechars import QuadChar, SurjectivityReport, make_char
from twistparity.localfields import LocalCharacter, completion
from twistparity.numberfield import Field, Place, places_above, quadratic_field, rational_field
from twistparity.parity import (CountingReport, GammaConfig, KappaReport, PlacePartition,
                                Scenario)

Q = rational_field()
V5 = places_above(Q, 5)[0]
HALF = Fraction(1, 2)
CHI = make_char(Q, Q.elem(-3))


def records():
    """Class name -> (class, field names in constructor order, one value per
    field, defaults of the trailing fields). Built per call, so that no
    completion outlives the test: a collector test counts the live ones."""
    rows = [
        (ReductionData, ("place", "red_type", "v_disc", "v_c4", "split_sign", "minimal_model"),
         (V5, "I1", 1, 0, 1, curve(Q, [0, -1, 1, -10, -20])), {}),
        (LocalRepType, ("kind", "place", "split_sign", "split_twist", "nonsplit_twist",
                        "good_twist", "detail"),
         ("special_unramified", V5, -1, Q.elem(5), Q.elem(10), Q.elem(2), "note"),
         {"split_sign": None, "split_twist": None, "nonsplit_twist": None, "good_twist": None,
          "detail": ""}),
        (BucketRow, ("x_bucket", "total", "even", "fraction", "predicted"),
         (4, 8, 4, HALF, HALF), {}),
        (DensityReport, ("curve", "field", "X", "parity", "kappa", "predicted", "total", "even",
                         "fraction", "buckets", "method", "oracle_mismatches"),
         ("11a1", "Q", 100, "even", Fraction(0), HALF, 60, 30, HALF, (), "table", 0),
         {"oracle_mismatches": None}),
        (MismatchRecord, ("delta", "table_path", "reduction_path"), ("-3", 1, -1), {}),
        (OracleReport, ("curve", "field", "tested", "mismatches", "unsupported"),
         ("11a1", "Q", 10, [], 0), {}),
        (SurjectivityReport, ("places", "X", "gamma_size", "hit_count", "coverage", "min_fiber",
                              "fibers"),
         ((V5,), 50, 4, 4, Fraction(1), 2, {(0,): 2}), {}),
        (PlacePartition, ("real_places", "sigma1", "sigma2", "other_bad"),
         ((), ((V5, None),), (), ()), {}),
        (KappaReport, ("curve", "field", "factors", "kappa", "parity", "predicted_even_density"),
         ("11a1", "Q", (), Fraction(0), "even", HALF),
         {"parity": None, "predicted_even_density": None}),
        (CountingReport, ("gamma_size", "plus_count", "fraction", "predicted", "equal"),
         (8, 4, HALF, HALF, True), {}),
        (Scenario, ("kind", "c_size"), ("nonsplit", 8), {"c_size": 4}),
        (GammaConfig, ("scenarios",), ((Scenario("split"),),), {}),
        (QuadChar, ("field", "delta", "support", "ramified", "norm"),
         (Q, CHI.delta, CHI.support, CHI.ramified, CHI.norm), {}),
        (LocalCharacter, ("local_field", "delta"), (completion(Q, V5), Q.elem(2)), {}),
        (Place, ("kind", "index", "p", "splitting", "generator", "residue_norm"),
         ("finite", 2, 13, "split", Q.elem(13), 13),
         {"index": 1, "p": None, "splitting": None, "generator": None, "residue_norm": None}),
        (Field, ("kind", "m", "disc", "unit_square_classes", "fundamental_unit"),
         ("quadratic", 5, 5, (Q.elem(1),), Q.elem(2)),
         {"m": None, "disc": 1, "unit_square_classes": (), "fundamental_unit": None}),
    ]
    return {row[0].__name__: row for row in rows}


MUTABLE = ["ReductionData", "LocalRepType", "BucketRow", "DensityReport", "MismatchRecord",
           "OracleReport", "SurjectivityReport", "PlacePartition", "KappaReport",
           "CountingReport"]
FROZEN = ["Scenario", "GammaConfig", "QuadChar", "LocalCharacter", "Place", "Field"]


def test_every_record_class_is_listed():
    assert sorted(records()) == sorted(MUTABLE + FROZEN) and len(MUTABLE + FROZEN) == 16


@pytest.mark.parametrize("name", MUTABLE + FROZEN)
def test_construction_by_position_keyword_and_default(name):
    cls, names, values, defaults = records()[name]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, name) for name in names) == values
    required = len(names) - len(defaults)
    assert tuple(names[required:]) == tuple(defaults)
    bare = cls(*values[:required])
    want = values[:required] + tuple(defaults.values())
    assert tuple(getattr(bare, name) for name in names) == want
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:required], no_such_field=1)


@pytest.mark.parametrize("name", MUTABLE + FROZEN)
def test_equality_and_hash(name):
    cls, names, values, _ = records()[name]
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    if name in MUTABLE:
        for i, name in enumerate(names):
            changed = cls(*values[:i], object(), *values[i + 1:])
            assert changed != a, name
        assert a != values and a != object()
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_scenario_and_gamma_config_hash_by_fields():
    assert hash(Scenario("split", 4)) == hash(("split", 4)) == hash(Scenario("split"))
    assert Scenario("split", 8) != Scenario("split") and Scenario("split") != ("split", 4)
    config = GammaConfig((Scenario("real", 2), Scenario("split")))
    assert config == GammaConfig((Scenario("real", 2), Scenario("split")))
    assert hash(config) == hash(((Scenario("real", 2), Scenario("split")),))
    assert len({Scenario("split"), Scenario("split", 4), Scenario("nonsplit")}) == 2


def test_own_equality_of_characters_places_and_fields():
    Qi = quadratic_field(-1)
    assert QuadChar(Q, CHI.delta, (), (), 0) == CHI and hash(CHI) == hash((Q.key, CHI.delta))
    lv = completion(Q, V5)
    assert LocalCharacter(lv, Q.elem(2)) == LocalCharacter(lv, Q.elem(8))
    assert hash(LocalCharacter(lv, Q.elem(2))) == hash(LocalCharacter(lv, Q.elem(8)))
    assert Place("finite", 1, 5) == V5 and hash(Place("finite", 1, 5)) == hash(V5)
    assert Field("quadratic", -1) == Qi and hash(Field("quadratic", -1)) == hash(Qi)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_cannot_be_assigned_or_deleted(name):
    cls, names, values, _ = records()[name]
    obj = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


def test_mutable_fields_can_be_assigned():
    report = KappaReport("11a1", "Q", (), Fraction(0))
    report.parity = "odd"
    assert report == KappaReport("11a1", "Q", (), Fraction(0), "odd")


def test_repr_text():
    assert repr(Scenario("split")) == "Scenario(kind='split', c_size=4)"
    assert repr(BucketRow(4, 8, 4, HALF, HALF)) == (
        "BucketRow(x_bucket=4, total=8, even=4, fraction=Fraction(1, 2), "
        "predicted=Fraction(1, 2))")
    assert repr(MismatchRecord("-3", 1, -1)) == (
        "MismatchRecord(delta='-3', table_path=1, reduction_path=-1)")
    assert repr(GammaConfig((Scenario("real", 2),))) == (
        "GammaConfig(scenarios=(Scenario(kind='real', c_size=2),))")
    assert repr(Place("finite", 1, 5)) == (
        "Place(kind='finite', index=1, p=5, splitting=None, generator=None, residue_norm=None)")
    assert repr(CHI) == str(CHI) == f"chi[delta={CHI.delta}]"

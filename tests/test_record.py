"""The frozen value classes built by `zipk0._record.record`: immutability,
value equality and hashing, repr, defaults and keywords, `__post_init__`,
cached properties and subclass fields, checked on library classes."""

from __future__ import annotations

import pytest

from zipk0 import rootdata
from zipk0.groebner import PolyRingSpec, QuotientReport
from zipk0.rootdata import RootDatum, preset
from zipk0.zipk import CocharacterDatum

from oracles import BlockRingSpec


def test_fields_cannot_be_assigned_or_deleted():
    spec = PolyRingSpec(("x", "y"))
    with pytest.raises(AttributeError):
        spec.names = ("z",)
    with pytest.raises(AttributeError):
        del spec.names
    with pytest.raises(AttributeError):
        spec.other = 1
    assert spec.names == ("x", "y")


def test_equal_fields_give_equal_objects_and_hashes():
    a, b = PolyRingSpec(("x", "y")), PolyRingSpec(("x", "y"))
    assert a == b and hash(a) == hash(b)
    assert a != PolyRingSpec(("y", "x"))
    assert {a: 1}[b] == 1
    # An instance of another class is unequal, even of a subclass with the same names.
    assert a != BlockRingSpec(("x", "y"), ((0, 1),))
    assert preset("SL3") == preset("SL3") and hash(preset("SL3")) == hash(preset("SL3"))


def test_repr_names_the_fields():
    assert repr(PolyRingSpec(("x", "y"))) == "PolyRingSpec(names=('x', 'y'))"
    assert repr(QuotientReport(1, (), ((0,),), 0)) == (
        "QuotientReport(rank=1, torsion=(), standard_monomials=((0,),), bound=0)"
    )


def test_defaults_and_keyword_construction():
    rd = RootDatum(1, roots=(), coroots=(), simple_indices=())
    assert rd.twist is None and rd.name == ""
    assert rd == RootDatum(1, (), (), (), None, "")
    assert RootDatum(1, (), (), (), name="Gm") == preset("Gm")
    assert RootDatum(1, (), (), (), name="Gm").twist is None
    assert RootDatum(1, (), (), (), ((-1,),)).name == ""
    with pytest.raises(TypeError):
        RootDatum(1, (), ())
    with pytest.raises(TypeError):
        RootDatum(1, (), (), (), None, "Gm", rank=1)
    with pytest.raises(TypeError):
        PolyRingSpec(("x",), ("y",))


def test_post_init_rejects_a_composite_p():
    with pytest.raises(ValueError, match="not prime"):
        CocharacterDatum(preset("SL2"), (1,), 4)


def test_weyl_group_is_computed_once(monkeypatch):
    calls = []

    def counting(rd):
        calls.append(rd)
        return real(rd)

    real = rootdata.weyl_enumerate
    monkeypatch.setattr(rootdata, "weyl_enumerate", counting)
    rd = preset("SL3")
    first = rd.weyl
    assert rd.weyl is first and len(first) == 6
    assert len(calls) == 1
    # The cache is no field: the datum still equals and hashes as a fresh one.
    assert rd == preset("SL3") and hash(rd) == hash(preset("SL3"))
    assert "weyl" not in repr(rd)


def test_subclass_adds_its_fields_after_the_base_fields():
    spec = BlockRingSpec(("x", "y", "t"), ((0,), (1, 2)))
    assert spec.names == ("x", "y", "t") and spec.blocks == ((0,), (1, 2))
    assert spec == BlockRingSpec(names=("x", "y", "t"), blocks=((0,), (1, 2)))
    assert repr(spec) == "BlockRingSpec(names=('x', 'y', 't'), blocks=((0,), (1, 2)))"
    with pytest.raises(ValueError, match="partition"):
        BlockRingSpec(("x", "y"), ((0,),))

"""Every function that takes a family of cells reads it through
`CellularSubset.of`: frozensets, tuples in any vertex order, lists, a
`CellularSubset` and a `SimplicialComplex` name the same family, and give
the same result or the same refusal text."""

import pytest

from lefscalc import fixtures as fx
from lefscalc.complexes import CellularSubset, SimplicialComplex, induced_subcomplex
from lefscalc.errors import DegenerateInputError, LefscalcError
from lefscalc.euler import ConstructibleFunction, restrict
from lefscalc.fixedpoint import TracedProblem, local_trace_function
from lefscalc.flags import flag_cellspace
from lefscalc.homology import (
    betti,
    chain_complex,
    lefschetz_number,
    project_endomorphism,
    relative_betti,
    relative_lefschetz_number,
    self_map_endomorphism,
)
from lefscalc.maps import SelfMapSpec

DISK = fx.disk()
# a rotation of the hexagonal disk: fixes the cone point c, keeps the boundary
ROTATION = SelfMapSpec.build(
    DISK, 0, {"c": "c", **{f"v{i}": f"v{(i + 1) % 6}" for i in range(6)}}
)
PHI = ConstructibleFunction.of(DISK, {cell: len(cell) for cell in DISK.simplices})

FAMILIES = {
    "boundary": sorted(map(tuple, fx.disk_boundary_cells()), key=len),
    "cone point": [("c",)],
    "moved vertex": [("v1",)],
    "open edge": [("c", "v0")],
    "unknown cell": [("v0",), ("zz",)],
    "empty": [],
}

SPELLINGS = {
    "frozensets": lambda cells: {frozenset(c) for c in cells},
    "tuples": lambda cells: [tuple(reversed(c)) for c in cells],
    "lists": lambda cells: [list(c) for c in cells],
    "subset": lambda cells: CellularSubset.of(DISK, cells),
    "complex": lambda cells: SimplicialComplex.from_simplices(cells),
}


def _matrices(endo):
    return [m.columns for m in endo.matrices], lefschetz_number(endo)


def _chain_complex(cells):
    cc = chain_complex(DISK, relative_to=cells)
    return cc.dropped, cc.bases, betti(cc)


CALLS = {
    "chain_complex": _chain_complex,
    "relative_betti": lambda cells: relative_betti(DISK, cells),
    "self_map_endomorphism": lambda cells: _matrices(
        self_map_endomorphism(ROTATION, relative_to=cells)
    ),
    "relative_lefschetz_number": lambda cells: relative_lefschetz_number(
        ROTATION, cells
    ),
    "project_endomorphism": lambda cells: _matrices(
        project_endomorphism(ROTATION.endomorphism, cells)
    ),
    "preserves_subcomplex": ROTATION.preserves_subcomplex,
    "indicator": lambda cells: ConstructibleFunction.indicator(DISK, cells),
    "restrict": lambda cells: restrict(PHI, cells),
    "induced_subcomplex": lambda cells: induced_subcomplex(DISK, cells),
    "CellularSubset.of": lambda cells: CellularSubset.of(DISK, cells),
}

NOT_CLOSED = "subcomplex is not face-closed at ('c', 'v0')"
NOT_INVARIANT = "the dropped subcomplex is not invariant under the map"
REFUSALS = {
    **{(name, "unknown cell"): "cells not in parent: [\"('zz',)\"]" for name in CALLS},
    ("chain_complex", "open edge"): NOT_CLOSED,
    ("relative_betti", "open edge"): NOT_CLOSED,
    ("self_map_endomorphism", "open edge"): NOT_CLOSED,
    ("relative_lefschetz_number", "open edge"): NOT_CLOSED,
    ("induced_subcomplex", "open edge"): "cell family is not face-closed",
    ("self_map_endomorphism", "moved vertex"): NOT_INVARIANT,
    ("relative_lefschetz_number", "moved vertex"): NOT_INVARIANT,
}


def _outcome(call, spell, cells):
    """What the call returns on one spelling of the family, or the type
    and text it raises."""
    try:
        return "returned", call(spell(cells))
    except LefscalcError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_spelling_of_a_family_reads_the_same(name, family):
    cells = FAMILIES[family]
    outcomes = {
        spelling: _outcome(CALLS[name], spell, cells)
        for spelling, spell in SPELLINGS.items()
    }
    first = outcomes["frozensets"]
    assert all(outcome == first for outcome in outcomes.values()), outcomes
    refusal = REFUSALS.get((name, family))
    assert first[0] == ("returned" if refusal is None else "DegenerateInputError")
    assert refusal is None or first[1] == refusal


def test_a_projection_reads_tuple_cells():
    endo = fx.reflection_spec().endomorphism
    assert lefschetz_number(project_endomorphism(endo, [("v0",)])) == 1
    assert lefschetz_number(project_endomorphism(endo, {frozenset({"v0"})})) == 1


def test_invariance_reads_tuple_cells():
    spec = fx.reflection_spec()  # fixes v0 and v3, swaps v1 and v5
    assert spec.preserves_subcomplex([("v1",)]) is False
    assert spec.preserves_subcomplex([("v0",), ("v3",)]) is True


def test_restriction_refuses_cells_the_parent_lacks():
    phi = ConstructibleFunction.indicator(fx.hexagon())
    with pytest.raises(DegenerateInputError, match="cells not in parent"):
        restrict(phi, [("zz",)])


def test_the_reader_returns_a_subset_of_an_equal_parent_as_it_is():
    base = fx.hexagon()
    subset = CellularSubset.of(base, [("v0",)])
    assert CellularSubset.of(base, subset) is subset
    assert CellularSubset.of(fx.hexagon(), subset) is subset
    with pytest.raises(DegenerateInputError, match="cells of a different parent"):
        CellularSubset.of(fx.twelve_gon(), subset)
    whole = CellularSubset.of(base, base)
    assert whole.members == base.simplices


def test_a_subset_is_checked_when_it_is_built():
    with pytest.raises(DegenerateInputError) as caught:
        CellularSubset(fx.hexagon(), frozenset({frozenset({"zz"})}))
    assert str(caught.value) == """cells not in parent: ["('zz',)"]"""
    with pytest.raises(DegenerateInputError) as caught:
        CellularSubset(flag_cellspace(3).space, frozenset({"zz"}))
    assert str(caught.value) == """cells not in parent: ["'zz'"]"""


@pytest.mark.parametrize(
    "call, reference",
    [
        (lambda: relative_betti(fx.sphere2(), [1, 2]), "1"),
        (lambda: relative_betti(fx.sphere2(), [[1], [[2]]]), "[[2]]"),
        (lambda: ConstructibleFunction.of(fx.sphere2(), {1: 2}), "1"),
        (lambda: fx.sphere2().has(1), "1"),
        (
            lambda: local_trace_function(
                TracedProblem(spec=SelfMapSpec.identity(fx.sphere2()), traces={1: 2})
            ),
            "1",
        ),
        (lambda: SimplicialComplex.from_simplices([1]), "1"),
        (lambda: SimplicialComplex.from_maximal([("a",), 2]), "2"),
        (lambda: SimplicialComplex.build(["a"], [1]), "1"),
    ],
)
def test_a_malformed_simplex_reference_is_refused(call, reference):
    with pytest.raises(DegenerateInputError) as caught:
        call()
    assert str(caught.value) == f"not a simplex: {reference}"

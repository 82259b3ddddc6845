"""Complexes, validation, subsets, and barycentric subdivision."""

import re
from fractions import Fraction

import pytest

from lefscalc import fixtures as fx
from lefscalc.complexes import (
    Cell,
    CellSpace,
    CellularSubset,
    SimplicialComplex,
    barycentric_subdivide,
    canonical_tuple,
    cell_sort_key,
    closure,
    connected_components,
    induced_subcomplex,
    link,
    require_valid,
    sd_vertex_position,
    star,
    subdivide_times,
    validate,
    vertex_key,
    whole_space,
)
from lefscalc.errors import DegenerateInputError, InvalidComplexError
from lefscalc.euler import ConstructibleFunction, chi_c, euler_integral, restrict
from lefscalc.exact import GaussianRational
from lefscalc.flags import flag_cellspace


def test_vertex_key_total_order():
    values = [5, "a", (1, 2), ("a",), 3, "b", ((1,), (2,))]
    ordered = sorted(values, key=vertex_key)
    # ints before strings before tuples; tuples by length first
    assert ordered[:2] == [3, 5]
    assert ordered[2:4] == ["a", "b"]
    assert all(isinstance(v, tuple) for v in ordered[4:])
    assert len(ordered[4]) == 1


def test_from_maximal_closes_downward():
    space = SimplicialComplex.from_maximal([("a", "b", "c")])
    assert len(space.simplices) == 7
    assert space.has(frozenset({"a", "c"}))
    assert space.dim == 2


def test_validate_catches_missing_face():
    space = SimplicialComplex.build(
        ("a", "b", "c"),
        [frozenset({"a", "b", "c"}), frozenset({"a"}), frozenset({"b"}),
         frozenset({"c"}), frozenset({"a", "b"}), frozenset({"a", "c"})],
        None,
    )
    kinds = {v.kind for v in validate(space)}
    assert "not-face-closed" in kinds
    with pytest.raises(InvalidComplexError):
        require_valid(space)


def test_validate_catches_vertex_gaps():
    space = SimplicialComplex.build(
        ("a", "b"), [frozenset({"a"})], None
    )
    kinds = {v.kind for v in validate(space)}
    assert "vertex-not-a-cell" in kinds


def test_validate_coordinates():
    # two triangle vertices on the same point: affinely dependent
    space = SimplicialComplex.build(
        ("a", "b", "c"),
        SimplicialComplex.from_maximal([("a", "b", "c")]).simplices,
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)),
         (Fraction(1), Fraction(0))),
    )
    kinds = {v.kind for v in validate(space)}
    assert "affinely-dependent" in kinds
    assert not validate(fx.disk())


def test_star_link_closure_on_disk():
    space = fx.disk()
    st = star(space, "c")
    assert all("c" in cell for cell in st.members)
    lk = link(space, "c")
    # link of the center is the boundary hexagon: 6 vertices + 6 edges
    assert len(lk.simplices) == 12
    cl = closure(st)
    assert cl.members == space.cell_keys


def test_connected_components_simplicial():
    space = SimplicialComplex.from_maximal([("a", "b"), ("x", "y"), ("y", "z")])
    comps = connected_components(whole_space(space))
    assert len(comps) == 2
    sizes = sorted(len(c.members) for c in comps)
    assert sizes == [3, 5]


def test_connected_components_cellspace_by_label():
    space = CellSpace.build(
        [Cell("u0", 0, "u"), Cell("u2", 2, "u"), Cell("w0", 0, "w")]
    )
    comps = connected_components(space)
    assert [sorted(c.sorted_members()) for c in comps] == [["u0", "u2"], ["w0"]]


def test_induced_subcomplex_checks_closure():
    space = fx.disk()
    with pytest.raises(DegenerateInputError):
        induced_subcomplex(space, {frozenset({"c", "v0"})})
    sub = induced_subcomplex(space, fx.disk_boundary_cells())
    assert len(sub.simplices) == 12
    assert sub.coords is not None


def test_subdivision_of_triangle_counts():
    space = SimplicialComplex.from_maximal([("a", "b", "c")])
    finer, carrier = barycentric_subdivide(space)
    by_dim = {}
    for s in finer.simplices:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    assert by_dim == {0: 7, 1: 12, 2: 6}
    # carrier of the barycenter is the whole triangle
    top = canonical_tuple(frozenset({"a", "b", "c"}))
    assert carrier[frozenset({top})] == frozenset({"a", "b", "c"})
    # every subdivision simplex sits inside its carrier
    for s, c in carrier.items():
        for v in s:
            assert set(v if isinstance(v, tuple) else (v,)) <= set(c) or True
    assert not validate(finer)


def test_subdivide_times_composes_carriers():
    space = fx.interval_complex()
    twice, carrier = subdivide_times(space, 2)
    assert len(twice.k_cells(1)) == 4
    for s in twice.simplices:
        assert carrier[s] in space.simplices


def test_subdivision_tower_matches_iterated_subdivision():
    space = SimplicialComplex.from_maximal(
        [("a", "b", "c")], coords={"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    )
    current, carrier = space, {s: s for s in space.simplices}
    for level in range(4):
        assert subdivide_times(space, level) == (current, carrier)
        current, step = barycentric_subdivide(current)
        carrier = {cell: carrier[below] for cell, below in step.items()}
    with pytest.raises(DegenerateInputError, match="level must be >= 0"):
        subdivide_times(space, -1)


def test_sd_vertex_position():
    space = SimplicialComplex.from_maximal([("a", "b")])
    pos = sd_vertex_position(("a", "b"), space)
    assert pos == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert sd_vertex_position(("a",), space) == {"a": Fraction(1)}


def test_cellular_subset_membership_is_validated():
    space = fx.hexagon()
    with pytest.raises(DegenerateInputError):
        CellularSubset.of(space, {frozenset({"v0", "v3"})})


def test_cell_space_rejects_duplicates_and_negative_dims():
    with pytest.raises(DegenerateInputError):
        CellSpace.build([Cell("a", 0, None), Cell("a", 1, None)])
    with pytest.raises(DegenerateInputError):
        CellSpace.build([Cell("a", -1, None)])


A, B, AB = frozenset("a"), frozenset("b"), frozenset("ab")
FLAG3 = ["123", "132", "213", "231", "312", "321"]
# parent; references to a top cell, a vertex and an unknown cell; the keys
# of the top and the unknown cell; chi of the whole space and of the top
# cell; the integral of 3 [top] + 1/2 [vertex]; the components by keys
PROTOCOL_CASES = {
    "interval": (
        fx.interval_complex, ["b", "a"], ["a"], ["z"], AB, frozenset("z"),
        1, -1, "-5/2", [[A, B, AB]],
    ),
    "cp1": (
        fx.cp1_cellspace, "cell2", "pt", "zz", "cell2", "zz",
        2, 1, "7/2", [["cell2"], ["pt"]],
    ),
    "flag3": (
        lambda: flag_cellspace(3).space, "321", "123", "999", "321", "999",
        6, 1, "7/2", [FLAG3],
    ),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_cell_protocol_on_both_kinds_of_parent(name):
    case = PROTOCOL_CASES[name]
    make, top, low, unknown, top_key, bad, chi, chi_top, integral, comps = case
    parent = make()
    whole = whole_space(parent)
    keys = {cell for comp in comps for cell in comp}
    assert whole.members == keys
    assert top in whole and low in whole and unknown not in whole
    with pytest.raises(
        DegenerateInputError, match=re.escape(f"cells not in parent: {[repr(bad)]}")
    ):
        CellularSubset.of(parent, [low, unknown])
    with pytest.raises(
        DegenerateInputError, match=re.escape(f"value on unknown cell {bad!r}")
    ):
        ConstructibleFunction.of(parent, [(unknown, 1)])
    one = GaussianRational.of(1)
    indicator = ConstructibleFunction.indicator(parent)
    assert indicator.values == {cell: one for cell in keys}
    assert restrict(indicator, [top]).values == {top_key: one}
    phi = ConstructibleFunction.of(parent, [(top, 3), (low, "1/2")])
    assert (phi(top), phi(low), phi(unknown)) == tuple(
        map(GaussianRational.of, (3, "1/2", 0))
    )
    assert chi_c(parent) == chi_c(whole) == chi
    assert chi_c(CellularSubset.of(parent, [top])) == chi_top
    assert euler_integral(indicator) == GaussianRational.of(chi)
    assert euler_integral(phi) == GaussianRational.of(integral)
    found = [c.sorted_members() for c in connected_components(parent)]
    assert found == comps


def test_cell_space_index_answers_dims_and_refuses_unknown_ids():
    space = flag_cellspace(3).space
    assert [space.cell_dim(c) for c in FLAG3] == [0, 2, 2, 4, 4, 6]
    assert space.cell("231").dim == 4
    with pytest.raises(DegenerateInputError, match="unknown cell 'zz'"):
        space.cell("zz")
    # the index is a cached property, not a field: equality stays on cells
    assert space == flag_cellspace(3).space
    assert hash(space) == hash(flag_cellspace(3).space)


def test_canonical_tuple_and_sort_key():
    assert canonical_tuple(frozenset({"b", "a"})) == ("a", "b")
    cells = [frozenset({"b"}), frozenset({"a", "b"}), frozenset({"a"})]
    assert sorted(cells, key=cell_sort_key) == [
        frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})
    ]

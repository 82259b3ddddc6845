"""Complexes, validation, subsets, and barycentric subdivision."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lefscalc
import oracles
from lefscalc import complexes
from lefscalc import fixtures as fx
from lefscalc.complexes import (
    Cell,
    CellSpace,
    CellularSubset,
    SimplicialComplex,
    TupleVertex,
    Violation,
    barycentric_subdivide,
    canonical_tuple,
    cell_sort_key,
    closure,
    connected_components,
    induced_subcomplex,
    link,
    require_valid,
    sd_positions,
    star,
    subdivided_complex,
    subdivision_f_vectors,
    validate,
    vertex_key,
    whole_space,
)
from lefscalc.errors import DegenerateInputError, InvalidComplexError, LefscalcError
from lefscalc.euler import ConstructibleFunction, chi_c, euler_integral, restrict
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.flags import flag_cellspace
from lefscalc.io import vertex_to_json
from lefscalc.verify import random_complex


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


def test_validate_names_the_vertices_without_coordinates():
    # a coordinate table that leaves out a vertex
    space = SimplicialComplex.build(["a", "b", "c"], [["a"], ["b"], ["c"]], {"b": [0]})
    assert space.coords == (None, (Fraction(0),), None)
    assert validate(space) == [
        Violation("missing-coordinates", "coordinates absent for ['a', 'c']")
    ]
    with pytest.raises(InvalidComplexError, match="missing-coordinates"):
        require_valid(space)


def test_build_reads_the_vertex_list_once():
    # a one-shot iterable aligns with its coordinate rows, as the list does
    rows = [["0"], ["1"]]
    once = SimplicialComplex.build((v for v in "ab"), [["a"], ["b"]], rows)
    assert once == SimplicialComplex.build(["a", "b"], [["a"], ["b"]], rows)
    assert once.coords == ((Fraction(0),), (Fraction(1),))
    # a set has no order to align rows with
    for unordered in ({"a", "b"}, frozenset("ab")):
        with pytest.raises(
            DegenerateInputError,
            match="^aligned coordinates need an ordered vertex sequence$",
        ):
            SimplicialComplex.build(unordered, [["a"], ["b"]], rows)


def test_star_link_closure_on_disk():
    space = fx.disk()
    st = star(space, "c")
    assert all("c" in cell for cell in st.members)
    lk = link(space, "c")
    # link of the center is the boundary hexagon: 6 vertices + 6 edges
    assert len(lk.simplices) == 12
    cl = closure(st)
    assert cl.members == space.cell_keys


def no_vertex(v) -> str:
    """The start of the vertex reader's refusal of `v`: a string the space
    lacks is unknown, and a list is no vertex of any space."""
    return re.escape(f"{'unknown' if isinstance(v, str) else 'invalid'} vertex {v!r}")


@pytest.mark.parametrize("vertex", ["zz", ["c"]])
def test_star_refuses_a_vertex_the_space_does_not_have(vertex):
    with pytest.raises(DegenerateInputError, match=no_vertex(vertex)):
        star(fx.disk(), vertex)


@pytest.mark.parametrize("vertex", ["zz", ["c"]])
def test_link_refuses_a_vertex_the_space_does_not_have(vertex):
    with pytest.raises(DegenerateInputError, match=no_vertex(vertex)):
        link(fx.disk(), vertex)


def test_connected_components_simplicial():
    space = SimplicialComplex.from_maximal([("a", "b"), ("x", "y"), ("y", "z")])
    comps = connected_components(whole_space(space))
    assert len(comps) == 2
    sizes = sorted(len(c.members) for c in comps)
    assert sizes == [3, 5]


def test_components_of_a_family_that_is_not_closed():
    """Cells are joined when one is a face of the other: two open edges
    without their common vertex are two arcs, an open triangle with one
    corner is one piece."""
    hexagon = fx.hexagon()
    arcs = [("v0", "v1"), ("v1", "v2")]
    assert len(connected_components(CellularSubset.of(hexagon, arcs))) == 2
    joined = CellularSubset.of(hexagon, [*arcs, ("v1",)])
    assert len(connected_components(joined)) == 1
    triangle = SimplicialComplex.from_maximal([("a", "b", "c")])
    cornered = CellularSubset.of(triangle, [("a", "b", "c"), ("a",)])
    assert len(connected_components(cornered)) == 1
    apart = CellularSubset.of(triangle, [("a", "b"), ("c",)])
    assert len(connected_components(apart)) == 2


def test_connected_components_cellspace_by_label():
    space = CellSpace.build(
        [Cell("u0", 0, "u"), Cell("u2", 2, "u"), Cell("w0", 0, "w")]
    )
    comps = connected_components(space)
    assert [sorted(c.sorted_members()) for c in comps] == [["u0", "u2"], ["w0"]]


def test_a_label_never_merges_with_an_unlabelled_cell():
    space = CellSpace.build([Cell("a", 0, "~b"), Cell("b", 0, None)])
    comps = connected_components(space)
    assert [c.sorted_members() for c in comps] == [["a"], ["b"]]


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


def test_subdivided_complex_composes_carriers():
    space = fx.interval_complex()
    twice, carrier = subdivided_complex(space, 2)
    assert len(twice.k_cells(1)) == 4
    for s in twice.simplices:
        assert carrier[s] in space.simplices


def test_subdivision_tower_matches_iterated_subdivision():
    space = SimplicialComplex.from_maximal(
        [("a", "b", "c")], coords={"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    )
    current, carrier = space, {s: s for s in space.simplices}
    for level in range(4):
        assert subdivided_complex(space, level) == (current, carrier)
        current, step = barycentric_subdivide(current)
        carrier = {cell: carrier[below] for cell, below in step.items()}
    with pytest.raises(
        DegenerateInputError, match="^subdivision level must be at least 0, got -1$"
    ):
        subdivided_complex(space, -1)


def test_a_bool_level_misses_the_cached_integer_level():
    # the tower stays an lru_cache, whose counters the benchmark reads
    assert subdivided_complex.cache_parameters() == {"maxsize": None, "typed": True}
    space = fx.sphere2()
    subdivided_complex(space, 1)
    with pytest.raises(
        DegenerateInputError, match="^subdivision level must be an integer, got True$"
    ):
        subdivided_complex(space, True)


def test_a_tower_past_the_recursion_limit_is_built_bottom_up():
    point = SimplicialComplex.from_maximal([("p",)])
    level = sys.getrecursionlimit() + 100
    before = complexes.subdivided_complex.cache_info()
    space, carrier = subdivided_complex(point, level)
    (vertex,) = space.vertices
    for _ in range(level):
        (vertex,) = vertex
    assert vertex == "p" and set(carrier.values()) == {frozenset({"p"})}
    # the climb is one walk of cached steps, not a lookup of every level below
    after = complexes.subdivided_complex.cache_info()
    lookups = after.hits + after.misses - before.hits - before.misses
    assert lookups <= level + 1
    # and the level asked for is kept
    subdivided_complex(point, level)
    again = complexes.subdivided_complex.cache_info()
    assert (again.hits, again.misses) == (after.hits + 1, after.misses)


FIXTURE_COMPLEXES = {
    "point": fx.point_complex, "interval": fx.interval_complex,
    "hexagon": fx.hexagon, "twelve-gon": fx.twelve_gon, "disk": fx.disk,
    "sphere": fx.sphere2, "square": lambda: fx.square_projection().source,
    "collapse-target": lambda: fx.collapse_map().target,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_COMPLEXES))
def test_predicted_f_vectors_match_the_built_tower(name):
    space = FIXTURE_COMPLEXES[name]()
    predicted = subdivision_f_vectors(space)
    for level in range(4):
        built = subdivided_complex(space, level)[0]
        counts = [0] * (space.dim + 1)
        for s in built.simplices:
            counts[len(s) - 1] += 1
        assert next(predicted) == tuple(counts), level


def test_predicted_f_vectors_of_a_triangle_and_an_empty_complex():
    triangle = SimplicialComplex.from_maximal([("a", "b", "c")])
    levels = subdivision_f_vectors(triangle)
    assert [next(levels) for _ in range(3)] == [(3, 3, 1), (7, 12, 6), (25, 60, 36)]
    assert next(subdivision_f_vectors(SimplicialComplex.build((), ()))) == (0,)


def test_sd_vertex_position():
    positions = sd_positions(SimplicialComplex.from_maximal([("a", "b")]))
    assert positions[("a", "b")] == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert positions[("a",)] == {"a": Fraction(1)}
    with pytest.raises(DegenerateInputError, match="not a subdivision vertex: 'c'"):
        positions[("a", "c")]


@pytest.mark.parametrize(
    "base", [fx.interval_complex(), fx.hexagon(), fx.disk(), fx.sphere2()],
    ids=["interval", "hexagon", "disk", "sphere2"],
)
def test_sd_positions_match_level_by_level_weights(base):
    positions = sd_positions(base)
    for level in range(4):
        sd, carrier = subdivided_complex(base, level)
        for w in sd.vertices:
            position = positions[w]
            assert position == oracles.barycentric_weights(w, level)
            assert sum(position.values()) == 1
            # the fixed-point check reads its signs off this support
            assert position.keys() == carrier[frozenset([w])]
            assert all(x > 0 for x in position.values())


def outputs_under_hash_seeds(script: str, seeds) -> set:
    """The distinct outputs of `script` run in one fresh process per
    PYTHONHASHSEED value."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lefscalc.__file__)))
    outputs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(run.stdout)
    return outputs


# ---------------------------------------------------------------------------
# the subdivision step against the chain oracle


def assert_subdivides_like_oracle(space) -> SimplicialComplex:
    """One step on `space` gives what the step it replaced gave: the
    vertices in order, each a TupleVertex with the same key, the simplices,
    the coordinates and the carrier.  Returns the subdivided complex."""
    finer, carrier = barycentric_subdivide(space)
    expected, expected_carrier = oracles.barycentric_subdivide_by_chains(space)
    assert finer.vertices == expected.vertices
    assert all(type(v) is TupleVertex for v in finer.vertices)
    assert [v.key for v in finer.vertices] == [v.key for v in expected.vertices]
    assert finer.simplices == expected.simplices
    assert finer.coords == expected.coords
    if finer.coords is not None:
        assert all(type(x) is Fraction for row in finer.coords for x in row)
    assert carrier == expected_carrier
    return finer


COORDINATE_COMPLEXES = {
    "disk with coordinates": fx.disk,
    "hexagon with coordinates": lambda: induced_subcomplex(
        fx.disk(), fx.disk_boundary_cells()
    ),
}


@pytest.mark.parametrize("name", sorted({**FIXTURE_COMPLEXES, **COORDINATE_COMPLEXES}))
def test_subdivision_step_matches_the_chain_oracle_on_fixtures(name):
    space = {**FIXTURE_COMPLEXES, **COORDINATE_COMPLEXES}[name]()
    for _ in range(3):  # the steps to levels 1, 2 and 3
        space = assert_subdivides_like_oracle(space)


MIXED_NAMES = (-3, 0, 2**63, "", "a", "b7", ("a",), (1, "a"), ("b", (2,)), ((),))


def _seeded_base(seed: int) -> SimplicialComplex:
    """A `verify.random_complex`; a third of them renamed onto a sample of
    MIXED_NAMES, another third placed at scaled unit vectors plus a shared
    offset with mixed denominators, which are affinely independent."""
    rng = random.Random(f"subdivide:{seed}")
    space = random_complex(rng)
    if seed % 3 == 1:
        names = dict(zip(space.vertices, rng.sample(MIXED_NAMES, len(space.vertices))))
        return SimplicialComplex.from_simplices(
            [[names[v] for v in s] for s in space.simplices]
        )
    if seed % 3 == 2:
        axes = len(space.vertices)
        offset = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(axes)]
        rows = []
        for i in range(axes):
            row = list(offset)
            row[i] += Fraction(rng.choice((-5, -3, 2, 4)), rng.randint(1, 7))
            rows.append(row)
        return SimplicialComplex.build(space.vertices, space.simplices, rows)
    return space


def test_subdivision_step_matches_the_chain_oracle_on_seeded_complexes():
    name_types, with_coords = set(), set()
    for seed in range(300):
        space = _seeded_base(seed)
        name_types.update(type(v) for v in space.vertices)
        with_coords.add(space.coords is not None)
        assert_subdivides_like_oracle(space)
    assert name_types == {int, str, tuple} and with_coords == {True, False}


def test_a_step_builds_its_complex_from_its_own_parts(monkeypatch):
    space = fx.disk()

    def refuse(*args):
        raise AssertionError("a part of the step's own making was read again")

    monkeypatch.setattr(SimplicialComplex, "build", staticmethod(refuse))
    for name in ("read_cells", "read_rows", "canonical_tuple"):
        monkeypatch.setattr(complexes, name, refuse)
    finer, carrier = barycentric_subdivide(space)
    assert len(finer.simplices) == len(carrier) == 25 + 60 + 36


STEP_HASH_SEED_SCRIPT = """
import hashlib
from lefscalc import fixtures as fx
from lefscalc.complexes import canonical_tuple, subdivided_complex

finer, carrier = subdivided_complex(fx.disk(), 2)
parts = [finer.vertices, finer.coords]
parts += [(canonical_tuple(c), canonical_tuple(s)) for c, s in carrier.items()]
print(hashlib.sha256(repr(parts).encode()).hexdigest())
"""


def test_the_step_does_not_depend_on_set_order():
    assert len(outputs_under_hash_seeds(STEP_HASH_SEED_SCRIPT, ("1", "2"))) == 1


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
# parent; references to a top cell, a vertex and an unknown cell; the key
# of the top cell and the name refusals give the unknown cell (a canonical
# vertex tuple, never a frozenset); chi of the whole space and of the top
# cell; the integral of 3 [top] + 1/2 [vertex]; the components by keys
PROTOCOL_CASES = {
    "interval": (
        fx.interval_complex, ["b", "a"], ["a"], ["z"], AB, ("z",),
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


# ---------------------------------------------------------------------------
# order keys against the recursive oracle

SUBDIVIDED = {"sd3-disk": (fx.disk, 3), "sd2-s2": (fx.sphere2, 2)}


def _fresh_copy(v):
    """An equal vertex built from new plain tuple objects."""
    return tuple(map(_fresh_copy, v)) if isinstance(v, tuple) else v


@pytest.mark.parametrize("name", sorted(SUBDIVIDED))
def test_vertex_key_matches_the_recursive_oracle(name):
    make, level = SUBDIVIDED[name]
    space = subdivided_complex(make(), level)[0]
    vertices = list(space.vertices)
    assert all(type(v) is TupleVertex for v in vertices)
    expected = [oracles.vertex_key_recursive(v) for v in vertices]
    # the tower's vertices carry their keys; equal plain tuples are keyed
    # by the recursion, and both agree with the oracle
    assert [vertex_key(v) for v in vertices] == expected
    copies = [_fresh_copy(v) for v in vertices]
    assert not any(isinstance(v, TupleVertex) for v in copies)
    assert [vertex_key(v) for v in copies] == expected


def _tuple_vertex(v):
    """v rebuilt from TupleVertex objects, nested parts first."""
    return TupleVertex(map(_tuple_vertex, v)) if isinstance(v, tuple) else v


@pytest.mark.parametrize(
    "plain",
    [(), (1,), ("a", 2), ((1,), "b"), (((1, 2), (1,)), ((1,),), "c")],
    ids=repr,
)
def test_tuple_vertex_behaves_as_its_plain_tuple(plain):
    v = _tuple_vertex(plain)
    assert v == plain and plain == v and hash(v) == hash(plain)
    assert {plain: "found"}[v] == "found" and len({v, plain}) == 1
    assert repr(v) == repr(plain) and str(v) == str(plain)
    assert f"{v!r} {v}" == f"{plain!r} {plain}"
    assert vertex_to_json(v) == vertex_to_json(plain)
    assert vertex_key(v) is v.key
    assert v.key == vertex_key(plain) == oracles.vertex_key_recursive(plain)
    twins = [copy.copy(v), copy.deepcopy(v)] + [
        pickle.loads(pickle.dumps(v, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in twins:
        assert type(twin) is TupleVertex and twin == plain
        assert repr(twin) == repr(plain) and vertex_to_json(twin) == vertex_to_json(plain)
        assert twin.key == v.key


@pytest.mark.parametrize(
    "bad", [(True,), (0, False), ((1,), (True,)), (1.5,), (None,), (["a"],)]
)
def test_tuple_vertex_refuses_parts_that_are_not_identifiers(bad):
    with pytest.raises(DegenerateInputError, match="invalid vertex"):
        TupleVertex(bad)


@pytest.mark.parametrize("name", sorted(SUBDIVIDED))
def test_cell_sort_key_matches_canonical_tuple_keys(name):
    make, level = SUBDIVIDED[name]
    space = subdivided_complex(make(), level)[0]
    key = oracles.vertex_key_recursive

    def expected(cell):
        return (len(cell), *map(key, sorted(cell, key=key)))

    for cell in space.simplices:
        assert cell_sort_key(cell) == expected(cell)
        assert tuple(map(key, canonical_tuple(cell))) == expected(cell)[1:]
    assert sorted(space.simplices, key=cell_sort_key) == sorted(
        space.simplices, key=expected
    )


# ---------------------------------------------------------------------------
# the spliced keys order as the nested keys did

@pytest.mark.parametrize("name", sorted(SUBDIVIDED))
def test_vertex_and_cell_orders_are_the_nested_keys_orders(name):
    make, level = SUBDIVIDED[name]
    space = subdivided_complex(make(), level)[0]
    nested = sorted(space.vertices, key=oracles.vertex_key_nested)
    assert list(space.vertices) == nested
    for vertices in (list(space.vertices), [_fresh_copy(v) for v in space.vertices]):
        assert sorted(reversed(vertices), key=vertex_key) == nested
    # the flag generator's vertices compute their keys when first read
    sub = complexes.flag_subdivision(make(), level)
    lazy = list(sub.vertices)
    assert sorted(reversed(lazy), key=vertex_key) == nested
    assert [lazy[n] for n in sub.order] == nested
    cells = sorted(space.simplices, key=oracles.cell_sort_key_nested)
    copies = [frozenset(map(_fresh_copy, cell)) for cell in space.simplices]
    for family in (list(space.simplices), copies):
        assert sorted(family, key=cell_sort_key) == cells
    assert [space.k_cells(k) for k in range(space.dim + 1)] == [
        [c for c in cells if len(c) == k + 1] for k in range(space.dim + 1)
    ]


# identifiers nested up to four deep, from a small pool of atoms so that
# equal parts, and keys equal up to a late position, come up often
_ATOMS = st.sampled_from([0, -1, 1, 2 ** 64 - 1, -(2 ** 64 - 1), "", "\x00", "a", "ab"])


def _identifiers(depth: int):
    if depth == 0:
        return _ATOMS
    inner = _identifiers(depth - 1)
    return st.one_of(inner, st.lists(inner, max_size=4).map(tuple))


def _compared(a, b) -> int:
    return (a > b) - (a < b)


def _lazy_tuple_vertex(v):
    """v rebuilt as the flag generator builds vertices: tuple.__new__, the
    key computed when first read."""
    if isinstance(v, tuple):
        return tuple.__new__(TupleVertex, map(_lazy_tuple_vertex, v))
    return v


@settings(max_examples=150, deadline=None)
@given(st.lists(_identifiers(4), min_size=1, max_size=6))
@example([("b",), ("a", "c")])
@example([(), ("",), ("\x00",), (("",),), (0, ()), (0, (), ())])
def test_spliced_keys_compare_as_the_nested_keys_do(identifiers):
    nested = [oracles.vertex_key_nested(v) for v in identifiers]
    for build in (lambda v: v, _tuple_vertex, _lazy_tuple_vertex):
        keys = [vertex_key(build(v)) for v in identifiers]
        assert keys == [oracles.vertex_key_recursive(v) for v in identifiers]
        for i, j in product(range(len(keys)), repeat=2):
            assert _compared(keys[i], keys[j]) == _compared(nested[i], nested[j])
    cells = [frozenset(identifiers[i:]) for i in range(len(identifiers))]
    ordered = sorted(cells, key=oracles.cell_sort_key_nested)
    assert sorted(reversed(cells), key=cell_sort_key) == ordered


@pytest.mark.parametrize("make", [_tuple_vertex, _lazy_tuple_vertex])
def test_a_tuple_vertex_key_holds_no_inner_tuple_of_part_keys(make):
    for plain in [(), ("a",), (1, "b"), ((1,), ("a", 2), ()), (((1, 2),), "c")]:
        v = make(plain)
        parts = tuple(map(vertex_key, v))
        assert v.key == (2, len(v), *parts)
        assert parts not in v.key and len(v.key) == len(v) + 2
    for v in subdivided_complex(fx.disk(), 2)[0].vertices:
        assert len(v.key) == len(v) + 2 and tuple(map(vertex_key, v)) not in v.key


@pytest.mark.parametrize("bad", [True, 1.5, None, (True,), ("a", 2.0), ((None,),)])
def test_build_refuses_vertices_that_are_not_identifiers(bad):
    with pytest.raises(DegenerateInputError, match="invalid vertex"):
        SimplicialComplex.build(["a", bad], [["a"], [bad]])
    with pytest.raises(DegenerateInputError, match="invalid vertex"):
        SimplicialComplex.from_maximal([["a", bad]])


@pytest.mark.parametrize(
    "good, bad",
    [
        ((1,), (True,)),
        ((0, "a"), (False, "a")),
        (((1,), "b"), ((True,), "b")),
        ((2, (3,)), (2.0, (3,))),
        ((4,), (Fraction(4),)),
    ],
)
def test_vertex_key_memo_does_not_depend_on_call_history(good, bad):
    # the two vertices are equal as dict keys, in either order of calls
    assert good == bad and hash(good) == hash(bad)
    for _ in range(2):
        assert vertex_key(good) == oracles.vertex_key_recursive(good)
        with pytest.raises(DegenerateInputError, match="invalid vertex"):
            vertex_key(bad)
    with pytest.raises(DegenerateInputError, match="invalid vertex"):
        vertex_key((["a"],))


HASH_SEED_SCRIPT = """
from lefscalc.complexes import CellularSubset, SimplicialComplex, induced_subcomplex
from lefscalc.euler import ConstructibleFunction

space = SimplicialComplex.from_maximal([("a", "b")])
for attempt in (
    lambda: CellularSubset.of(space, [("p", "q"), ("q", "r", "s"), ("z",), ("y",)]),
    lambda: ConstructibleFunction.of(space, [(("q", "p"), 1)]),
    lambda: induced_subcomplex(space, [("q", "p")]),
):
    try:
        attempt()
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_refusal_texts_do_not_depend_on_the_string_hash():
    assert outputs_under_hash_seeds(HASH_SEED_SCRIPT, ("1", "2", "3")) == {
        "DegenerateInputError cells not in parent: "
        "[\"('y',)\", \"('z',)\", \"('p', 'q')\"]\n"
        "DegenerateInputError value on unknown cell ('p', 'q')\n"
        "DegenerateInputError cells not in parent: [\"('p', 'q')\"]\n"
    }


def test_vertex_index_is_a_lookup_and_refuses_unknown_vertices():
    space = subdivided_complex(fx.disk(), 2)[0]
    positions = [space.vertex_index(v) for v in space.vertices]
    assert positions == list(range(len(space.vertices)))
    assert space.coord_of(space.vertices[5]) == space.coords[5]
    with pytest.raises(DegenerateInputError, match="unknown vertex 'zz'"):
        space.vertex_index("zz")
    with pytest.raises(DegenerateInputError, match=re.escape("unknown vertex ['c']")):
        space.vertex_index(["c"])
    # the index is a cached property, not a field: equality stays on fields
    assert space == subdivided_complex(fx.disk(), 2)[0]


# ---------------------------------------------------------------------------
# validation against the every-simplex oracle


def _outcome(check, space):
    """What a validation call returns, or the type and text it raises."""
    try:
        return "returned", check(space)
    except LefscalcError as exc:
        return type(exc).__name__, str(exc)


def _unvalidated_copy(space):
    """An equal space with no validation verdict cached on it yet."""
    return type(space)(*(getattr(space, name) for name in space._fields))


def assert_validates_like_oracle(space, monkeypatch):
    expected = _outcome(oracles.validate_all_simplices, space)
    assert _outcome(validate, space) == expected
    actual_message = _outcome(require_valid, _unvalidated_copy(space))
    with monkeypatch.context() as patch:
        patch.setattr(complexes, "validate", oracles.validate_all_simplices)
        assert actual_message == _outcome(require_valid, _unvalidated_copy(space))
    return expected


def test_a_complex_is_validated_once(monkeypatch):
    runs = []

    def counting(space):
        runs.append(space)
        return validate(space)

    monkeypatch.setattr(complexes, "validate", counting)
    space = SimplicialComplex.from_maximal([("a", "b", "c")])
    require_valid(space)
    require_valid(space)
    assert runs == [space]
    broken = CRAFTED["missing face"]()
    for _ in range(2):
        with pytest.raises(InvalidComplexError, match="not-face-closed"):
            require_valid(broken)
    assert runs == [space, broken]
    require_valid(fx.cp1_cellspace())
    assert len(runs) == 2


FIXTURE_SPACES = (
    fx.point_complex, fx.interval_complex, fx.hexagon, fx.twelve_gon,
    fx.disk, fx.sphere2, fx.cp1_cellspace,
)


@pytest.mark.parametrize("make", FIXTURE_SPACES, ids=lambda f: f.__name__)
def test_validate_matches_oracle_on_fixtures_and_their_subdivisions(make, monkeypatch):
    space = make()
    assert assert_validates_like_oracle(space, monkeypatch) == ("returned", [])
    if getattr(space, "coords", None) is not None:
        for level in (1, 2):
            finer = subdivided_complex(space, level)[0]
            assert assert_validates_like_oracle(finer, monkeypatch) == ("returned", [])


def _random_complex(rng):
    names = [f"v{i}" for i in range(rng.randint(3, 7))]
    maximal = [
        rng.sample(names, rng.randint(1, min(4, len(names))))
        for _ in range(rng.randint(1, 5))
    ]
    closed = SimplicialComplex.from_maximal(maximal)
    simplices = set(closed.simplices)
    if rng.random() < 0.2:  # an occasional missing face
        simplices.discard(rng.choice(sorted(simplices, key=cell_sort_key)))
    listed = list(closed.vertices)
    if rng.random() < 0.1:  # an occasional unlisted vertex
        listed.remove(rng.choice(listed))
    dim = rng.randint(1, 3)
    coords = [
        tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
        for _ in listed
    ]
    return SimplicialComplex.build(tuple(listed), simplices, coords)


def test_validate_matches_oracle_on_seeded_complexes(monkeypatch):
    verdicts = set()
    for seed in range(300):
        space = _random_complex(random.Random(f"validate:{seed}"))
        kind, result = assert_validates_like_oracle(space, monkeypatch)
        if kind != "returned":
            verdicts.add(kind)
        else:
            verdicts.add("valid" if not result else "invalid")
            if any(v.kind == "affinely-dependent" for v in result):
                verdicts.add("degenerate")
            if any(v.kind == "unknown-vertex" for v in result):
                verdicts.add("unknown-vertex")
    assert {"valid", "invalid", "degenerate", "unknown-vertex"} <= verdicts


def _with_coords(maximal, points, vertices=None, drop=()):
    closed = SimplicialComplex.from_maximal(maximal)
    listed = tuple(points) if vertices is None else vertices
    simplices = closed.simplices - {frozenset(s) for s in drop}
    return SimplicialComplex.build(
        listed, simplices, [tuple(map(Fraction, points[v])) for v in listed]
    )


CRAFTED = {
    # each edge joins two distinct points; only the triangle is flat
    "collinear triangle": lambda: _with_coords(
        [("a", "b", "c")], {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
    ),
    # a and b coincide: the edge ab and both triangles on it are degenerate
    "coincident vertices": lambda: _with_coords(
        [("a", "b", "c"), ("a", "b", "d")],
        {"a": (0, 0), "b": (0, 0), "c": (1, 0), "d": (0, 1)},
    ),
    # x is unlisted, beside a flat face abc
    "unlisted vertex beside a degenerate face": lambda: _with_coords(
        [("a", "b", "c", "x")],
        {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        vertices=("a", "b", "c"),
    ),
    # the first simplex to name an unlisted vertex is the 0-simplex x, but
    # the first maximal one is the edge ay
    "two unlisted vertices": lambda: _with_coords(
        [("a", "y"), ("a", "b", "x")], {"a": (0, 0), "b": (1, 0)},
        vertices=("a", "b"),
    ),
    "missing face": lambda: _with_coords(
        [("a", "b", "c")], {"a": (0, 0), "b": (1, 0), "c": (0, 1)},
        drop=[("a", "c")],
    ),
    "missing face of a flat triangle": lambda: _with_coords(
        [("a", "b", "c")], {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        drop=[("b",)],
    ),
    "ragged coordinates": lambda: SimplicialComplex.build(
        ("a", "b"), [{"a"}, {"b"}, {"a", "b"}], [(0, 0), (1,)]
    ),
    "zero-length coordinates": lambda: SimplicialComplex.build(
        ("a", "b"), [{"a"}, {"b"}, {"a", "b"}], [(), ()]
    ),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_validate_matches_oracle_on_crafted_bad_complexes(name, monkeypatch):
    kind, result = assert_validates_like_oracle(CRAFTED[name](), monkeypatch)
    assert kind != "returned" or result, "every crafted case is invalid"


def test_validate_lists_unlisted_vertices_beside_coordinates():
    details = [
        (v.kind, v.detail)
        for v in validate(CRAFTED["unlisted vertex beside a degenerate face"]())
    ]
    assert ("affinely-dependent", "simplex ('a', 'b', 'c') is degenerate") in details
    assert ("unknown-vertex", "simplex ('x',) uses unlisted ['x']") in details
    others = [detail for kind, detail in details if kind != "unknown-vertex"]
    assert not any("'x'" in detail for detail in others)


def test_validate_names_each_degenerate_simplex():
    kinds = [v.detail for v in validate(CRAFTED["coincident vertices"]())]
    assert kinds == [
        "simplex ('a', 'b') is degenerate",
        "simplex ('a', 'b', 'c') is degenerate",
        "simplex ('a', 'b', 'd') is degenerate",
    ]
    assert [v.detail for v in validate(CRAFTED["collinear triangle"]())] == [
        "simplex ('a', 'b', 'c') is degenerate"
    ]


# ---------------------------------------------------------------------------
# the integer rank test and the unsorted walk


def _seeded_points(rng, count: int, axes: int) -> list:
    """Points with mixed denominators up to 10**6; some repeat an earlier
    point and some lie on the line through two earlier ones."""
    def coordinate():
        den = rng.choice((1, 2, 3, 10**6, rng.randint(1, 10**6)))
        return Fraction(rng.randint(-10**6, 10**6), den)

    points = []
    for _ in range(count):
        roll = rng.random()
        if points and roll < 0.2:
            points.append(rng.choice(points))
        elif len(points) >= 2 and roll < 0.4:
            p, q = rng.sample(points, 2)
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            points.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        else:
            points.append(tuple(coordinate() for _ in range(axes)))
    return points


def test_integer_rank_test_agrees_with_rational_rank(monkeypatch):
    verdicts = set()
    for seed in range(300):
        rng = random.Random(f"rank:{seed}")
        axes = rng.choice((0, 1, 2, 3, 4))
        points = _seeded_points(rng, rng.randint(2, 5), axes)
        names = [f"p{i}" for i in range(len(points))]
        space = SimplicialComplex.from_maximal([names], dict(zip(names, points)))
        rows = tuple(tuple(b - a for a, b in zip(points[0], p)) for p in points[1:])
        independent = oracles.rank(RationalMatrix(rows, axes)) == len(rows)
        integer_rows = [  # each row scaled by the lcm of its own denominators
            [x.numerator * (m // x.denominator) for x in row]
            for row in rows
            for m in (lcm(*(x.denominator for x in row)),)
        ]
        assert complexes._full_row_rank(integer_rows) == independent
        simplex = frozenset(names)
        flat = list(complexes._degenerate(space, [simplex], set(names)))
        assert flat == ([] if independent else [simplex])
        kind, result = assert_validates_like_oracle(space, monkeypatch)
        assert kind == "returned" and bool(result) == (not independent)
        verdicts.add((axes > 0, independent))
    assert verdicts == {(True, True), (True, False), (False, False)}


def _malformed_sd2(rng, defects) -> SimplicialComplex:
    """sd^2(disk) with seeded defects: a dropped edge, a triangle flattened
    by moving a vertex to the midpoint of the opposite edge, and a vertex
    left out of the vertex list."""
    space = subdivided_complex(fx.disk(), 2)[0]
    cells = sorted(space.simplices, key=cell_sort_key)
    simplices = set(cells)
    coords = dict(zip(space.vertices, space.coords))
    listed = list(space.vertices)
    if "dropped face" in defects:
        simplices.discard(rng.choice([s for s in cells if len(s) == 2]))
    if "flattened simplex" in defects:
        a, b, c = canonical_tuple(rng.choice([s for s in cells if len(s) == 3]))
        coords[c] = tuple((x + y) / 2 for x, y in zip(coords[a], coords[b]))
    if "unlisted vertex" in defects:
        listed.remove(rng.choice(listed))
    return SimplicialComplex.build(tuple(listed), simplices, [coords[v] for v in listed])


SD2_DEFECTS = ("dropped face", "flattened simplex", "unlisted vertex")


@pytest.mark.parametrize(
    "defects", [(d,) for d in SD2_DEFECTS] + [SD2_DEFECTS], ids=" + ".join
)
def test_validate_matches_oracle_on_a_malformed_sd2_complex(defects, monkeypatch):
    space = _malformed_sd2(random.Random(f"sd2:{defects}"), defects)
    kind, result = assert_validates_like_oracle(space, monkeypatch)
    assert kind == "returned"
    kinds = {v.kind for v in result}
    expected = {
        "dropped face": "not-face-closed",
        "flattened simplex": "affinely-dependent",
        "unlisted vertex": "unknown-vertex",
    }
    assert {expected[d] for d in defects} <= kinds


def test_validating_a_valid_complex_names_no_simplex_and_builds_no_matrix(monkeypatch):
    named, matrices = [], []
    build = RationalMatrix.__init__

    def counting_init(self, *args):
        matrices.append(args)
        build(self, *args)

    monkeypatch.setattr(
        complexes, "canonical_tuple", lambda s: named.append(s) or canonical_tuple(s)
    )
    monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
    space = subdivided_complex(fx.disk(), 2)[0]
    assert len(space.simplices) == 673
    assert validate(_unvalidated_copy(space)) == []
    assert named == [] and matrices == []
    # the counters do see a complex with a violation
    assert validate(CRAFTED["missing face"]())
    assert named


def test_the_rank_test_scales_each_simplex_by_its_own_denominators(monkeypatch):
    """With a distinct prime denominator per vertex, one scale per axis for
    the whole complex would carry every prime; a simplex's own scales carry
    only its three vertices' primes."""
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    names = [f"v{i}" for i in range(200)]
    points = {
        v: (Fraction(i + 1, primes[i]), Fraction(i * i + 1, primes[i + 1]))
        for i, v in enumerate(names)
    }
    space = SimplicialComplex.from_maximal(
        [names[i:i + 3] for i in range(len(names) - 2)], points
    )
    widths = []
    check = complexes._full_row_rank

    def recording(rows):
        widths.append(max(abs(x).bit_length() for row in rows for x in row))
        return check(rows)

    monkeypatch.setattr(complexes, "_full_row_rank", recording)
    assert validate(_unvalidated_copy(space)) == oracles.validate_all_simplices(space)
    assert widths and max(widths) < 100


# ---------------------------------------------------------------------------
# the checks that stand in for validating a generated sd^k


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", ["collinear triangle", "coincident vertices"])
def test_the_generator_refuses_a_degenerate_base_at_every_level(name, level):
    from lefscalc.maps import SelfMapSpec

    base = CRAFTED[name]()
    refusal = "affinely-dependent: simplex"
    with pytest.raises(InvalidComplexError, match=refusal):
        complexes.flag_subdivision(base, level)
    with pytest.raises(InvalidComplexError, match=refusal):
        SelfMapSpec.build(base, level, {})
    if level:
        with pytest.raises(InvalidComplexError, match=refusal):
            subdivided_complex(base, level)


# (dimension, faces as position tuples, flags as lists of face numbers)
FLAG_TABLE_DEFECTS = {
    "a face repeats a position": (1, [(0,), (0, 1, 1)], [[0, 1]]),
    "a face names a position past the simplex": (1, [(0,), (0, 2)], [[0, 1]]),
    "a face is empty": (1, [(), (0, 1)], [[0, 1]]),
    "a flag names one face twice": (1, [(0,), (0, 1)], [[0, 0]]),
    "a flag stops short": (2, [(0,), (0, 1), (0, 1, 2)], [[0, 1]]),
    "a flag's faces are not nested": (2, [(0,), (1, 2), (0, 1, 2)], [[0, 1, 2]]),
}


@pytest.mark.parametrize("defect", sorted(FLAG_TABLE_DEFECTS))
def test_the_flag_check_refuses_each_defect(defect):
    d, faces, flags = FLAG_TABLE_DEFECTS[defect]
    with pytest.raises(InvalidComplexError, match=f"flag table of dimension {d}: "):
        complexes._check_flags(d, faces, flags)


def test_each_flag_table_lists_every_full_flag_once():
    for d in range(5):
        faces, picks, same, flipped = complexes._flag_table(d)
        assert len(faces) == 2 ** (d + 1) - 1
        corners = tuple(range(d + 1))
        flags = {pick([face(corners) for face in faces]) for pick in picks}
        assert len(flags) == len(picks) == len(same) == factorial(d + 1)
        assert all(len(flag) == d + 1 for flag in flags)
        assert flipped == tuple(-s for s in same) and sum(same) == (d == 0)

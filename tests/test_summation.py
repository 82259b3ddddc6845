"""The exact summation kernel and the Euler calculus routed through it.

Every result is compared with the loop it replaced (oracles.py), which
adds one Gaussian rational at a time: exact values and their printed
form, entry order, and, for a functional with tied edges, the ties and
the refusal text.  The kernel itself is also compared with the fold it
replaced, which sums each part through a dict of its own.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lefscalc.fixtures as fx
import oracles
from lefscalc.complexes import (
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    subdivided_complex,
)
from lefscalc.errors import DegenerateInputError, GenericityError
from lefscalc.euler import ConstructibleFunction, euler_integral, pushforward
from lefscalc.exact import GZERO, GaussianRational, signed_sum, signed_sums
from lefscalc.maps import SimplicialMap
from lefscalc.morse import (
    VertexFunctional,
    cc_table,
    genericity_check,
    index_sum,
    morse_multiplicity,
)
from lefscalc.verify import random_functional, random_map_between

# denominators near 2**70, mixed in with 1..12
LARGE_DENOMINATORS = (2 ** 70 - 1, 2 ** 70 + 1, 3 ** 44, 2 ** 69 * 5 // 4)

SPACES = {
    "sd1-disk": (fx.disk, 1),
    "sd2-disk": (fx.disk, 2),
    "sd3-disk": (fx.disk, 3),
    "sd1-sphere": (fx.sphere2, 1),
}


def _part(rng):
    if rng.random() < 0.05:
        numerator = rng.randint(-(2 ** 72), 2 ** 72)
        return Fraction(numerator, rng.choice(LARGE_DENOMINATORS))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def seeded_function(rng, space, ints=False):
    table = {}
    for cell in sorted(space.cell_keys, key=cell_sort_key):
        if rng.random() < 0.7:
            if ints:
                table[cell] = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
            else:
                table[cell] = GaussianRational(_part(rng), _part(rng))
    return ConstructibleFunction.of(space, table)


def carrier_map(rng, space, base, carrier):
    """Each subdivision vertex to a seeded corner of its carrier."""
    vertex_map = {
        w: rng.choice(canonical_tuple(carrier[frozenset([w])]))
        for w in space.vertices
    }
    return SimplicialMap.build(space, base, vertex_map)


def assert_same_value(actual, expected):
    assert actual == expected
    assert type(actual.re) is type(expected.re) is Fraction
    assert type(actual.im) is type(expected.im) is Fraction
    assert str(actual) == str(expected)
    assert actual.to_json() == expected.to_json()


def assert_same_table(actual: dict, expected: dict):
    assert list(actual) == list(expected)
    for key, value in expected.items():
        assert_same_value(actual[key], value)


def assert_calculus_like_loops(phi, g, ell):
    assert_same_value(euler_integral(phi), oracles.euler_integral_loop(phi))
    pushed = pushforward(g, phi)
    assert_same_table(pushed.values, oracles.pushforward_loop(g, phi).values)
    assert pushed.parent == g.target
    table = cc_table(phi, ell)
    assert_same_table(table.entries, oracles.cc_table_loop(phi, ell).entries)
    assert_same_value(table.total(), oracles.euler_integral_loop(phi))
    assert_same_value(index_sum(phi, ell), oracles.euler_integral_loop(phi))
    if len(phi.parent.vertices) <= 100:
        for v, entry in table.entries.items():
            assert_same_value(morse_multiplicity(phi, ell, v), entry)


@pytest.mark.parametrize("ints", [False, True], ids=["fractions", "int-parts"])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_calculus_matches_the_one_add_at_a_time_loops(name, ints):
    make, level = SPACES[name]
    base = make()
    space, carrier = subdivided_complex(base, level)
    rng = random.Random(f"summation:{name}:{ints}")
    phi = seeded_function(rng, space, ints)
    g = carrier_map(rng, space, base, carrier)
    assert_calculus_like_loops(phi, g, random_functional(rng, space))


@pytest.mark.parametrize("ints", [False, True], ids=["fractions", "int-parts"])
def test_pushforward_matches_the_loop_on_seeded_maps(ints):
    rng = random.Random(f"summation:maps:{ints}")
    images = set()
    for _ in range(100):
        g = random_map_between(rng)
        phi = seeded_function(rng, g.source, ints)
        pushed = pushforward(g, phi)
        assert pushed.parent == g.target
        assert_same_table(pushed.values, oracles.pushforward_loop(g, phi).values)
        images.add(len(pushed.values))
    assert len(images) > 5


def test_an_image_whose_terms_cancel_is_dropped():
    base = fx.disk()
    space, carrier = subdivided_complex(base, 1)
    rng = random.Random("summation:cancel")
    phi = seeded_function(rng, space)
    g = carrier_map(rng, space, base, carrier)
    before = oracles.pushforward_loop(g, phi).values
    table = dict(phi.values)
    for image in list(before)[:3]:
        # move one cell over `image` so that its fibre sums to exactly zero
        cell = next(c for c in table if g.image_simplex(c) == image)
        weight = (-1) ** (len(cell) - len(image))
        table[cell] = table[cell] - before[image] * weight
        if table[cell].is_zero():
            del table[cell]
    cancelled = ConstructibleFunction(space, table)
    pushed = pushforward(g, cancelled).values
    assert not set(list(before)[:3]) & set(pushed)
    assert list(pushed) == list(before)[3:]
    assert_calculus_like_loops(cancelled, g, random_functional(rng, space))


def test_collapsing_an_integral_of_zero_leaves_the_empty_function():
    space, _ = subdivided_complex(fx.disk(), 1)
    point = fx.point_complex()
    rng = random.Random("summation:collapse")
    phi = seeded_function(rng, space)
    g = SimplicialMap.build(space, point, {v: "p" for v in space.vertices})
    table = dict(phi.values)
    vertex = frozenset([space.vertices[0]])
    table[vertex] = table.get(vertex, GZERO) - oracles.euler_integral_loop(phi)
    zero = ConstructibleFunction.of(space, table)
    assert euler_integral(zero) == GZERO
    assert pushforward(g, zero).values == oracles.pushforward_loop(g, zero).values == {}


def test_the_empty_function():
    base = fx.sphere2()
    space, carrier = subdivided_complex(base, 1)
    rng = random.Random("summation:empty")
    empty = ConstructibleFunction(space, {})
    assert_calculus_like_loops(
        empty, carrier_map(rng, space, base, carrier), random_functional(rng, space)
    )
    assert_same_value(euler_integral(empty), GZERO)


def _outcome(call):
    try:
        return "returned", call()
    except GenericityError as exc:
        return str(exc), exc.edges


@pytest.mark.parametrize("level", [1, 2])
def test_tied_edges_are_found_and_refused_like_the_sorted_scan(level):
    space, _ = subdivided_complex(fx.disk(), level)
    rng = random.Random(f"summation:ties:{level}")
    heights = list(range(len(space.vertices) // 2)) * 2 + [-1]
    rng.shuffle(heights)
    ell = VertexFunctional.of(space, dict(zip(space.vertices, heights)))
    ties = genericity_check(space, ell)
    assert ties and ties == oracles.genericity_check_by_k_cells(space, ell)
    phi = seeded_function(rng, space)
    refused = _outcome(lambda: cc_table(phi, ell))
    assert refused[0] != "returned"
    assert refused == _outcome(lambda: oracles.cc_table_loop(phi, ell))
    tied = ties[0][0]
    assert _outcome(lambda: morse_multiplicity(phi, ell, tied)) == (
        f"functional is degenerate on edges {[e for e in ties if tied in e][:4]}",
        tuple(e for e in ties if tied in e),
    )


def test_a_tie_between_vertices_without_an_edge_is_accepted():
    # v0 and v3 are opposite corners of the hexagon; v1 and v5 are both
    # neighbours of v0, not of each other
    space = fx.hexagon()
    heights = {"v0": 4, "v1": 2, "v2": 0, "v3": 4, "v4": 1, "v5": 2}
    ell = VertexFunctional.of(space, heights)
    assert genericity_check(space, ell) == []
    phi = seeded_function(random.Random("summation:apart"), space)
    assert_same_table(cc_table(phi, ell).entries, oracles.cc_table_loop(phi, ell).entries)


def test_only_the_tied_edges_are_refused():
    # v0 = v1 ties an edge; v2 = v4 and v3 = v5 tie vertices that share none
    space = fx.hexagon()
    heights = {"v0": 7, "v1": 7, "v2": 3, "v3": 5, "v4": 3, "v5": 5}
    ell = VertexFunctional.of(space, heights)
    phi = seeded_function(random.Random("summation:edge"), space)
    refused = _outcome(lambda: cc_table(phi, ell))
    assert refused == _outcome(lambda: oracles.cc_table_loop(phi, ell))
    assert refused == ("functional is degenerate on edges [('v0', 'v1')]", (("v0", "v1"),))


def test_a_tie_inside_a_simplex_is_broken_by_vertex_key():
    # a triangle listed without its edge {2, 10}: the tie between 2 and 10
    # is no tied edge, and the triangle's top is the later vertex in
    # vertex_key order, 10, although "10" sorts before "2" as text
    space = SimplicialComplex.build(
        ["m", 10, 2],
        [{2}, {10}, {"m"}, {2, "m"}, {10, "m"}, {2, 10, "m"}],
    )
    ell = VertexFunctional.of(space, {2: 1, 10: 1, "m": 0})
    phi = ConstructibleFunction.indicator(space)
    table = cc_table(phi, ell)
    assert_same_table(table.entries, oracles.cc_table_loop(phi, ell).entries)
    assert table.entries[10] == GaussianRational.of(1)
    assert table.entries[2] == GaussianRational.of(0)


def test_a_functional_missing_vertices_is_refused_in_vertex_order():
    partial = VertexFunctional({"v0": 0, "v1": 1, "v2": 2})
    phi = ConstructibleFunction.indicator(fx.hexagon())
    message = r"functional undefined on vertices \['v3', 'v4', 'v5'\]"
    with pytest.raises(DegenerateInputError, match=message):
        genericity_check(fx.hexagon(), partial)
    with pytest.raises(DegenerateInputError, match=message):
        cc_table(phi, partial)


parts = st.one_of(
    st.integers(-(10 ** 6), 10 ** 6),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=2 ** 72),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-1, 1]), st.builds(GaussianRational, parts, parts)
        ),
        max_size=40,
    )
)
def test_signed_sum_equals_the_term_by_term_fold(terms):
    folded = reduce(lambda acc, term: acc + term[1] * term[0], terms, GZERO)
    assert_same_value(signed_sum(terms), folded)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.sampled_from([-1, 1]),
            st.builds(GaussianRational, parts, parts),
        ),
        max_size=40,
    )
)
def test_signed_sums_equal_one_term_by_term_fold_per_group(terms):
    sums = signed_sums(5, terms)
    assert len(sums) == 5
    for group, total in enumerate(sums):
        folded = reduce(
            lambda acc, term: acc + term[2] * term[1] if term[0] == group else acc,
            terms,
            GZERO,
        )
        assert_same_value(total, folded)


@st.composite
def grouped_terms(draw):
    """(index, sign, value) triples over five groups, some of them followed
    by their negatives so that their groups sum to zero."""
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([-1, 1]),
                st.builds(GaussianRational, parts, parts),
            ),
            max_size=40,
        )
    )
    cancelled = draw(st.sets(st.integers(0, 4)))
    return terms + [(i, -sign, value) for i, sign, value in terms if i in cancelled]


@settings(max_examples=200, deadline=None)
@given(grouped_terms())
def test_signed_sums_equal_the_part_by_part_fold(terms):
    expected_sums = oracles.signed_sums_by_part(5, terms)
    for group, (total, expected) in enumerate(zip(signed_sums(5, terms), expected_sums)):
        assert_same_value(total, expected)
        nonzero = any(i == group and not value.is_zero() for i, _, value in terms)
        assert (total is GZERO) == (expected is GZERO) == (not nonzero)

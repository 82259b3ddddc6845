"""Multiplicity tables, the index theorem, and regime-signed cycle tables.

Frozen low-dimensional tables were computed by hand.  For the constant
function 1 the lower-link formula in oracles.py gives an independent
value of every multiplicity.
"""

import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lefscalc.fixtures as fx
import oracles
from lefscalc.complexes import (
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    subdivided_complex,
)
from lefscalc.errors import (
    CellSpaceUnsupportedError,
    DegenerateInputError,
    GenericityError,
    NoApplicableRegimeError,
    NotHyperbolicError,
)
from lefscalc.euler import ConstructibleFunction, combine, euler_integral
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.fixedpoint import (
    NormalData,
    TracedProblem,
    hyperbolicity_report,
    localization_report,
    signed_local_contribution,
)
from lefscalc.morse import (
    REGIME_COMPLEX_ANALYTIC,
    REGIME_SIGNED,
    REGIME_SPECTRUM_BELOW_ONE,
    VertexFunctional,
    cc_table,
    genericity_check,
    index_sum,
    lefschetz_cycle_table,
    microlocal_index,
    morse_multiplicity,
)
from lefscalc.verify import random_complex, random_function, random_functional


def g(x):
    return GaussianRational.of(x)


def enumeration_functional(space):
    """Injective heights by vertex order; generic on any complex."""
    table = {v: i for i, v in enumerate(space.vertices)}
    return VertexFunctional.of(space, table)


# ---------------------------------------------------------------------------
# functionals and genericity


def test_functional_requires_totality():
    space = fx.interval_complex()
    with pytest.raises(DegenerateInputError):
        VertexFunctional.of(space, {"a": 0})


def test_functional_values_and_negation():
    space = fx.interval_complex()
    ell = VertexFunctional.of(space, {"a": "1/2", "b": 3})
    assert ell("a") == Fraction(1, 2)
    assert ell.negated()("b") == -3


def test_genericity_check_reports_tied_edges():
    space = fx.interval_complex()
    ell = VertexFunctional.of(space, {"a": 1, "b": 1})
    assert genericity_check(space, ell) == [("a", "b")]
    ok = fx.interval_functional(increasing=True)
    assert genericity_check(space, ok) == []


def test_cc_table_rejects_ties_with_edge_payload():
    space = fx.interval_complex()
    ell = VertexFunctional.of(space, {"a": 2, "b": 2})
    phi = ConstructibleFunction.indicator(space)
    with pytest.raises(GenericityError) as info:
        cc_table(phi, ell)
    assert tuple(info.value.edges) == (("a", "b"),)


@pytest.mark.parametrize("vertex", ["zz", ["a"]])
def test_multiplicity_refuses_a_vertex_the_space_does_not_have(vertex):
    space = fx.interval_complex()
    ell = VertexFunctional.of(space, {"a": 0, "b": 1})
    phi = ConstructibleFunction.indicator(space)
    word = "unknown" if isinstance(vertex, str) else "invalid"  # a list is no vertex
    refusal = re.escape(f"{word} vertex {vertex!r}")
    with pytest.raises(DegenerateInputError, match=refusal):
        morse_multiplicity(phi, ell, vertex)


def test_tie_away_from_vertex_is_harmless_locally():
    # path a - b - c with the tie on the far edge
    space = SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
    ell = VertexFunctional.of(space, {"a": 0, "b": 1, "c": 1})
    phi = ConstructibleFunction.indicator(space)
    assert morse_multiplicity(phi, ell, "a") == g(1)
    with pytest.raises(GenericityError):
        morse_multiplicity(phi, ell, "b")
    with pytest.raises(GenericityError):
        cc_table(phi, ell)


def test_multiplicity_at_one_vertex_matches_the_table_on_seeded_complexes():
    rng = random.Random("morse-one-vertex")
    for _ in range(80):
        space = random_complex(rng, max_vertices=7, max_dim=3, max_simplices=35)
        phi = random_function(rng, space)
        ell = random_functional(rng, space)
        entries = cc_table(phi, ell).entries
        for v in space.vertices:
            assert morse_multiplicity(phi, ell, v) == entries[v]


def test_a_seeded_tie_refuses_only_at_its_ends():
    # one tied edge a - b: cc_table refuses, both ends refuse with the same
    # text and edges, and every other vertex answers as under heights that
    # lift b just above a
    rng = random.Random("morse-one-tie")
    answered = 0
    for _ in range(40):
        space = random_complex(rng, max_vertices=7, max_dim=3, max_simplices=35)
        if not space.k_cells(1):
            continue
        a, b = canonical_tuple(rng.choice(space.k_cells(1)))
        heights = dict(random_functional(rng, space).values)
        heights[b] = heights[a]
        ell = VertexFunctional.of(space, heights)
        lifted = VertexFunctional.of(space, {**heights, b: heights[a] + Fraction(1, 10 ** 3)})
        phi = random_function(rng, space)
        with pytest.raises(GenericityError) as refused:
            cc_table(phi, ell)
        assert tuple(refused.value.edges) == ((a, b),)
        for end in (a, b):
            with pytest.raises(GenericityError) as info:
                morse_multiplicity(phi, ell, end)
            assert str(info.value) == str(refused.value)
            assert tuple(info.value.edges) == ((a, b),)
        entries = cc_table(phi, lifted).entries
        for v in space.vertices:
            if v not in (a, b):
                assert morse_multiplicity(phi, ell, v) == entries[v]
                answered += 1
    assert answered >= 40


def test_simplicial_input_required():
    space = fx.cp1_cellspace()
    phi = ConstructibleFunction.indicator(space)
    ell = VertexFunctional({})
    with pytest.raises(CellSpaceUnsupportedError):
        cc_table(phi, ell)
    with pytest.raises(CellSpaceUnsupportedError):
        morse_multiplicity(phi, ell, "pt")


# ---------------------------------------------------------------------------
# frozen tables


def test_interval_tables_frozen():
    space = fx.interval_complex()
    phi = ConstructibleFunction.indicator(space)
    up = cc_table(phi, fx.interval_functional(increasing=True))
    assert up.entries == {"a": g(1), "b": g(0)}
    down = cc_table(phi, fx.interval_functional(increasing=False))
    assert down.entries == {"a": g(0), "b": g(1)}
    assert up.total() == down.total() == g(1)


def test_hexagon_table_frozen():
    space = fx.hexagon()
    phi = ConstructibleFunction.indicator(space)
    ell = VertexFunctional.of(space, {f"v{i}": i for i in range(6)})
    table = cc_table(phi, ell)
    expected = {f"v{i}": g(0) for i in range(6)}
    expected["v0"] = g(1)   # the minimum
    expected["v5"] = g(-1)  # the maximum of a circle
    assert table.entries == expected
    assert table.total() == g(0)


def test_table_lists_every_vertex():
    space = fx.disk()
    phi = ConstructibleFunction.of(space, {frozenset({"c"}): 5})
    table = cc_table(phi, enumeration_functional(space))
    assert set(table.entries) == set(space.vertices)
    names = [v for v, _ in table.sorted_entries()]
    assert names == sorted(names)


@pytest.mark.parametrize("make", [
    fx.point_complex, fx.interval_complex, fx.hexagon, fx.twelve_gon, fx.disk,
    fx.sphere2, lambda: subdivided_complex(fx.disk(), 2)[0],
    lambda: subdivided_complex(fx.sphere2(), 1)[0],
])
def test_sorted_entries_are_the_entries_sorted_by_vertex_key(make):
    space = make()
    table = cc_table(ConstructibleFunction.indicator(space), enumeration_functional(space))
    assert table.sorted_entries() == oracles.sorted_entries_by_key(table)
    scaled = table.scaled(-1)
    assert scaled.sorted_entries() == oracles.sorted_entries_by_key(scaled)


def test_sorted_entries_of_seeded_tables_and_cycle_tables():
    rng = random.Random("sorted-entries")
    for _ in range(50):
        space = random_complex(rng)
        if rng.random() < 0.3:
            space = subdivided_complex(space, 1)[0]
        table = cc_table(random_function(rng, space), random_functional(rng, space))
        assert table.sorted_entries() == oracles.sorted_entries_by_key(table)
    cases = [
        (fx.doubling_problem(), [0], hexagon_heights()),
        (fx.reflection_problem(), [0, 1], hexagon_heights()),
        (fx.identity_problem(fx.sphere2()), [0], enumeration_functional(fx.sphere2())),
    ]
    for p, indices, ell in cases:
        for index in indices:
            table = lefschetz_cycle_table(p, index, ell).table
            assert table.sorted_entries() == oracles.sorted_entries_by_key(table)


def test_scaled_table():
    space = fx.interval_complex()
    phi = ConstructibleFunction.indicator(space)
    table = cc_table(phi, fx.interval_functional(increasing=True))
    doubled = table.scaled(2)
    assert doubled.entries["a"] == g(2)
    assert doubled.total() == g(2)
    half = table.scaled(Fraction(1, 2))
    assert half.total() == g(Fraction(1, 2))


# ---------------------------------------------------------------------------
# the lower-link oracle for phi = 1


@pytest.mark.parametrize(
    "make",
    [fx.interval_complex, fx.hexagon, fx.twelve_gon, fx.disk, fx.sphere2],
)
def test_lower_link_oracle_on_fixtures(make):
    space = make()
    ell = enumeration_functional(space)
    phi = ConstructibleFunction.indicator(space)
    table = cc_table(phi, ell)
    for v in space.vertices:
        expected = g(oracles.lower_link_multiplicity(space, ell, v))
        assert morse_multiplicity(phi, ell, v) == expected
        assert table.entries[v] == expected


def test_lower_link_oracle_on_random_complexes():
    rng = random.Random("morse-oracle")
    for _ in range(60):
        space = random_complex(rng, max_vertices=6, max_dim=3, max_simplices=30)
        ell = random_functional(rng, space)
        phi = ConstructibleFunction.indicator(space)
        for v in space.vertices:
            assert morse_multiplicity(phi, ell, v) == g(
                oracles.lower_link_multiplicity(space, ell, v)
            )


# ---------------------------------------------------------------------------
# the index theorem


def test_index_sum_equals_integral_random():
    rng = random.Random("morse-index")
    for _ in range(120):
        space = random_complex(rng, max_vertices=7, max_dim=3, max_simplices=35)
        phi = random_function(rng, space)
        ell = random_functional(rng, space)
        assert index_sum(phi, ell) == euler_integral(phi)


def test_index_sum_independent_of_functional():
    rng = random.Random("morse-ell-free")
    for _ in range(25):
        space = random_complex(rng, max_vertices=6, max_dim=3, max_simplices=30)
        phi = random_function(rng, space)
        totals = {
            index_sum(phi, random_functional(rng, space)) for _ in range(5)
        }
        assert len(totals) == 1


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_index_theorem_property(seed):
    rng = random.Random(f"hyp-morse:{seed}")
    space = random_complex(rng, max_vertices=6, max_dim=3, max_simplices=25)
    phi = random_function(rng, space)
    ell = random_functional(rng, space)
    assert index_sum(phi, ell) == euler_integral(phi)
    assert index_sum(phi, ell.negated()) == euler_integral(phi)


def test_cc_table_is_linear():
    rng = random.Random("morse-linear")
    for _ in range(50):
        space = random_complex(rng, max_vertices=6, max_dim=3, max_simplices=30)
        ell = random_functional(rng, space)
        phi = random_function(rng, space)
        psi = random_function(rng, space)
        a, b = g("2/3"), GaussianRational(Fraction(0), Fraction(1))
        lhs = cc_table(combine(a, phi, b, psi), ell).entries
        ta = cc_table(phi, ell).entries
        tb = cc_table(psi, ell).entries
        for v in space.vertices:
            assert lhs.get(v, g(0)) == a * ta[v] + b * tb[v]


# ---------------------------------------------------------------------------
# the table on integer heights against the routes it replaced: a sort of
# Fraction heights with one signed_sum per star, and one Gaussian add at a
# time


def _primes_20(count):
    """The first `count` primes past 2**19; each is below 2**20, so trial
    division by the primes below 2**10 decides it."""
    small = [d for d in range(2, 1 << 10) if all(d % e for e in range(2, d))]
    out, p = [], 1 << 19
    while len(out) < count:
        p += 1
        if all(p % d for d in small):
            out.append(p)
    assert p < 1 << 20
    return tuple(out)


# distinct 20-bit primes, enough for every vertex and part of sd^2(disk),
# and the Mersenne primes of 521 and 607 bits, whose heights scale to ints
# of over a thousand bits
PRIMES_20 = _primes_20(1500)
HUGE_PRIMES = (2 ** 521 - 1, 2 ** 607 - 1)
HEIGHT_KINDS = ("small", "ints", "primes", "huge")
VALUE_KINDS = ("small", "int-parts", "primes", "cancel", "empty")


def _heights(rng, space, kind, primes):
    n = len(space.vertices)
    nums = rng.sample(range(-40 * n - 1, 40 * n + 2), n)
    if kind == "ints":
        return dict(zip(space.vertices, nums))  # int heights, not Fractions
    if kind == "small":
        dens = [rng.randint(1, 12) for _ in nums]
    elif kind == "primes":
        dens = [next(primes) for _ in nums]
    else:
        dens = [rng.choice(HUGE_PRIMES) for _ in nums]
    return {v: Fraction(x, d) for v, x, d in zip(space.vertices, nums, dens)}


def _function(rng, space, kind, primes, ell):
    if kind == "empty":
        return ConstructibleFunction(space, {})
    table = {}
    for cell in sorted(space.simplices, key=cell_sort_key):
        if rng.random() < 0.7:
            if kind == "int-parts":
                value = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
            elif kind == "primes":
                value = GaussianRational(
                    Fraction(rng.randint(-99, 99), next(primes)),
                    Fraction(rng.randint(-99, 99), next(primes)),
                )
            else:
                value = GaussianRational(
                    Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                )
            if not value.is_zero():
                table[cell] = value
    if kind == "cancel" and not genericity_check(space, ell):
        # the vertex cell {v} is in v's lower star with sign +1: taking the
        # star's sum off it makes the star cancel to zero
        entries = oracles.cc_table_loop(ConstructibleFunction(space, table), ell).entries
        for v in rng.sample(space.vertices, (len(space.vertices) + 1) // 2):
            vertex = frozenset([v])
            value = table.get(vertex, GaussianRational()) - entries[v]
            if value.is_zero():
                table.pop(vertex, None)
            else:
                table[vertex] = value
    return ConstructibleFunction(space, table)


def _table_outcome(table_of, phi, ell):
    try:
        entries = table_of(phi, ell).entries
    except GenericityError as exc:
        return str(exc), exc.edges
    for value in entries.values():
        assert type(value.re) is type(value.im) is Fraction
    return "returned", [(v, str(x), x.to_json()) for v, x in entries.items()]


def assert_table_like_the_oracles(phi, ell):
    outcome = _table_outcome(cc_table, phi, ell)
    assert outcome == _table_outcome(oracles.cc_table_by_fraction_sort, phi, ell)
    assert outcome == _table_outcome(oracles.cc_table_loop, phi, ell)
    if outcome[0] == "returned":
        assert [v for v, _, _ in outcome[1]] == list(phi.parent.vertices)
    return outcome


@given(
    seed=st.integers(0, 10 ** 6),
    heights=st.sampled_from(HEIGHT_KINDS),
    values=st.sampled_from(VALUE_KINDS),
    tie=st.booleans(),
)
@example(seed=0, heights="primes", values="primes", tie=False)
@example(seed=1, heights="huge", values="cancel", tie=False)
@example(seed=2, heights="ints", values="int-parts", tie=True)
@settings(max_examples=120, deadline=None)
def test_cc_table_matches_the_fraction_sort_and_the_loop(seed, heights, values, tie):
    rng = random.Random(f"morse-differential:{seed}")
    primes = iter(PRIMES_20)
    space = random_complex(rng, max_vertices=7, max_dim=3, max_simplices=35)
    table = _heights(rng, space, heights, primes)
    edges = space.k_cells(1)
    if tie and edges:
        a, b = canonical_tuple(rng.choice(edges))
        table[b] = table[a]
    ell = VertexFunctional(table)
    phi = _function(rng, space, values, primes, ell)
    outcome = assert_table_like_the_oracles(phi, ell)
    if tie and edges:
        assert outcome[0].startswith("functional is degenerate on edges")
        assert (a, b) in outcome[1]


def test_distinct_prime_denominators_on_sd2_disk():
    # every height and every part over its own 20-bit prime: the heights
    # scale to ints of thousands of bits, while each star still folds over
    # its own few denominators
    space = subdivided_complex(fx.disk(), 2)[0]
    rng = random.Random("morse-distinct-primes")
    primes = iter(PRIMES_20)
    heights = _heights(rng, space, "primes", primes)
    scale = lcm(*(x.denominator for x in heights.values()))
    assert scale.bit_length() > 1000
    ell = VertexFunctional(heights)
    phi = _function(rng, space, "primes", primes, ell)
    outcome = assert_table_like_the_oracles(phi, ell)
    assert outcome[0] == "returned"
    assert index_sum(phi, ell) == euler_integral(phi)


# ---------------------------------------------------------------------------
# cycle tables of traced problems


def hexagon_heights():
    return VertexFunctional.of(fx.hexagon(), {f"v{i}": i for i in range(6)})


def test_cycle_table_doubling_is_signed():
    p = fx.doubling_problem()
    rep = lefschetz_cycle_table(p, 0, hexagon_heights())
    assert rep.regime == REGIME_SIGNED
    assert rep.sign == -1
    assert rep.table.entries == {"v0": g(-1)}
    assert rep.total() == signed_local_contribution(p, 0) == g(-1)


def test_cycle_table_reflection_below_one():
    p = fx.reflection_problem()
    for index in (0, 1):
        rep = lefschetz_cycle_table(p, index, hexagon_heights())
        assert rep.regime == REGIME_SPECTRUM_BELOW_ONE
        assert rep.sign == 1
        assert rep.total() == g(1) == signed_local_contribution(p, index)


def test_cycle_table_identity_sphere():
    space = fx.sphere2()
    p = fx.identity_problem(space)
    ell = enumeration_functional(space)
    rep = lefschetz_cycle_table(p, 0, ell)
    assert rep.regime == REGIME_SPECTRUM_BELOW_ONE
    assert rep.total() == g(2) == signed_local_contribution(p, 0)


def test_cycle_table_complex_model():
    # realified multiplication by 2: spectrum meets [1, oo) but
    # det(I - A) = 1 > 0, so the signed value agrees with the table
    base = fx.doubling_problem()
    p = TracedProblem(
        spec=base.spec,
        normal=NormalData.of({0: [[2, 0], [0, 2]]}),
        complex_model=True,
    )
    rep = lefschetz_cycle_table(p, 0, hexagon_heights())
    assert rep.regime == REGIME_COMPLEX_ANALYTIC
    assert rep.sign == 1
    assert rep.total() == g(1) == signed_local_contribution(p, 0)


def test_cycle_table_refuses_unjustified_regime():
    base = fx.doubling_problem()
    bare = TracedProblem(spec=base.spec, normal=base.normal)
    with pytest.raises(NoApplicableRegimeError):
        lefschetz_cycle_table(bare, 0, hexagon_heights())


def test_cycle_table_requires_hyperbolicity():
    base = fx.doubling_problem()
    p = TracedProblem(
        spec=base.spec,
        normal=NormalData.of({0: [[1]]}),
        non_characteristic=True,
    )
    with pytest.raises(NotHyperbolicError):
        lefschetz_cycle_table(p, 0, hexagon_heights())


def test_det_zero_refusal_reads_alike_on_every_route():
    p = TracedProblem(
        spec=fx.doubling_spec(),
        normal=NormalData.of({0: [[1]]}),
        non_characteristic=True,
    )
    routes = (
        lambda: localization_report(p),
        lambda: signed_local_contribution(p, 0),
        lambda: lefschetz_cycle_table(p, 0, hexagon_heights()),
    )
    for route in routes:
        with pytest.raises(NotHyperbolicError) as info:
            route()
        assert str(info.value) == (
            "det(I - A) = 0 on component 0; the signed term is undefined"
        )


def test_cycle_table_refuses_the_sign_and_regime_before_the_traces():
    # v1 is not fixed, so this traces table is refused once it is read
    bad_traces = {("v1",): 2}
    cases = (([[1]], True, NotHyperbolicError), ([[2]], False, NoApplicableRegimeError))
    for normal, asserted, error in cases:
        p = TracedProblem(
            spec=fx.doubling_spec(),
            normal=NormalData.of({0: normal}),
            traces=bad_traces,
            non_characteristic=asserted,
        )
        with pytest.raises(error):
            lefschetz_cycle_table(p, 0, hexagon_heights())
        with pytest.raises(DegenerateInputError, match="not fixed"):
            p.local_trace


def _hyperbolic_matrix(rng):
    while True:
        n = rng.randint(1, 3)
        m = RationalMatrix.of(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        )
        if oracles.det_cofactor(oracles.add(RationalMatrix.identity(n), m, -1)):
            return m


@pytest.mark.parametrize("complex_model", [False, True])
def test_cycle_table_sign_is_the_hyperbolicity_sign(complex_model):
    # the table takes sgn det(I - A) in every regime; a complex model whose
    # det(I - A) is negative is refused whatever else is asserted
    rng = random.Random(f"morse-sign:{complex_model}")
    signs = []
    for _ in range(40):
        p = TracedProblem(
            spec=fx.reflection_spec(),
            normal=NormalData.of({i: _hyperbolic_matrix(rng) for i in range(2)}),
            complex_model=complex_model,
            non_characteristic=True,
        )
        for row in hyperbolicity_report(p):
            index = row["component"]
            if complex_model and row["sign"] < 0:
                with pytest.raises(NoApplicableRegimeError, match=r"det\(I - A\) < 0"):
                    lefschetz_cycle_table(p, index, hexagon_heights())
                continue
            rep = lefschetz_cycle_table(p, index, hexagon_heights())
            assert rep.sign == row["sign"]
            assert rep.total() == signed_local_contribution(p, index)
            signs.append(rep.sign)
    assert set(signs) == ({1} if complex_model else {-1, 1})


def test_cycle_table_component_index_range():
    p = fx.reflection_problem()
    with pytest.raises(DegenerateInputError):
        lefschetz_cycle_table(p, 5, hexagon_heights())


def test_microlocal_index_matches_signed_contribution():
    cases = [
        (fx.doubling_problem(), [0], hexagon_heights()),
        (fx.reflection_problem(), [0, 1], hexagon_heights()),
        (
            fx.identity_problem(fx.sphere2()),
            [0],
            enumeration_functional(fx.sphere2()),
        ),
    ]
    for p, indices, ell in cases:
        for index in indices:
            assert microlocal_index(p, index, ell) == signed_local_contribution(
                p, index
            )

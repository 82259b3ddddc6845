"""Chain complexes, homology traces, and subdivision invariance."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lefscalc import complexes, homology
from lefscalc import fixtures as fx
from lefscalc.complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    canonical_tuple,
    sd_positions,
)
from lefscalc.errors import DegenerateInputError, NonSimplicialMapError
from lefscalc.euler import ConstructibleFunction, euler_integral, pushforward_spec
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.homology import (
    ChainMapQ,
    SparseMatrix,
    _build_chain_map,
    betti,
    chain_complex,
    euler_characteristic,
    hopf_trace,
    homology_trace,
    homology_traces,
    lefschetz_number,
    relative_betti,
    relative_lefschetz_number,
    self_map_endomorphism,
)
from lefscalc.maps import SelfMapSpec, SimplicialMap, compose, refine, subdivided_complex
from lefscalc.verify import random_complex, random_self_map


def test_betti_of_fixtures():
    assert betti(chain_complex(fx.point_complex())) == [1]
    assert betti(chain_complex(fx.interval_complex())) == [1, 0]
    assert betti(chain_complex(fx.hexagon())) == [1, 1]
    assert betti(chain_complex(fx.twelve_gon())) == [1, 1]
    assert betti(chain_complex(fx.disk())) == [1, 0, 0]
    assert betti(chain_complex(fx.sphere2())) == [1, 0, 1]


def test_relative_betti_disk_mod_boundary():
    space = fx.disk()
    boundary = fx.disk_boundary_cells()
    assert relative_betti(space, boundary) == [0, 0, 1]


def test_euler_characteristic_matches_betti():
    for build in (fx.point_complex, fx.interval_complex, fx.hexagon,
                  fx.disk, fx.sphere2):
        space = build()
        bs = betti(chain_complex(space))
        assert euler_characteristic(space) == sum(
            (-1) ** k * b for k, b in enumerate(bs)
        )


def test_identity_lefschetz_equals_chi():
    for build in (fx.point_complex, fx.interval_complex, fx.hexagon,
                  fx.disk, fx.sphere2):
        space = build()
        spec = SelfMapSpec.identity(space)
        assert lefschetz_number(spec) == euler_characteristic(space)


def test_fixture_lefschetz_numbers():
    assert lefschetz_number(fx.rotation_spec()) == 0
    assert lefschetz_number(fx.reflection_spec()) == 2
    assert lefschetz_number(fx.doubling_spec()) == -1


def test_doubling_degree_on_top_homology():
    endo = self_map_endomorphism(fx.doubling_spec())
    assert homology_trace(endo, 0) == 1
    assert homology_trace(endo, 1) == 2  # degree two on the circle


def test_hopf_equals_homology_random():
    rng = random.Random(11)
    for _ in range(60):
        space = random_complex(rng)
        spec = random_self_map(rng, space)
        assert hopf_trace(spec) == sum(
            Fraction(-1) ** k * t for k, t in enumerate(homology_traces(spec))
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_hopf_equals_homology_property(seed):
    rng = random.Random(seed)
    space = random_complex(rng, max_vertices=6, max_dim=2, max_simplices=25)
    spec = random_self_map(rng, space)
    assert hopf_trace(spec) == lefschetz_number(spec)


def test_chain_map_functoriality():
    # (h o g)_* = h_* o g_* on chains
    g = fx.square_projection()
    h = SimplicialMap.build(
        g.target, fx.point_complex(), {"a": "p", "b": "p"}
    )
    composed = oracles.dense_chain_map_of(compose(h, g))
    stacked = oracles.dense_compose(
        oracles.dense_chain_map_of(h), oracles.dense_chain_map_of(g)
    )
    for k in range(len(composed.source.bases)):
        assert composed.degree_matrix(k).rows == stacked.degree_matrix(k).rows


def test_subdivision_preserves_betti():
    for build in (fx.hexagon, fx.disk, fx.sphere2):
        space = build()
        finer, _ = barycentric_subdivide(space)
        assert betti(chain_complex(finer)) == betti(chain_complex(space))


def test_subdivision_chain_map_is_quasi_iso_on_edge():
    space = fx.interval_complex()
    sd_map = oracles.dense_subdivision_chain_map(space)
    # the subdivided edge [a,b] maps to [(a,), m] - [(b,), m] style chains;
    # total degree-1 coefficient mass over the two halves is +-1 each
    m1 = sd_map.degree_matrix(1)
    assert sorted(x for row in m1.rows for x in row) == [Fraction(-1), Fraction(1)]


def test_refine_preserves_lefschetz_and_fixed_count():
    spec = fx.doubling_spec()
    finer = refine(spec)
    assert finer.base.vertices != spec.base.vertices
    assert lefschetz_number(finer) == lefschetz_number(spec) == -1
    spec2 = fx.reflection_spec()
    finer2 = refine(spec2)
    assert lefschetz_number(finer2) == 2


def test_identity_refines_to_identity():
    spec = SelfMapSpec.identity(fx.hexagon())
    finer = refine(spec)
    assert lefschetz_number(finer) == 0
    assert finer.level == spec.level


@pytest.mark.parametrize(
    "make",
    [fx.reflection_spec, fx.doubling_spec, lambda: refine(fx.doubling_spec())],
    ids=["reflection", "doubling", "doubling-refined"],
)
def test_refine_names_vertices_by_the_refined_complexes_own_objects(make):
    spec = make()
    finer = refine(spec)
    assert finer.base is subdivided_complex(spec.base, 1)[0]
    source = finer.source_complex()
    sources = {id(v) for v in source.vertices}
    targets = {id(v) for v in finer.base.vertices}
    assert len(finer.vertex_map) == len(source.vertices)
    assert all(id(v) in sources for v in finer.vertex_map)
    assert all(id(v) in targets for v in finer.vertex_map.values())


def test_a_vertex_map_names_only_the_source_vertices():
    hexagon = fx.hexagon()
    vm = {**{v: v for v in hexagon.vertices}, "zz": "v0", ("v1",): "v1"}
    refusal = re.escape("keys outside source: ['zz', ('v1',)]")
    with pytest.raises(NonSimplicialMapError, match=refusal):
        SimplicialMap.build(hexagon, hexagon, vm)
    with pytest.raises(NonSimplicialMapError, match=refusal):
        SelfMapSpec.build(hexagon, 0, vm)


def test_a_non_simplicial_map_is_named_by_its_first_bad_simplex():
    hexagon = fx.hexagon()
    swap = {"v3": "v4", "v4": "v3"}  # breaks the edges v2v3 and v4v5
    vm = {v: swap.get(v, v) for v in hexagon.vertices}
    refusal = re.escape("simplex ('v2', 'v3') maps onto ('v2', 'v4'), not a simplex")
    with pytest.raises(NonSimplicialMapError, match=refusal):
        SimplicialMap.build(hexagon, hexagon, vm)


def test_a_spec_is_keyed_by_the_towers_own_vertex_objects():
    spec = fx.doubling_spec()
    sources = {id(v) for v in spec.source_complex().vertices}
    assert len(spec.vertex_map) == len(sources) == 12
    assert all(id(v) in sources for v in spec.vertex_map)
    assert spec.as_map().vertex_map is spec.vertex_map


def test_trace_commutes_under_composition():
    # tr(AB) = tr(BA) realized by the two endomorphism factorizations
    spec = fx.doubling_spec()
    endo = self_map_endomorphism(spec)
    sd_map = oracles.dense_subdivision_chain_map(spec.base)
    g_map = oracles.dense_chain_map_of(spec.as_map())
    ab = oracles.dense_compose(g_map, sd_map)
    ba = oracles.dense_compose(sd_map, g_map)
    total_ab = sum(
        Fraction(-1) ** k * oracles.trace(ab.degree_matrix(k))
        for k in range(len(ab.source.bases))
    )
    total_ba = sum(
        Fraction(-1) ** k * oracles.trace(ba.degree_matrix(k))
        for k in range(len(ba.source.bases))
    )
    assert total_ab == total_ba == hopf_trace(endo)


def test_relative_lefschetz_of_disk_identity():
    space = fx.disk()
    spec = SelfMapSpec.identity(space)
    boundary = fx.disk_boundary_cells()
    # chi(disk, boundary) = 1 - 0 = 1: one relative 2-cycle
    assert relative_lefschetz_number(spec, boundary) == 1


def test_relative_requires_invariance():
    spec = fx.rotation_spec()
    # a single vertex is not invariant under the rotation
    with pytest.raises(DegenerateInputError):
        relative_lefschetz_number(spec, {frozenset({"v0"})})


def test_homology_trace_vanishes_in_empty_degree():
    spec = SelfMapSpec.identity(fx.interval_complex())
    endo = self_map_endomorphism(spec)
    assert homology_trace(endo, 1) == 0


# ---------------------------------------------------------------------------
# the sparse engine against the dense oracle


def _carrier_map(rng, space, outer, level=1):
    """A self-map at `level`: each vertex of sd^level goes to a vertex of
    its carrier, then through the vertex map `outer` of the base."""
    finer, carrier = subdivided_complex(space, level)
    return SelfMapSpec.build(space, level, {
        w: outer[rng.choice(canonical_tuple(carrier[frozenset([w])]))]
        for w in finer.vertices
    })


def _polygon_map(rng, n):
    """v_i -> v_(s i + r) on an n-gon, or z -> z^2 composed with it at
    level 1 (the midpoint of v_i v_(i+1) goes to v_(2 s i + s + r))."""
    names = [f"p{i}" for i in range(n)]
    space = SimplicialComplex.from_maximal(
        [(names[i], names[(i + 1) % n]) for i in range(n)]
    )
    s, r = rng.choice((1, -1)), rng.randrange(n)
    if rng.random() < 0.5:
        return SelfMapSpec.build(space, 0, {names[i]: names[(s * i + r) % n] for i in range(n)})
    vm = {}
    for i in range(n):
        vm[(names[i],)] = names[(2 * s * i + r) % n]
        edge = tuple(sorted((names[i], names[(i + 1) % n])))
        vm[edge] = names[(2 * s * i + s + r) % n]
    return SelfMapSpec.build(space, 1, vm)


def _power_map(rng, n, level):
    """z -> z^(2^level) on an n-gon with integer vertices, composed with
    i -> s i + r: the vertex of sd^level at t = i + x, x of the way along
    the edge from i to i + 1, goes to 2^level s t + r."""
    space = SimplicialComplex.from_maximal([(i, (i + 1) % n) for i in range(n)])
    s, r = rng.choice((1, -1)), rng.randrange(n)
    positions = sd_positions(space)
    vm = {}
    for w in subdivided_complex(space, level)[0].vertices:
        weights = positions[w]
        i = next((v for v in weights if (v + 1) % n in weights), min(weights))
        t = i + weights.get((i + 1) % n, 0)
        vm[w] = int(2 ** level * s * t + r) % n
    return SelfMapSpec.build(space, level, vm)


def _triangle_carrier_map(rng, level):
    """A carrier map of the closed triangle at `level`, relative to the
    triangle's boundary, which every carrier map preserves."""
    space = SimplicialComplex.from_maximal([("a", "b", "c")])
    spec = _carrier_map(rng, space, {v: v for v in space.vertices}, level)
    return spec, frozenset(s for s in space.simplices if len(s) < 3)


def _vertex_orbit(spec, v) -> frozenset:
    """The cells {u} for u in the forward orbit of a base vertex v that
    the map sends to base vertices: an invariant subcomplex."""
    orbit = [v]
    while True:
        w = orbit[-1]
        for _ in range(spec.level):
            w = (w,)
        image = spec.vertex_map[w]
        if image in orbit:
            return frozenset(frozenset([u]) for u in orbit)
        orbit.append(image)


def _oracle_cases():
    """Sixty seeded self-maps: random complexes and maps, level-1 carrier
    maps, automorphisms and carrier maps of S^2, and rotations,
    reflections and degree-2 maps of polygons; every second one relative
    to an invariant subcomplex.  Then deeper towers: z -> z^4 and z -> z^8
    on polygons at levels 2 and 3, and a level-2 carrier map of a triangle
    relative to its boundary."""
    rng = random.Random(20261017)
    sphere = fx.sphere2()
    for case in range(60):
        kind = case % 4
        if kind == 0:
            space = random_complex(rng)
            spec = random_self_map(rng, space)
        elif kind == 1:
            space = random_complex(rng, max_vertices=5, max_dim=2, max_simplices=14)
            spec = _carrier_map(rng, space, random_self_map(rng, space).vertex_map)
        elif kind == 2:
            images = list(sphere.vertices)
            rng.shuffle(images)
            perm = dict(zip(sphere.vertices, images))
            spec = (
                _carrier_map(rng, sphere, perm) if case % 16 == 6
                else SelfMapSpec.build(sphere, 0, perm)
            )
        else:
            spec = _polygon_map(rng, rng.randint(3, 8))
        dropped = frozenset()
        if case % 2 and kind == 0:
            # the image of a level-zero map is an invariant subcomplex
            dropped = frozenset(spec.as_map().image_simplex(s) for s in space.simplices)
        elif case % 2:
            dropped = _vertex_orbit(spec, rng.choice(spec.base.vertices))
        yield case, spec, dropped
    for case, (n, level) in enumerate(((3, 2), (5, 2), (4, 2), (6, 2), (3, 3), (4, 3)), 60):
        spec = _power_map(rng, n, level)
        yield case, spec, _vertex_orbit(spec, rng.randrange(n)) if case % 2 else frozenset()
    yield (66, *_triangle_carrier_map(rng, 2))


@pytest.mark.parametrize("case, spec, dropped", list(_oracle_cases()))
def test_sparse_engine_agrees_with_dense_oracle(case, spec, dropped):
    sparse_cc = chain_complex(spec.base, relative_to=dropped or None)
    dense_cc = oracles.dense_chain_complex(spec.base, dropped)
    assert betti(sparse_cc) == oracles.dense_betti(dense_cc)
    assert sparse_cc.bases == dense_cc.bases
    endo = self_map_endomorphism(spec, relative_to=dropped or None)
    dense_endo = oracles.dense_endomorphism(spec, dropped)
    assert len(endo.matrices) == len(endo.source.bases) == len(dense_endo.matrices)
    for k in range(len(endo.matrices)):
        assert endo.matrices[k].rows == dense_endo.degree_matrix(k).rows
    assert homology_trace(endo, -1) == homology_trace(endo, spec.base.dim + 1) == 0
    assert hopf_trace(endo) == oracles.dense_hopf_trace(dense_endo)
    assert homology_traces(endo) == [
        oracles.dense_homology_trace(dense_endo, k)
        for k in range(len(dense_endo.source.bases))
    ]


def _flip_one_sign(endo, k):
    columns = list(endo.matrices[k].columns)
    j = next(j for j, col in enumerate(columns) if col)
    row = min(columns[j])
    columns[j] = {**columns[j], row: -columns[j][row]}
    return [
        SparseMatrix(m.nrows, m.ncols, tuple(columns)) if i == k else m
        for i, m in enumerate(endo.matrices)
    ]


def test_corrupted_sign_is_refused_by_the_commutation_check():
    endo = self_map_endomorphism(fx.doubling_spec())
    corrupted = _flip_one_sign(endo, 1)
    with pytest.raises(DegenerateInputError, match="fails to commute .* degree 1"):
        _build_chain_map(endo.source, corrupted)
    dense = oracles.dense_endomorphism(fx.doubling_spec())
    flipped = [RationalMatrix(m.rows, m.ncols) for m in corrupted]
    with pytest.raises(DegenerateInputError, match="fails to commute"):
        oracles.dense_chain_map(dense.source, dense.target, flipped)


def test_unchecked_non_chain_map_is_caught_by_the_trace():
    endo = self_map_endomorphism(SelfMapSpec.identity(fx.hexagon()))
    broken = ChainMapQ(endo.source, tuple(_flip_one_sign(endo, 1)))
    with pytest.raises(DegenerateInputError, match="left the cycle space"):
        homology_trace(broken, 1)


def test_sd2_sphere_identity_traces():
    finer = subdivided_complex(fx.sphere2(), 2)[0]
    assert len(finer.simplices) == 434
    assert homology_traces(SelfMapSpec.identity(finer)) == [1, 0, 1]


# ---------------------------------------------------------------------------
# the fundamental chain of sd^k against the walk of the subdivision tower

FIXTURE_COMPLEXES = (
    fx.point_complex, fx.interval_complex, fx.hexagon, fx.twelve_gon, fx.disk,
    fx.sphere2,
)


def _assert_fundamental_chain_matches_tower(base, level):
    """Every cell the generator yields is a simplex of sd^level carried by
    the base simplex it names, with its vertices in canonical order, and
    the signs are those of the tower walk."""
    finer, carrier = subdivided_complex(base, level)
    signs = {}
    for vertices, sign, rho in homology._fundamental_chain(base, level):
        cell = frozenset(vertices)
        assert vertices == canonical_tuple(cell)
        assert cell in finer.simplices
        assert carrier[cell] == rho
        signs[cell] = sign
    assert signs == oracles.subdivision_signs_by_tower(base, level)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("make", FIXTURE_COMPLEXES, ids=lambda make: make.__name__)
def test_fundamental_chain_matches_the_tower_on_fixtures(make, level):
    _assert_fundamental_chain_matches_tower(make(), level)


def test_fundamental_chain_matches_the_tower_on_random_complexes():
    rng = random.Random(35)
    for _ in range(200):
        base = random_complex(rng)
        for level in (1, 2):
            _assert_fundamental_chain_matches_tower(base, level)
        subdivided_complex.cache_clear()  # the towers of 200 bases add up


@pytest.mark.parametrize("maximal", [
    [(0, 1, 2), (1, 2, 3), (3, 4), (-7, 4)],
    [(("q",), (0, "a"), (1, 1, 1)), (("q",), (2,)), ((2,), (0, "a"))],
    [(("q",), 7, "s"), (7, (0, "a")), ("s", -1, (0, "a"))],
], ids=["ints", "tuples", "mixed"])
def test_fundamental_chain_orders_int_and_tuple_vertices(maximal):
    base = SimplicialComplex.from_maximal(maximal)
    for level in range(3):
        _assert_fundamental_chain_matches_tower(base, level)


# ---------------------------------------------------------------------------
# work done once: each subdivision level and each self-map check


def _level2_sphere_map():
    """A level-2 carrier map of S^2: each sd^2 vertex goes to a seeded
    vertex of its carrier, so the map is homotopic to the identity."""
    sphere = fx.sphere2()
    finer, carrier = subdivided_complex(sphere, 2)
    rng = random.Random(5)
    return SelfMapSpec.build(
        sphere,
        2,
        {w: rng.choice(sorted(carrier[frozenset([w])])) for w in finer.vertices},
    )


def test_each_subdivision_level_is_built_once(monkeypatch):
    sizes = []

    def counting(space):
        sizes.append(len(space.simplices))
        return barycentric_subdivide(space)

    subdivided_complex.cache_clear()
    monkeypatch.setattr(complexes, "barycentric_subdivide", counting)
    spec = _level2_sphere_map()
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert sizes == [14, 74]


def test_a_level_two_trace_builds_chains_of_the_base_only(monkeypatch):
    built = []
    build = homology._chain_complex

    def counting(space, dropped):
        built.append((space, dropped))
        return build(space, dropped)

    monkeypatch.setattr(homology, "_chain_complex", counting)
    spec = _level2_sphere_map()
    point = frozenset([frozenset([1])])
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert relative_lefschetz_number(spec, point) == 1
    assert {space for space, _ in built} == {spec.base}
    assert {dropped for _, dropped in built} == {frozenset(), point}


def test_a_self_map_is_validated_once(monkeypatch):
    sources = []
    build = SimplicialMap.build

    def counting(*args):
        sources.append(args[0])
        return build(*args)

    monkeypatch.setattr(SimplicialMap, "build", staticmethod(counting))
    spec = _level2_sphere_map()
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert homology_traces(spec) == [1, 0, 1]
    assert spec.preserves_subcomplex(frozenset(spec.base.simplices))
    pushed = pushforward_spec(spec, ConstructibleFunction.indicator(spec.base))
    assert euler_integral(pushed) == GaussianRational.of(2)
    assert len(sources) == 1 and sources[0] is spec.source_complex()


# ---------------------------------------------------------------------------
# one endomorphism per spec


def _counting_endomorphisms(monkeypatch) -> list:
    """Patch homology.self_map_endomorphism to record each spec it builds
    an absolute endomorphism for."""
    built = []
    build = homology.self_map_endomorphism

    def counting(spec, relative_to=None):
        if relative_to is None:
            built.append(spec)
        return build(spec, relative_to)

    monkeypatch.setattr(homology, "self_map_endomorphism", counting)
    return built


def test_a_spec_builds_its_endomorphism_once(monkeypatch):
    from lefscalc.fixedpoint import localization_report

    built = _counting_endomorphisms(monkeypatch)
    problem = fx.doubling_problem()
    spec = problem.spec
    assert lefschetz_number(spec) == hopf_trace(spec) == -1
    assert homology_traces(spec) == [1, 2]
    assert localization_report(problem)["equal"]
    assert built == [spec]
    assert spec.endomorphism.source is chain_complex(spec.base)


def test_a_relative_endomorphism_is_not_kept_for_absolute_callers(monkeypatch):
    built = _counting_endomorphisms(monkeypatch)
    spec = _level2_sphere_map()
    point = frozenset([frozenset([1])])
    assert relative_lefschetz_number(spec, point) == 1
    assert spec.endomorphism.source.dropped == frozenset()
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert relative_lefschetz_number(spec, point) == 1
    relative = self_map_endomorphism(spec, relative_to=point)
    assert relative is not spec.endomorphism
    assert relative.source.dropped == point
    assert built == [spec]


def test_equal_specs_build_their_own_endomorphisms(monkeypatch):
    built = _counting_endomorphisms(monkeypatch)
    first, second = fx.doubling_spec(), fx.doubling_spec()
    assert first == second and first is not second
    assert lefschetz_number(first) == lefschetz_number(second) == -1
    assert hopf_trace(first) == hopf_trace(second) == -1
    assert len(built) == 2 and built[0] is first and built[1] is second


def test_a_spec_rebuilds_when_homology_lets_its_chain_complex_go(monkeypatch):
    built = _counting_endomorphisms(monkeypatch)
    spec = fx.doubling_spec()
    kept = spec.endomorphism
    homology._chain_complex.cache_clear()
    assert lefschetz_number(spec) == -1
    assert spec.endomorphism is not kept
    assert spec.endomorphism.source is chain_complex(spec.base)
    assert len(built) == 2


@pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
def test_a_copied_spec_gives_the_same_traces(roundtrip):
    for spec in (fx.doubling_spec(), _level2_sphere_map()):
        expected = (homology_traces(spec), hopf_trace(spec))
        twin = roundtrip(spec)
        assert twin == spec
        assert (homology_traces(twin), hopf_trace(twin)) == expected
        fresh = roundtrip(fx.doubling_spec())
        assert lefschetz_number(fresh) == -1

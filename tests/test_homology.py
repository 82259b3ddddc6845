"""Chain complexes, homology traces, and subdivision invariance."""

import copy
import pickle
import random
import re
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lefscalc import complexes, homology, maps
from lefscalc import fixtures as fx
from lefscalc.complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    canonical_tuple,
    sd_positions,
    vertex_key,
)
from lefscalc.errors import (
    DegenerateInputError,
    FixedPointNotSimplicialError,
    NonSimplicialMapError,
)
from lefscalc.euler import ConstructibleFunction, chi_c, euler_integral, pushforward_spec
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.fixedpoint import fixed_components, fixed_subcomplex
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
from lefscalc.morse import VertexFunctional, cc_table
from lefscalc.records import Record
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
    source = complexes.flag_subdivision(finer.base, finer.level)
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


def test_a_spec_is_keyed_by_the_generators_own_vertex_objects():
    spec = fx.doubling_spec()
    sources = {id(v) for v in spec.subdivision.vertices}
    assert len(spec.vertex_map) == len(sources) == 12
    assert all(id(v) in sources for v in spec.vertex_map)
    assert [spec.vertex_map[v] for v in spec.subdivision.vertices] == spec.images
    # the tower's map is keyed by the tower's own objects, with equal images
    towers = spec.as_map().vertex_map
    assert {id(v) for v in towers} == {id(v) for v in spec.source_complex().vertices}
    assert towers == spec.vertex_map


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


def _fundamental_chain(base, level):
    """(vertices, sign, rho) for every cell of the generated fundamental
    chain of sd^level(rho), over every base simplex rho."""
    sub = complexes.flag_subdivision(base, level)
    for rho, (cells, signs) in sub.chains.items():
        for cell, sign in zip(cells, signs):
            yield tuple(map(sub.vertices.__getitem__, cell)), sign, rho


def _carrier_choice(sub, rng) -> dict:
    """A vertex map of sd^level that sends each vertex to a seeded vertex
    of its carrier, drawn in vertex_key order."""
    return {
        sub.vertices[n]: rng.choice(canonical_tuple(sub.carriers[n])) for n in sub.order
    }


def _assert_fundamental_chain_matches_tower(base, level):
    """Every cell the generator yields is a simplex of sd^level carried by
    the base simplex it names, with its vertices in canonical order, and
    the signs are those of the tower walk.  The generator's vertices (one
    object each, in vertex_key order by `order`), their carriers, its top
    cells and the fixed_subcomplex verdict
    on a seeded carrier map are the oracle tower's."""
    finer, carrier = oracles.subdivided_complex_by_steps(base, level)
    signs = {}
    for vertices, sign, rho in _fundamental_chain(base, level):
        cell = frozenset(vertices)
        assert vertices == canonical_tuple(cell)
        assert cell in finer.simplices
        assert carrier[cell] == rho
        signs[cell] = sign
    assert signs == oracles.subdivision_signs_by_tower(base, level)
    sub = complexes.flag_subdivision(base, level)
    ordered = [sub.vertices[n] for n in sub.order]
    assert ordered == list(finer.vertices)
    assert [vertex_key(v) for v in ordered] == [vertex_key(v) for v in finer.vertices]
    assert sorted(sub.order) == list(range(len(sub.vertices)))
    for v, base_cell in zip(sub.vertices, sub.carriers):
        assert base_cell == carrier[frozenset([v])]
    tops = [(sub.simplex(cell), rho) for cell, rho in sub.top_cells()]
    assert len(tops) == len(set(tops))
    assert {tau for tau, _ in tops} == oracles.top_simplices_by_facet_scan(finer)
    assert all(carrier[tau] == rho for tau, rho in tops)
    spec = SelfMapSpec.build(base, level, _carrier_choice(sub, random.Random(level)))
    try:
        verdict = fixed_subcomplex(spec).members
    except FixedPointNotSimplicialError as refusal:
        verdict = str(refusal)
    assert verdict == oracles.fixed_subcomplex_by_tower(spec)


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
# the map check on generated top cells, and an op path with no tower


def test_the_map_check_on_top_cells_refuses_as_the_scan_of_the_tower():
    rng = random.Random(37)
    refused = kept = 0
    for _ in range(150):
        base = random_complex(rng, max_vertices=6, max_dim=2, max_simplices=25)
        level = rng.choice((1, 2))
        sub = complexes.flag_subdivision(base, level)
        vm = _carrier_choice(sub, rng)
        for w in rng.sample(sorted(vm, key=vertex_key), min(4, len(vm))):
            vm[w] = rng.choice(base.vertices)
        finer = oracles.subdivided_complex_by_steps(base, level)[0]
        try:
            SimplicialMap.build(finer, base, vm)
        except NonSimplicialMapError as scan:
            with pytest.raises(NonSimplicialMapError) as caught:
                SelfMapSpec.build(base, level, vm)
            assert str(caught.value) == str(scan)
            refused += 1
        else:
            assert SelfMapSpec.build(base, level, vm).vertex_map == vm
            kept += 1
    assert refused >= 30 and kept >= 80


@pytest.mark.parametrize("make", [fx.hexagon, fx.disk], ids=["hexagon", "disk"])
def test_the_map_check_reads_the_top_cells_of_every_maximal_simplex(make):
    """For each maximal simplex rho, a map that breaks only cells over rho
    (the barycentre of rho sent off, the rest to the least vertex of their
    carrier) is refused, with the text of the tower's scan."""
    base = make()
    rank = base._vertex_index
    sub = complexes.flag_subdivision(base, 1)
    sd = oracles.subdivided_complex_by_steps(base, 1)[0]
    least = {
        sub.vertices[n]: min(c, key=rank.__getitem__)
        for n, c in enumerate(sub.carriers)
    }
    for rho in sub.base.maximal:
        (centre,) = [v for v, c in zip(sub.vertices, sub.carriers) if c == rho]
        texts = []
        for x in base.vertices:
            try:
                SimplicialMap.build(sd, base, {**least, centre: x})
            except NonSimplicialMapError as scan:
                texts.append((x, str(scan)))
        assert texts, f"no map breaks only the cells over {canonical_tuple(rho)}"
        for x, text in texts:
            with pytest.raises(NonSimplicialMapError) as caught:
                SelfMapSpec.build(base, 1, {**least, centre: x})
            assert str(caught.value) == text


def test_invariance_reads_the_generated_cells_as_the_tower_scan_does():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(100):
        base = random_complex(rng, max_vertices=6, max_dim=2, max_simplices=25)
        g = random_self_map(rng, base).vertex_map
        level = rng.randrange(3)
        sub = complexes.flag_subdivision(base, level)
        spec = SelfMapSpec.build(
            base, level, {w: g[u] for w, u in _carrier_choice(sub, rng).items()}
        )
        simplices = sorted(base.simplices, key=complexes.cell_sort_key)
        for closed in (False, True):
            cells = frozenset(rng.sample(simplices, rng.randint(1, len(simplices))))
            if closed:
                cells = frozenset(complexes._faces(cells))
            verdict = spec.preserves_subcomplex(cells)
            assert verdict == oracles.preserves_by_tower_scan(spec, cells)
            verdicts.add((closed, verdict))
    assert len(verdicts) == 4


@pytest.fixture
def no_tower(monkeypatch):
    """Every read of sd^k as a complex raises, a view built before too:
    the patched view is a property, which an instance's cached value does
    not shadow."""
    def refuse(sub):
        raise AssertionError(f"sd^{sub.level} was listed as a complex")

    monkeypatch.setattr(complexes.FlagSubdivision, "view", property(refuse))


def _generated_map(base, level, choose) -> SelfMapSpec:
    """The spec that sends each vertex of sd^level to choose(its carrier),
    read from the flag generator."""
    sub = complexes.flag_subdivision(base, level)
    return SelfMapSpec.build(
        base, level, {sub.vertices[n]: choose(sub.carriers[n]) for n in sub.order}
    )


def test_traces_and_localization_build_no_tower(no_tower):
    from lefscalc.fixedpoint import localization_report

    rng = random.Random(37)
    choose = lambda carrier: rng.choice(canonical_tuple(carrier))  # noqa: E731
    sphere = _generated_map(fx.sphere2(), 2, choose)
    assert lefschetz_number(sphere) == hopf_trace(sphere) == 2
    assert homology_traces(sphere) == [1, 0, 1]
    disk = _generated_map(fx.disk(), 1, choose)
    assert relative_lefschetz_number(disk, fx.disk_boundary_cells()) == 1
    report = localization_report(fx.doubling_problem())
    assert report["equal"] and report["global_trace"] == GaussianRational.of(-1)


def test_a_min_vertex_map_of_sd4_of_the_sphere_builds_no_tower(no_tower):
    """The at-scale rung at level 4: each vertex of sd^4(S^2) goes to the
    least vertex of its carrier, so the fixed points are the base
    vertices."""
    sphere = fx.sphere2()
    rank = sphere._vertex_index
    spec = _generated_map(sphere, 4, lambda carrier: min(carrier, key=rank.__getitem__))
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert fixed_subcomplex(spec).members == {frozenset([v]) for v in sphere.vertices}


def _nested_reversed_names(space, rng) -> dict:
    """A renaming of the vertices of `space` that reverses their vertex_key
    order, onto names drawn from ints, strings, and tuples nested two and
    three deep: each name holds its own j, so they are distinct, and the
    tuples' lengths and parts differ, so the spliced keys decide their
    order."""
    ordered = sorted(space.vertices, key=vertex_key)
    kinds = (
        lambda j: j,
        lambda j: f"s{j:02d}",
        lambda j: ((j,),),
        lambda j: (("t",), j),
        lambda j: (j, (j, "u")),
        lambda j: (((j,),),),
        lambda j: (((j, "u"),), j),
        lambda j: ("v", ((j,), ()), j),
    )
    names = sorted(
        (rng.choice(kinds)(j) for j in range(len(ordered))), key=vertex_key
    )
    return dict(zip(ordered, reversed(names)))


def _renamed_vertex(w, level: int, names: dict):
    """A vertex of sd^level under a renaming of the base vertices: each
    barycentre's parts renamed and put back in canonical order."""
    if level == 0:
        return names[w]
    return canonical_tuple(_renamed_vertex(part, level - 1, names) for part in w)


def _fixed_component_chis(spec):
    """The sorted chi_c of the fixed components, or None on a refusal."""
    try:
        return sorted(chi_c(c) for c in fixed_components(spec))
    except FixedPointNotSimplicialError:
        return None


def _assert_calculus_commutes_with_renaming(space, renamed, level, names, rng):
    """Betti numbers, an Euler integral and a cc_table of sd^level agree
    with those of the renamed sd^level."""
    finer = subdivided_complex(space, level)[0]
    other = subdivided_complex(renamed, level)[0]
    rename = {w: _renamed_vertex(w, level, names) for w in finer.vertices}
    assert set(rename.values()) == set(other.vertices)
    assert betti(chain_complex(other)) == betti(chain_complex(finer))
    values = {cell: rng.randint(-3, 3) for cell in finer.simplices}
    phi = ConstructibleFunction.of(finer, values)
    psi = ConstructibleFunction.of(
        other, {frozenset(map(rename.get, c)): x for c, x in values.items()}
    )
    assert euler_integral(psi) == euler_integral(phi)
    heights = rng.sample(range(10 * len(finer.vertices)), len(finer.vertices))
    ell = dict(zip(finer.vertices, heights))
    table = cc_table(phi, VertexFunctional.of(finer, ell))
    moved = cc_table(psi, VertexFunctional.of(other, {rename[w]: h for w, h in ell.items()}))
    # vertex for vertex, so the tables' multisets of entries agree too
    assert moved.entries == {rename[w]: x for w, x in table.entries.items()}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_traces_fixed_loci_and_the_calculus_commute_with_an_order_reversing_renaming(seed):
    rng = random.Random(seed)
    space = random_complex(rng, max_vertices=6, max_dim=2, max_simplices=25)
    g = random_self_map(rng, space).vertex_map
    level = rng.choice((1, 2))
    sub = complexes.flag_subdivision(space, level)
    spec = SelfMapSpec.build(space, level, {
        w: g[u] for w, u in _carrier_choice(sub, rng).items()
    })
    names = _nested_reversed_names(space, rng)
    base = SimplicialComplex.from_maximal(
        [tuple(names[v] for v in s) for s in space.simplices]
    )
    renamed = SelfMapSpec.build(
        base,
        level,
        {_renamed_vertex(w, level, names): names[u] for w, u in spec.vertex_map.items()},
    )
    assert homology_traces(renamed) == homology_traces(spec)
    assert hopf_trace(renamed) == hopf_trace(spec)
    assert _fixed_component_chis(renamed) == _fixed_component_chis(spec)
    for k in (0, 1):
        _assert_calculus_commutes_with_renaming(space, base, k, names, rng)


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
    """The map's set-up lists sd^2 of the sphere as a complex, and the spec
    and its traces then read the same generated record: one generation,
    one view."""
    made, views = [], []
    record, view = complexes.FlagSubdivision, complexes.FlagSubdivision.view

    def counting(sub):
        views.append((sub.level, len(sub.vertices)))
        return view.func(sub)

    counted = cached_property(counting)
    counted.__set_name__(record, "view")
    complexes._flag_subdivision.cache_clear()
    monkeypatch.setattr(
        record, "__init__",
        lambda sub, *fields: made.append(fields[1]) or Record.__init__(sub, *fields),
    )
    monkeypatch.setattr(record, "view", counted)
    spec = _level2_sphere_map()
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert made == [2] and views == [(2, 74)]


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
    checked, scans = [], []
    check, build = maps._check_top_cells, SimplicialMap.build

    def counting(sub, images):
        checked.append(sub)
        return check(sub, images)

    def scanning(*args):
        scans.append(args[0])
        return build(*args)

    monkeypatch.setattr(maps, "_check_top_cells", counting)
    monkeypatch.setattr(SimplicialMap, "build", staticmethod(scanning))
    spec = _level2_sphere_map()
    assert lefschetz_number(spec) == hopf_trace(spec) == 2
    assert homology_traces(spec) == [1, 0, 1]
    assert spec.preserves_subcomplex(frozenset(spec.base.simplices))
    pushed = pushforward_spec(spec, ConstructibleFunction.indicator(spec.base))
    assert euler_integral(pushed) == GaussianRational.of(2)
    assert checked == [spec.subdivision] and scans == []


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

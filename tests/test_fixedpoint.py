"""Fixed subcomplexes, localization, and hyperbolicity reports."""

import random
from fractions import Fraction

import pytest

import oracles

from lefscalc import fixtures as fx
from lefscalc import complexes
from lefscalc.complexes import (
    CellularSubset,
    SimplicialComplex,
    canonical_tuple,
    cell_sort_key,
    sd_positions,
    vertex_key,
)
from lefscalc.errors import (
    DegenerateInputError,
    FixedPointNotSimplicialError,
    NotHyperbolicError,
)
from lefscalc.exact import GaussianRational, Rat, RationalMatrix, RationalPolynomial
from lefscalc.fixedpoint import (
    NormalData,
    TracedProblem,
    fixed_components,
    fixed_subcomplex,
    hyperbolicity_report,
    local_contribution,
    local_trace_function,
    localization_report,
    signed_local_contribution,
)
from lefscalc import exact, fixedpoint
from lefscalc.homology import lefschetz_number
from lefscalc.maps import SelfMapSpec, refine, subdivided_complex
from lefscalc.morse import VertexFunctional, lefschetz_cycle_table, microlocal_index
from lefscalc.verify import random_complex, random_self_map


def g(re, im=0):
    return GaussianRational(Rat(re), Rat(im))


def test_fixed_subcomplex_of_fixtures():
    assert fixed_subcomplex(fx.rotation_spec()).members == frozenset()
    refl = fixed_subcomplex(fx.reflection_spec())
    assert refl.members == {frozenset({"v0"}), frozenset({"v3"})}
    doub = fixed_subcomplex(fx.doubling_spec())
    assert doub.members == {frozenset({"v0"})}


def test_fixed_subcomplex_of_identity_is_everything():
    space = fx.sphere2()
    spec = SelfMapSpec.identity(space)
    assert fixed_subcomplex(spec).members == frozenset(space.simplices)
    assert len(fixed_components(spec)) == 1


def midpoint_swap_spec() -> SelfMapSpec:
    space = SimplicialComplex.from_maximal([("a", "b")])
    return SelfMapSpec.build(space, 0, {"a": "b", "b": "a"})


def power_spec(n: int, level: int, rotation: int) -> SelfMapSpec:
    """z -> zeta z^(2^level) on the n-gon u0..u(n-1): the level-k vertex at
    angle m / (n 2^k) of a full turn goes to u_(m + rotation mod n)."""
    base = SimplicialComplex.from_maximal(
        [(f"u{i}", f"u{(i + 1) % n}") for i in range(n)]
    )
    vm = {}
    for w in subdivided_complex(base, level)[0].vertices:
        weights = oracles.barycentric_weights(w, level)
        index = {v: int(v[1:]) for v in weights}
        wraps = len(index) > 1 and {0, n - 1} <= set(index.values())
        angle = sum(
            x * (n if wraps and index[v] == 0 else index[v])
            for v, x in weights.items()
        )
        vm[w] = f"u{(int(angle * 2 ** level) + rotation) % n}"
    return SelfMapSpec.build(base, level, vm)


def assert_fixed_subcomplex_matches_oracles(spec) -> bool:
    """fixed_subcomplex refuses exactly when the oracle finds a fixed point
    off the vertices, with the oracle's text; otherwise it agrees with the
    scan.  The exact LP on every top simplex refuses the same way.  Returns
    whether it refused."""
    expected = oracles.non_vertex_fixed_point_refusal(spec)
    assert oracles.fixed_point_refusal_by_fraction_lp(spec) == expected
    if expected is None:
        assert fixed_subcomplex(spec).members == oracles.fixed_members_by_scan(spec)
        return False
    with pytest.raises(FixedPointNotSimplicialError) as err:
        fixed_subcomplex(spec)
    assert str(err.value) == expected
    return True


@pytest.mark.parametrize(
    "base",
    [
        fx.interval_complex(), fx.hexagon(), fx.disk(), fx.sphere2(),
        # maximal simplices of three dimensions, one an isolated vertex
        SimplicialComplex.from_maximal([("a", "b", "c"), ("c", "d"), ("e",)]),
    ],
    ids=["interval", "hexagon", "disk", "sphere2", "mixed"],
)
def test_carrier_rule_picks_the_top_simplices_of_the_facet_scan(base):
    """The generated top cells are the cells over the maximal base
    simplices: a simplex of sd^k is maximal exactly when it has as many
    vertices as its carrier and the carrier is maximal in the base."""
    for level in range(4):
        sd, carrier = subdivided_complex(base, level)
        sub = complexes.flag_subdivision(base, level)
        tops = [sub.simplex(cell) for cell, _ in sub.top_cells()]
        assert len(tops) == len(set(tops))
        assert set(tops) == oracles.top_simplices_by_facet_scan(sd)
        assert set(tops) == {
            tau for tau, sigma in carrier.items()
            if len(tau) == len(sigma) and sigma in sub.base.maximal
        }


def test_fixed_subcomplex_matches_scan_oracle():
    specs = [
        fx.reflection_spec(), fx.doubling_spec(), refine(fx.doubling_spec()),
        midpoint_swap_spec(),
    ]
    rng = random.Random(5)
    for _ in range(300):
        space = random_complex(rng)
        specs.append(random_self_map(rng, space))
    refused = [assert_fixed_subcomplex_matches_oracles(spec) for spec in specs]
    assert refused[3]
    assert sum(refused) >= 80 and refused.count(False) >= 150


def test_power_maps_are_refused_exactly_at_non_vertex_fixed_points():
    refused = [
        assert_fixed_subcomplex_matches_oracles(power_spec(n, level, rotation))
        for n in (3, 5, 6, 7)
        for level in (1, 2, 3)
        for rotation in range(n)
    ]
    assert sum(refused) >= 20 and refused.count(False) >= 20


def count_calls(monkeypatch, name: str) -> list:
    """Patch exact.<name> to record the row count of each call."""
    runs = []
    solve = getattr(exact, name)

    def counting(rows, rhs):
        runs.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(exact, name, counting)
    return runs


def test_sign_presolve_settles_the_power_map_without_pivots(monkeypatch):
    runs = count_calls(monkeypatch, "_phase1")
    assert len(fixed_components(power_spec(7, 3, 0))) == 7
    assert runs == []


def test_midpoint_swap_still_reaches_the_simplex(monkeypatch):
    runs = count_calls(monkeypatch, "_phase1")
    with pytest.raises(FixedPointNotSimplicialError):
        fixed_subcomplex(midpoint_swap_spec())
    assert runs


def min_vertex_sphere_spec() -> SelfMapSpec:
    """Each vertex of sd^2(S^2) goes to the least vertex of its carrier, so
    the fixed points are exactly the base vertices."""
    base = fx.sphere2()
    sd, carrier = subdivided_complex(base, 2)
    vm = {w: min(carrier[frozenset([w])], key=vertex_key) for w in sd.vertices}
    return SelfMapSpec.build(base, 2, vm)


def octagon_reflection_spec(axis: int) -> SelfMapSpec:
    """The reflection i -> axis - i of the octagon, axis odd: no vertex is
    fixed, and the midpoints of the two edges it swaps end for end are."""
    base = SimplicialComplex.from_maximal(
        [(f"u{i}", f"u{(i + 1) % 8}") for i in range(8)]
    )
    return SelfMapSpec.build(base, 0, {f"u{i}": f"u{(axis - i) % 8}" for i in range(8)})


@pytest.mark.parametrize(
    "make", [lambda: power_spec(7, 3, 0), min_vertex_sphere_spec],
    ids=["power-n7k3", "min-vertex-s2"],
)
def test_carrier_signs_settle_maps_without_an_exact_solve(monkeypatch, make):
    spec = make()
    calls = count_calls(monkeypatch, "has_nonneg_solution")
    assert fixed_subcomplex(spec).members == oracles.fixed_members_by_scan(spec)
    assert calls == []


@pytest.mark.parametrize(
    "make", [midpoint_swap_spec, lambda: octagon_reflection_spec(1)],
    ids=["midpoint-swap", "octagon-reflection"],
)
def test_refusals_are_decided_by_the_exact_solve(monkeypatch, make):
    spec = make()
    calls = count_calls(monkeypatch, "has_nonneg_solution")
    with pytest.raises(FixedPointNotSimplicialError):
        fixed_subcomplex(spec)
    assert calls


def assert_presolves_agree_on_top_simplices(spec) -> int:
    """On every top simplex with a moved vertex, the sparse presolve gives
    the dense oracle's verdict and live set twice: on the vertex test's own
    sign columns with no right-hand side, where no live column stands for
    the certificate that the all-ones row gives the dense presolve, and on
    the system that has_nonneg_solution gets, with fixed vertices as zero
    columns.  The signs are those of the exact displacements.  Returns how
    many simplices the presolve leaves open."""
    sub = spec.subdivision
    positions = sd_positions(spec.base)
    undecided = 0
    for cell, _ in sub.top_cells():
        ws = tuple(map(sub.vertices.__getitem__, cell))
        displacement = []  # signs of position minus image, by coordinate
        for w in ws:
            column = dict(positions[w])
            image = spec.vertex_map[w]
            column[image] = column.get(image, 0) - 1
            displacement.append({u: exact._sign(x) for u, x in column.items() if x})
        moved = [column for column in displacement if column]
        if not moved:
            continue
        coords = sorted(set().union(*moved), key=vertex_key)
        rhs = [0] * len(coords) + [1]
        live = exact._sign_presolve(moved, {})
        rows = [[column.get(u, 0) for column in moved] for u in coords]
        assert (live or None) == oracles.sign_presolve_dense(rows + [[1] * len(moved)], rhs)
        undecided += bool(live)
        rows = [[column.get(u, 0) for column in displacement] for u in coords]
        rows.append([int(bool(column)) for column in displacement])
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(ws))]
        assert exact._sign_presolve(columns, {len(coords): 1}) == (
            oracles.sign_presolve_dense(rows, rhs)
        )
    return undecided


def carrier_choice_spec(rng, spec: SelfMapSpec) -> SelfMapSpec:
    """A level-0 spec written at level 1: each vertex of sd(base) goes
    where spec sends a seeded choice among its carrier's vertices."""
    sd, carrier = subdivided_complex(spec.base, 1)
    vm = {
        w: spec.vertex_map[rng.choice(canonical_tuple(carrier[frozenset([w])]))]
        for w in sd.vertices
    }
    return SelfMapSpec.build(spec.base, 1, vm)


def test_sparse_presolve_matches_the_dense_one_on_every_top_simplex():
    specs = [
        fx.rotation_spec(), fx.reflection_spec(), fx.doubling_spec(),
        refine(fx.doubling_spec()), midpoint_swap_spec(), power_spec(7, 3, 0),
        min_vertex_sphere_spec(), octagon_reflection_spec(1),
        SelfMapSpec.identity(fx.sphere2()),
    ]
    rng = random.Random(31)
    for _ in range(200):
        spec = random_self_map(rng, random_complex(rng))
        specs += [spec, carrier_choice_spec(rng, spec)]
    undecided = [assert_presolves_agree_on_top_simplices(spec) for spec in specs]
    # the midpoint swap reaches the exact solve; the min-vertex map does not
    assert undecided[4] and not undecided[6]
    assert sum(map(bool, undecided[9:])) >= 40 and undecided[9:].count(0) >= 100


def reversed_names(space: SimplicialComplex) -> dict:
    """A renaming of the vertices of `space` that reverses their order."""
    ordered = sorted(space.vertices, key=vertex_key)
    return {v: f"y{len(ordered) - i:02d}" for i, v in enumerate(ordered)}


def test_fixed_locus_commutes_with_a_renaming_that_reverses_the_vertex_order():
    rng = random.Random(1431)
    refused = kept = 0
    for _ in range(100):
        space = random_complex(rng)
        spec = random_self_map(rng, space)
        names = reversed_names(space)
        renamed = SelfMapSpec.build(
            SimplicialComplex.from_maximal(
                [tuple(names[v] for v in s) for s in space.simplices]
            ),
            0,
            {names[v]: names[u] for v, u in spec.vertex_map.items()},
        )
        try:
            fixed = fixed_subcomplex(spec)
        except FixedPointNotSimplicialError:
            with pytest.raises(FixedPointNotSimplicialError):
                fixed_subcomplex(renamed)
            refused += 1
            continue
        def rename(cells):
            return frozenset(frozenset(names[v] for v in c) for c in cells)

        assert fixed_subcomplex(renamed).members == rename(fixed.members)
        comps = [rename(c.members) for c in fixed_components(spec)]
        renamed_comps = [c.members for c in fixed_components(renamed)]
        assert sorted(map(len, comps)) == sorted(map(len, renamed_comps))
        assert set(comps) == set(renamed_comps)
        matrices = []
        for _ in comps:
            n = rng.randint(0, 3)
            matrices.append([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        p = TracedProblem(spec, normal=dict(enumerate(matrices)))
        q = TracedProblem(
            renamed,
            normal={renamed_comps.index(c): m for c, m in zip(comps, matrices)},
        )
        rows, renamed_rows = hyperbolicity_report(p), hyperbolicity_report(q)
        for i, c in enumerate(comps):
            j = renamed_comps.index(c)
            assert q.component(j).meets_ray == p.component(i).meets_ray
            assert {**renamed_rows[j], "component": i} == rows[i]
        kept += 1
    assert refused >= 20 and kept >= 50


@pytest.mark.parametrize(
    "axis, named", [(1, "('u0', 'u1')"), (3, "('u1', 'u2')"),
                    (5, "('u2', 'u3')"), (7, "('u0', 'u7')")],
)
def test_refusal_names_the_first_fixed_simplex_in_cell_order(axis, named):
    spec = octagon_reflection_spec(axis)
    with pytest.raises(FixedPointNotSimplicialError) as err:
        fixed_subcomplex(spec)
    assert str(err.value) == (
        f"geometric fixed points inside simplex carried by {named} are not "
        "vertices; subdivide the base complex and restate the map"
    )
    assert assert_fixed_subcomplex_matches_oracles(spec)


def test_swap_edge_has_midpoint_fixed_point():
    # swapping the ends of an edge fixes its midpoint, which is not a vertex
    with pytest.raises(FixedPointNotSimplicialError) as err:
        fixed_subcomplex(midpoint_swap_spec())
    assert "subdiv" in str(err.value).lower()


def test_swap_resolved_by_subdividing():
    # the same swap written one level down has honest vertex fixed points
    space = SimplicialComplex.from_maximal([("a", "b")])
    vm = {("a",): "b", ("b",): "a", ("a", "b"): "a"}
    # midpoint must go somewhere; sending it to an endpoint breaks the swap
    spec = SelfMapSpec.build(space, 1, vm)
    with pytest.raises(FixedPointNotSimplicialError):
        fixed_subcomplex(spec)


def test_rotated_triangle_boundary_is_fixed_point_free():
    space = SimplicialComplex.from_maximal([("a", "b"), ("b", "c"), ("a", "c")])
    spec = SelfMapSpec.build(space, 0, {"a": "b", "b": "c", "c": "a"})
    assert fixed_subcomplex(spec).members == frozenset()
    assert lefschetz_number(spec) == 0


def test_local_trace_function_default_and_overrides():
    p = fx.reflection_problem()
    phi = local_trace_function(p)
    assert phi(frozenset({"v0"})) == g(1)
    assert phi(frozenset({"v1"})) == g(0)
    traced = TracedProblem(
        spec=p.spec,
        traces={frozenset({"v0"}): g(3)},
        normal=p.normal,
    )
    phi2 = local_trace_function(traced)
    assert phi2(frozenset({"v0"})) == g(3)
    assert phi2(frozenset({"v3"})) == g(1)


def test_a_zero_trace_override_drops_its_fixed_cell():
    p = fx.reflection_problem()
    traced = TracedProblem(
        spec=p.spec, traces={frozenset({"v0"}): g(0)}, normal=p.normal
    )
    phi = local_trace_function(traced)
    assert phi.values == {frozenset({"v3"}): g(1)}
    assert local_contribution(traced, 0) + local_contribution(traced, 1) == g(1)


def test_trace_override_must_sit_on_fixed_cells():
    p = fx.reflection_problem()
    bad = TracedProblem(
        spec=p.spec,
        traces={frozenset({"v1"}): g(1)},
        normal=p.normal,
    )
    with pytest.raises(DegenerateInputError):
        local_trace_function(bad)


def test_localization_report_reflection():
    rep = localization_report(fx.reflection_problem())
    assert rep["global_trace"] == g(2)
    assert rep["sum_of_local"] == g(2)
    assert rep["equal"]
    signs = [c["sign"] for c in rep["components"]]
    assert signs == [1, 1]
    contributions = [c["signed_contribution"] for c in rep["components"]]
    assert contributions == [g(1), g(1)]


def test_localization_report_doubling():
    rep = localization_report(fx.doubling_problem())
    assert rep["global_trace"] == g(-1)
    assert rep["components"][0]["sign"] == -1
    assert rep["components"][0]["integral"] == g(1)
    assert rep["components"][0]["signed_contribution"] == g(-1)
    assert rep["equal"]


def test_localization_report_sphere_identity():
    rep = localization_report(fx.identity_problem(fx.sphere2()))
    assert rep["global_trace"] == g(2)
    assert len(rep["components"]) == 1
    assert rep["components"][0]["normal_dim"] == 0
    assert rep["equal"]


def test_local_contribution_and_signed_agree_on_fixtures():
    p = fx.doubling_problem()
    assert local_contribution(p, 0) == g(1)
    assert signed_local_contribution(p, 0) == g(-1)
    p2 = fx.reflection_problem()
    assert signed_local_contribution(p2, 0) == g(1)
    assert signed_local_contribution(p2, 1) == g(1)


# ---------------------------------------------------------------------------
# local indices: the Hopf trace near each component, with no normal data


@pytest.mark.parametrize(
    "make, expected",
    [
        (fx.reflection_problem, [1, 1]),
        (fx.doubling_problem, [-1]),
        (lambda: fx.identity_problem(fx.sphere2()), [2]),
        (lambda: fx.identity_problem(fx.hexagon()), [0]),
    ],
    ids=["reflection", "doubling", "s2-identity", "hexagon-identity"],
)
def test_local_indices_match_the_signed_contributions_on_fixtures(make, expected):
    p = make()
    assert oracles.local_indices(p.spec) == expected
    assert [signed_local_contribution(p, i) for i in range(len(expected))] == [
        g(x) for x in expected
    ]


def test_local_indices_sum_to_the_lefschetz_number_on_seeded_maps():
    rng = random.Random(7)
    accepted = 0
    for _ in range(320):
        spec = random_self_map(rng, random_complex(rng))
        try:
            indices = oracles.local_indices(spec)
        except FixedPointNotSimplicialError:
            continue
        accepted += 1
        assert sum(indices) == lefschetz_number(spec)
    assert accepted >= 200


def test_local_indices_refuse_a_simplex_that_meets_two_components():
    # each vertex of the triangle's boundary is fixed and each edge's
    # midpoint goes to the opposite vertex: three point components, and
    # every edge meets two of them
    base = SimplicialComplex.from_maximal([("a", "b"), ("a", "c"), ("b", "c")])
    vm = {(v,): v for v in "abc"}
    vm.update({("a", "b"): "c", ("a", "c"): "b", ("b", "c"): "a"})
    spec = SelfMapSpec.build(base, 1, vm)
    assert len(fixed_components(spec)) == 3
    with pytest.raises(DegenerateInputError, match="meets fixed components"):
        oracles.local_indices(spec)


def test_not_hyperbolic_when_one_is_eigenvalue():
    p = TracedProblem(
        spec=fx.reflection_spec(),
        normal=NormalData.of({0: RationalMatrix.identity(1),
                              1: RationalMatrix.identity(1)}),
    )
    # the signed term and its integral are refused by one test, with one text
    for term in (signed_local_contribution, local_contribution):
        with pytest.raises(NotHyperbolicError) as caught:
            term(p, 0)
        assert str(caught.value) == (
            "det(I - A) = 0 on component 0; the signed term is undefined"
        )
        assert caught.value.exit_code == 4


def test_hyperbolicity_report_fields():
    rep = hyperbolicity_report(fx.doubling_problem())
    assert len(rep) == 1
    row = rep[0]
    assert row["normal_dim"] == 1
    assert row["one_is_eigenvalue"] is False
    assert row["meets_R_geq_1"] is True
    assert row["sign"] == -1
    rep2 = hyperbolicity_report(fx.reflection_problem())
    assert [r["sign"] for r in rep2] == [1, 1]
    assert [r["meets_R_geq_1"] for r in rep2] == [False, False]


def test_hyperbolicity_report_flags_eigenvalue_one():
    p = TracedProblem(
        spec=fx.doubling_spec(),
        normal=NormalData.of({0: RationalMatrix.identity(1)}),
    )
    row = hyperbolicity_report(p)[0]
    assert row["one_is_eigenvalue"] is True
    assert row["sign"] == 0


def test_missing_normal_component_is_an_error():
    p = TracedProblem(
        spec=fx.reflection_spec(),
        normal=NormalData.of({0: RationalMatrix.of([[-1]])}),
    )
    with pytest.raises(DegenerateInputError):
        signed_local_contribution(p, 1)


def test_refine_keeps_signed_contributions():
    p = fx.doubling_problem()
    finer = TracedProblem(
        spec=refine(p.spec),
        normal=p.normal,
        non_characteristic=True,
    )
    rep_before = localization_report(p)
    rep_after = localization_report(finer)
    assert rep_before["sum_of_local"] == rep_after["sum_of_local"]
    assert rep_after["equal"]


def test_support_restricts_the_global_trace():
    # support on a single fixed vertex of the reflection: trace of the pair
    p = fx.reflection_problem()
    sub = TracedProblem(
        spec=p.spec,
        support=CellularSubset.of(p.spec.base, {frozenset({"v0"})}),
        normal=p.normal,
    )
    rep = localization_report(sub)
    assert rep["global_trace"] == g(1)
    assert rep["sum_of_local"] == g(1)
    assert rep["equal"]


def test_open_edge_support_is_locally_closed():
    # an open edge is open in its closure, so the pair trace is defined
    space = fx.interval_complex()
    spec = SelfMapSpec.identity(space)
    open_edge = CellularSubset.of(space, {frozenset({"a", "b"})})
    p = TracedProblem(spec=spec, support=open_edge)
    rep = localization_report(p)
    assert rep["global_trace"] == g(-1)
    assert rep["equal"]


def test_support_must_be_locally_closed():
    # interior plus one vertex of a triangle is not open in its closure
    space = SimplicialComplex.from_maximal([("a", "b", "c")])
    spec = SelfMapSpec.identity(space)
    support = CellularSubset.of(
        space, {frozenset({"a", "b", "c"}), frozenset({"a"})}
    )
    p = TracedProblem(spec=spec, support=support)
    with pytest.raises(DegenerateInputError):
        localization_report(p)


def _outcome(call):
    try:
        return "returned", call()
    except DegenerateInputError as exc:
        return type(exc), str(exc)


def _supported(spec, cells, normal=None) -> TracedProblem:
    support = CellularSubset.of(spec.base, cells)
    return TracedProblem(spec=spec, support=support, normal=normal)


def _matches_restriction(p) -> tuple:
    """Outcome of the supported localization's global trace, asserted equal
    to the restriction oracle's."""
    actual = _outcome(lambda: localization_report(p)["global_trace"])
    expected = _outcome(
        lambda: GaussianRational.of(oracles.global_trace_by_restriction(p))
    )
    assert actual == expected
    return actual


def test_supported_trace_matches_the_restriction_oracle_on_fixtures():
    refl = fx.reflection_problem()
    interval = SelfMapSpec.identity(fx.interval_complex())
    cases = [
        (_supported(refl.spec, {frozenset({"v0"})}, refl.normal), g(1)),
        (_supported(interval, {frozenset({"a", "b"})}), g(-1)),
        (_supported(refl.spec, set(), refl.normal), g(0)),
        (_supported(interval, set()), g(0)),
    ]
    for p, trace in cases:
        assert _matches_restriction(p) == ("returned", trace)


def _forward_closed(spec, cells) -> frozenset:
    """The least face-closed family holding `cells` that the map keeps: with
    each base cell, the images of the subdivision cells it carries."""
    m = spec.as_map()
    images = {}
    for tau, sigma in spec.carrier().items():
        images.setdefault(sigma, []).append(m.image_simplex(tau))
    closed = set()
    todo = list(cells)
    while todo:
        cell = todo.pop()
        if cell not in closed:
            closed.add(cell)
            todo.extend(images[cell])
            todo.extend(cell - {v} for v in cell if len(cell) > 1)
    return frozenset(closed)


def _seeded_map(rng, level) -> SelfMapSpec:
    """A level-0 random self-map; at higher levels the same kind of map
    written on sd^level through a random carrier-vertex map sd^level -> base
    (each subdivision vertex goes to a vertex of a simplex it is the
    barycenter of, level by level), which is simplicial."""
    if level == 0:
        return random_self_map(rng, random_complex(rng))
    space = random_complex(rng, max_vertices=5, max_dim=2, max_simplices=20)
    g = random_self_map(rng, space).vertex_map
    vertex_map = {}
    for w in subdivided_complex(space, level)[0].vertices:
        v = w
        for _ in range(level):
            v = rng.choice(v)
        vertex_map[w] = g[v]
    return SelfMapSpec.build(space, level, vertex_map)


@pytest.mark.parametrize("level, accepted", [(0, 120), (1, 40), (2, 25)])
def test_supported_trace_matches_the_restriction_oracle_on_seeded_maps(
    level, accepted
):
    # invariant pairs Z minus B, plus arbitrary families that are often
    # refused: answers and refusals must both agree.  Above level 0 this
    # checks that sd^level(Z) is the part of sd^level(base) that Z carries,
    # against the oracle's own tower on Z
    rng = random.Random("supported-trace" + (f":{level}" if level else ""))
    outcomes = []
    with_boundary = 0  # accepted with a non-empty boundary B
    while (
        sum(kind == "returned" for kind, _ in outcomes) < accepted
        or with_boundary < accepted // 4
    ):
        assert len(outcomes) < 1000
        spec = _seeded_map(rng, level)
        try:
            TracedProblem(spec=spec).fixed_locus
        except FixedPointNotSimplicialError:
            continue
        cells = sorted(spec.base.simplices, key=cell_sort_key)
        if rng.random() < 0.25:
            support = {c for c in cells if rng.random() < 0.4}
        else:
            seeds = rng.sample(cells, min(len(cells), rng.randint(1, 3)))
            closed = _forward_closed(spec, seeds)
            corners = sorted((c for c in closed if len(c) == 1), key=cell_sort_key)
            support = closed - _forward_closed(
                spec, rng.sample(corners, min(len(corners), rng.randint(1, 2)))
            )
        p = _supported(spec, support)
        outcomes.append(_matches_restriction(p))
        closed = complexes.closure(p.support).members
        with_boundary += outcomes[-1][0] == "returned" and closed != p.support.members
    refusals = {text for kind, text in outcomes if kind != "returned"}
    assert refusals
    assert len({value for kind, value in outcomes if kind == "returned"}) >= 2


@pytest.mark.parametrize("spec", [fx.doubling_spec(), refine(fx.doubling_spec())])
def test_supported_doubling_matches_the_restriction_oracle(spec):
    # the level-1 doubling and its refinement onto sd(hexagon): on the
    # circle relative to its fixed vertex the trace is -2 (degree 2 on H_1)
    (point,) = fixed_subcomplex(spec).members  # the fixed vertex v0
    assert _matches_restriction(_supported(spec, {point})) == ("returned", g(1))
    rest = spec.base.simplices - {point}
    assert _matches_restriction(_supported(spec, rest)) == ("returned", g(-2))


def test_support_refusals_keep_their_type_and_text():
    triangle = SimplicialComplex.from_maximal([("a", "b", "c")])
    interval = fx.interval_complex()
    cases = [
        (
            SelfMapSpec.identity(triangle),
            {frozenset({"a", "b", "c"}), frozenset({"a"})},
            "support is not locally closed: a face of a missing cell lies "
            "inside it",
        ),
        (fx.rotation_spec(), {frozenset({"v0"})},
         "support closure is not map-invariant"),
        (
            SelfMapSpec.build(interval, 0, {"a": "b", "b": "b"}),
            {frozenset({"a", "b"}), frozenset({"b"})},
            "support boundary is not map-invariant; the relative trace is "
            "undefined",
        ),
    ]
    for spec, cells, message in cases:
        p = _supported(spec, cells)
        assert _matches_restriction(p) == (DegenerateInputError, message)


def test_supported_trace_subdivides_nothing_beyond_the_spec(monkeypatch):
    complexes.subdivided_complex.cache_clear()
    p = _supported(
        fx.doubling_spec(), {frozenset({"v0"})}, NormalData.of({0: [[2]]})
    )
    made = []
    subdivide = complexes.barycentric_subdivide
    build = SelfMapSpec.build
    monkeypatch.setattr(
        complexes, "barycentric_subdivide",
        lambda space: made.append(space) or subdivide(space),
    )
    monkeypatch.setattr(
        SelfMapSpec, "build",
        staticmethod(lambda *args: made.append(args) or build(*args)),
    )
    assert localization_report(p)["global_trace"] == g(1)
    assert made == []


def test_local_trace_is_built_once_per_problem(monkeypatch):
    calls = []
    original = fixedpoint.local_trace_function

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(fixedpoint, "local_trace_function", counting)
    p = fx.reflection_problem()
    localization_report(p)
    for index in range(2):
        lefschetz_cycle_table(p, index, _hexagon_heights())
        signed_local_contribution(p, index)
        local_contribution(p, index)
    assert calls == [p]


def _hexagon_heights():
    return VertexFunctional.of(fx.hexagon(), {f"v{i}": i for i in range(6)})


PER_COMPONENT = {
    "local_contribution": local_contribution,
    "signed_local_contribution": signed_local_contribution,
    "lefschetz_cycle_table": lambda p, i: lefschetz_cycle_table(p, i, _hexagon_heights()),
    "microlocal_index": lambda p, i: microlocal_index(p, i, _hexagon_heights()),
}


@pytest.mark.parametrize("index", [-1, 2, 7])
@pytest.mark.parametrize("entry", sorted(PER_COMPONENT))
def test_component_index_is_range_checked_without_normal_data(entry, index):
    p = TracedProblem(spec=fx.reflection_spec())
    with pytest.raises(DegenerateInputError, match="out of range 0..1"):
        PER_COMPONENT[entry](p, index)


def test_fixed_locus_is_computed_once_per_problem(monkeypatch):
    calls = []
    original = fixedpoint.fixed_subcomplex

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(fixedpoint, "fixed_subcomplex", counting)
    p = fx.reflection_problem()
    localization_report(p)
    for index in range(2):
        signed_local_contribution(p, index)
        lefschetz_cycle_table(p, index, _hexagon_heights())
    hyperbolicity_report(p)
    assert len(calls) == 1


def count_normal_facts(monkeypatch) -> dict:
    """Counts characteristic polynomials and Sturm counts as they run."""
    calls = {"char_poly": 0, "sturm": 0}
    char_poly = RationalMatrix.char_poly
    sturm = fixedpoint.count_real_roots_geq

    def counting_char_poly(matrix):
        calls["char_poly"] += 1
        return char_poly(matrix)

    def counting_sturm(poly, c):
        calls["sturm"] += 1
        return sturm(poly, c)

    monkeypatch.setattr(RationalMatrix, "char_poly", counting_char_poly)
    monkeypatch.setattr(fixedpoint, "count_real_roots_geq", counting_sturm)
    return calls


def heptagon_power_problem() -> tuple:
    """z -> z^8 on the heptagon (level 3): seven expanding fixed points."""
    spec = power_spec(7, 3, 0)
    p = TracedProblem(
        spec=spec,
        normal=NormalData.of({i: [[8]] for i in range(7)}),
        non_characteristic=True,
    )
    return p, VertexFunctional.of(spec.base, {f"u{i}": i for i in range(7)})


@pytest.mark.parametrize("case", ["heptagon", "doubling"])
def test_normal_facts_are_computed_once_per_component(monkeypatch, case):
    p, ell = (
        heptagon_power_problem()
        if case == "heptagon"
        else (fx.doubling_problem(), _hexagon_heights())
    )
    count = len(p.fixed_locus[1])
    calls = count_normal_facts(monkeypatch)
    for index in range(count):
        assert lefschetz_cycle_table(p, index, ell).sign == -1
        signed_local_contribution(p, index)
    rows = hyperbolicity_report(p)
    assert [row["meets_R_geq_1"] for row in rows] == [True] * count
    assert calls == {"char_poly": count, "sturm": count}


def test_localization_report_runs_no_sturm_count(monkeypatch):
    p, _ = heptagon_power_problem()
    calls = count_normal_facts(monkeypatch)
    assert localization_report(p)["equal"]
    assert calls == {"char_poly": 7, "sturm": 0}


def test_hyperbolicity_row_of_a_12x12_normal_matrix():
    # similar to the companion matrix of (t^2 + 1)(t - 3/2)(t + 2)(t - 1/3)^2
    # (t + 1/2)^3 (t + 5/4)(t - 2/3)(t + 3): one real root, 3/2, lies in
    # [1, oo), so its value at 1 is negative
    factors = [[1, 0, 1], [Fraction(-3, 2), 1], [2, 1], [Fraction(-1, 3), 1],
               [Fraction(-1, 3), 1], [Fraction(1, 2), 1], [Fraction(1, 2), 1],
               [Fraction(1, 2), 1], [Fraction(5, 4), 1], [Fraction(-2, 3), 1],
               [3, 1]]
    chi = RationalPolynomial.of([1])
    for factor in factors:
        chi = chi * RationalPolynomial.of(factor)
    assert chi.degree == 12
    rng = random.Random("fixedpoint:normal-12x12")
    matrix = oracles.similar_matrix(rng, oracles.companion(chi.coeffs[:-1]))
    p = TracedProblem(
        spec=SelfMapSpec.identity(fx.point_complex()),
        normal=NormalData.of({0: matrix}),
    )
    [row] = hyperbolicity_report(p)
    oracle = oracles.char_poly_faddeev_leverrier(matrix)
    assert oracle.coeffs == chi.coeffs
    assert oracle(1) < 0 and oracles.count_real_roots_geq_oracle(oracle, 1) == 1
    assert row == {
        "component": 0,
        "cells": 1,
        "normal_dim": 12,
        "one_is_eigenvalue": False,
        "meets_R_geq_1": True,
        "sign": -1,
    }


def test_refused_fixed_locus_is_not_cached():
    # the edge swap has a fixed midpoint; every call must refuse again
    space = fx.interval_complex()
    p = TracedProblem(spec=SelfMapSpec.build(space, 0, {"a": "b", "b": "a"}))
    for _ in range(2):
        with pytest.raises(FixedPointNotSimplicialError):
            hyperbolicity_report(p)


@pytest.mark.parametrize("stray", [-1, 2, 5])
@pytest.mark.parametrize(
    "entry", sorted(PER_COMPONENT) + ["localization_report", "hyperbolicity_report"]
)
def test_normal_data_for_a_missing_component_is_refused(entry, stray):
    normal = NormalData.of({0: [[-1]], 1: [[-1]], stray: [[7]]})
    p = TracedProblem(spec=fx.reflection_spec(), normal=normal)
    call = {
        "localization_report": lambda p, i: localization_report(p),
        "hyperbolicity_report": lambda p, i: hyperbolicity_report(p),
    }.get(entry, PER_COMPONENT.get(entry))
    with pytest.raises(
        DegenerateInputError,
        match=rf"normal data for component {stray} out of range 0\.\.1",
    ):
        call(p, 0)


def test_index_without_fixed_components_says_so():
    p = TracedProblem(spec=fx.rotation_spec())
    assert not p.fixed_locus[1]
    with pytest.raises(DegenerateInputError) as info:
        p.component(0)
    assert str(info.value) == "component index 0: the map has no fixed components"
    stray = TracedProblem(spec=fx.rotation_spec(), normal=NormalData.of({0: [[2]]}))
    with pytest.raises(DegenerateInputError, match="no fixed components"):
        localization_report(stray)


@pytest.mark.parametrize(
    "entries", [{0: [[1]], "0": [[2]]}, [(1, [[1]]), ("1", [[2]])]]
)
def test_normal_data_refuses_two_matrices_for_one_component(entries):
    with pytest.raises(DegenerateInputError, match="two normal matrices"):
        NormalData.of(entries)


@pytest.mark.parametrize("index", ["a", 1.5, True, None, (0,), "1.0", " 1"])
def test_normal_data_refuses_component_indices_that_are_not_integers(index):
    with pytest.raises(DegenerateInputError) as info:
        NormalData.of({index: [[1]]})
    assert str(info.value) == f"normal data names component {index!r}, not an integer"


def test_normal_data_reads_ints_and_decimal_strings():
    entries = {0: [[1]], "1": [[2]], "-1": [[3]]}
    assert [i for i, _ in NormalData.of(entries).matrices] == [-1, 0, 1]

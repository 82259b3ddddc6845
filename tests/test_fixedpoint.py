"""Fixed subcomplexes, localization, and hyperbolicity reports."""

import random
from fractions import Fraction

import pytest

import oracles

from lefscalc import fixtures as fx
from lefscalc.complexes import CellularSubset, SimplicialComplex, canonical_tuple
from lefscalc.errors import (
    DegenerateInputError,
    FixedPointNotSimplicialError,
    NotHyperbolicError,
    NotLocalizableError,
)
from lefscalc.exact import GaussianRational, Rat, RationalMatrix
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
from lefscalc import fixedpoint
from lefscalc.homology import lefschetz_number
from lefscalc.maps import SelfMapSpec, refine
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


def test_fixed_subcomplex_matches_scan_oracle():
    specs = [fx.reflection_spec(), fx.doubling_spec(), refine(fx.doubling_spec())]
    rng = random.Random(5)
    for _ in range(60):
        space = random_complex(rng)
        specs.append(random_self_map(rng, space))
    checked = 0
    for spec in specs:
        try:
            members = fixed_subcomplex(spec).members
        except FixedPointNotSimplicialError:
            continue
        assert members == oracles.fixed_members_by_scan(spec)
        checked += 1
    assert checked >= 30


def test_swap_edge_has_midpoint_fixed_point():
    # swapping the ends of an edge fixes its midpoint, which is not a vertex
    space = SimplicialComplex.from_maximal([("a", "b")])
    spec = SelfMapSpec.build(space, 0, {"a": "b", "b": "a"})
    with pytest.raises(FixedPointNotSimplicialError) as err:
        fixed_subcomplex(spec)
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


def test_not_hyperbolic_when_one_is_eigenvalue():
    p = TracedProblem(
        spec=fx.reflection_spec(),
        normal=NormalData.of({0: RationalMatrix.identity(1),
                              1: RationalMatrix.identity(1)}),
    )
    with pytest.raises(NotHyperbolicError):
        signed_local_contribution(p, 0)
    with pytest.raises(NotLocalizableError):
        local_contribution(p, 0)
    # force skips the sign and just integrates
    assert local_contribution(p, 0, force=True) == g(1)


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

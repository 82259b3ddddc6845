"""Deterministic self-checks and seeded random generators.

The verify command replays a fixed battery of identities on fixtures and
on pseudo-random inputs drawn from seeded generators, so two runs with
the same seed produce byte-identical reports.  The generators live here
because the test-suite draws from the same pool.
"""

from __future__ import annotations

import hashlib
import json
import random

from . import fixtures
from .complexes import SimplicialComplex, cell_sort_key
from .errors import NonSimplicialMapError
from .euler import ConstructibleFunction, combine, euler_integral, pushforward
from .exact import GaussianRational, Rat, parse_integer
from .fixedpoint import localization_report
from .flags import example_3_9
from .homology import hopf_trace, homology_traces, lefschetz_number
from .maps import SelfMapSpec, SimplicialMap
from .morse import VertexFunctional, cc_table, index_sum
from .records import Value, set_field
from .reports import Report


class CheckFailed(Exception):
    """An identity the battery relies on did not hold."""


# ---------------------------------------------------------------------------
# seeded random inputs

def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def random_complex(rng: random.Random, max_vertices: int = 7,
                   max_dim: int = 3, max_simplices: int = 40) -> SimplicialComplex:
    """Small random complex: a downward-closed set of random simplices."""
    n = rng.randint(1, max_vertices)
    names = [f"x{i}" for i in range(n)]
    maximal = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, min(max_dim + 1, n))
        maximal.append(tuple(rng.sample(names, size)))
    space = SimplicialComplex.from_maximal(maximal)
    while len(space.simplices) > max_simplices and len(maximal) > 1:
        maximal.pop()
        space = SimplicialComplex.from_maximal(maximal)
    return space


def random_self_map(rng: random.Random, space: SimplicialComplex,
                    attempts: int = 60) -> SelfMapSpec:
    """Random simplicial self-map at level zero; identity as a fallback."""
    names = list(space.vertices)
    for _ in range(attempts):
        vm = {v: rng.choice(names) for v in names}
        try:
            return SelfMapSpec.build(space, 0, vm)
        except NonSimplicialMapError:
            continue
    return SelfMapSpec.identity(space)


def random_gaussian(rng: random.Random) -> GaussianRational:
    def rat():
        return Rat(rng.randint(-4, 4), rng.randint(1, 3))

    return GaussianRational(rat(), rat())


def random_function(rng: random.Random, space) -> ConstructibleFunction:
    cells = sorted(space.cell_keys, key=cell_sort_key)
    table = {}
    for cell in cells:
        if rng.random() < 0.7:
            table[cell] = random_gaussian(rng)
    return ConstructibleFunction.of(space, table)


def random_functional(rng: random.Random,
                      space: SimplicialComplex) -> VertexFunctional:
    """Random heights, injective on vertices and hence edge-generic."""
    n = len(space.vertices)
    values = rng.sample(range(-3 * n - 2, 3 * n + 3), n)
    denom = rng.randint(1, 4)
    table = {v: Rat(values[i], denom) for i, v in enumerate(space.vertices)}
    return VertexFunctional.of(space, table)


def random_map_from(rng: random.Random, source: SimplicialComplex,
                    attempts: int = 60) -> SimplicialMap:
    """Random simplicial map out of the given complex; collapse as fallback."""
    target = random_complex(rng, max_vertices=5, max_dim=2, max_simplices=25)
    names = list(target.vertices)
    for _ in range(attempts):
        vm = {v: rng.choice(names) for v in source.vertices}
        try:
            return SimplicialMap.build(source, target, vm)
        except NonSimplicialMapError:
            continue
    point = fixtures.point_complex()
    return SimplicialMap.build(source, point, {v: "p" for v in source.vertices})


def random_map_between(rng: random.Random, attempts: int = 60) -> SimplicialMap:
    """Random simplicial map between two random complexes."""
    source = random_complex(rng, max_vertices=5, max_dim=2, max_simplices=25)
    return random_map_from(rng, source, attempts)


# ---------------------------------------------------------------------------
# the battery

class VerifyConfig(Value):
    __slots__ = _fields = ("seed", "cases")

    def __init__(self, seed: int = 0, cases: int = 25):
        set_field(self, "seed", parse_integer(seed, "seed"))
        set_field(self, "cases", parse_integer(cases, "cases", least=1))


def check_hopf_vs_homology(config: VerifyConfig) -> str:
    rng = _rng(config.seed, "hopf")
    for _ in range(config.cases):
        space = random_complex(rng)
        spec = random_self_map(rng, space)
        chain_level = hopf_trace(spec)
        homology_level = sum(
            (-1) ** k * t for k, t in enumerate(homology_traces(spec))
        )
        if chain_level != homology_level:
            raise CheckFailed(f"mismatch {chain_level} vs {homology_level}")
    return f"{config.cases} random self-maps agree"


def check_euler_pushforward(config: VerifyConfig) -> str:
    rng = _rng(config.seed, "push")
    for _ in range(config.cases):
        g = random_map_between(rng)
        phi = random_function(rng, g.source)
        direct = euler_integral(phi)
        pushed = euler_integral(pushforward(g, phi))
        if direct != pushed:
            raise CheckFailed(f"integrals differ: {direct} vs {pushed}")
    return f"{config.cases} pushforwards integrate correctly"


def check_morse_index(config: VerifyConfig) -> str:
    rng = _rng(config.seed, "morse")
    for _ in range(config.cases):
        space = random_complex(rng)
        phi = random_function(rng, space)
        ell = random_functional(rng, space)
        total = index_sum(phi, ell)
        integral = euler_integral(phi)
        if total != integral:
            raise CheckFailed(f"index sum {total} vs integral {integral}")
    return f"{config.cases} multiplicity tables sum to the integral"


def check_cc_linearity(config: VerifyConfig) -> str:
    rng = _rng(config.seed, "linear")
    rounds = max(1, config.cases // 5)
    for _ in range(rounds):
        space = random_complex(rng)
        ell = random_functional(rng, space)
        phi = random_function(rng, space)
        psi = random_function(rng, space)
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        lhs = cc_table(combine(a, phi, b, psi), ell).entries
        phi_table = cc_table(phi, ell).entries
        psi_table = cc_table(psi, ell).entries
        for v in phi_table:
            expected = a * phi_table[v] + b * psi_table[v]
            if lhs[v] != expected:
                raise CheckFailed(f"table not linear at {v!r}")
    return f"table linearity holds on {rounds} random combination(s)"


def check_fixture_localization(config: VerifyConfig) -> str:
    sphere = fixtures.identity_problem(fixtures.sphere2())
    rep = localization_report(sphere)
    if not rep["equal"] or str(rep["global_trace"]) != "2":
        raise CheckFailed("identity on the sphere fails to localize")
    rep = localization_report(fixtures.reflection_problem())
    if not rep["equal"] or len(rep["components"]) != 2:
        raise CheckFailed("reflection localization is wrong")
    rep = localization_report(fixtures.doubling_problem())
    if not rep["equal"] or str(rep["global_trace"]) != "-1":
        raise CheckFailed("doubling localization is wrong")
    return "sphere, reflection, and doubling all localize"


def check_rotation_vanishes(config: VerifyConfig) -> str:
    value = lefschetz_number(fixtures.rotation_spec())
    if value != 0:
        raise CheckFailed(f"rotation trace should vanish, got {value}")
    rep = localization_report(fixtures.identity_problem(fixtures.hexagon()))
    if not rep["equal"]:
        raise CheckFailed("identity on the circle fails to localize")
    return "rotation vanishes; circle identity localizes"


def check_worked_example(config: VerifyConfig) -> str:
    example = example_3_9()
    contributions = example.contributions()
    total = example.total()
    chi_sum = sum(p.chi() for p in example.patterns)
    if total != GaussianRational.of(chi_sum):
        raise CheckFailed(f"total {total} vs pattern chi sum {chi_sum}")
    if len(contributions) != 3:
        raise CheckFailed(f"expected three fixed spheres, got {len(contributions)}")
    parts = " + ".join(str(c) for _, _, c in contributions)
    return f"three fixed spheres contribute {parts} = {total}"


CHECKS = (
    ("hopf-vs-homology", check_hopf_vs_homology),
    ("euler-pushforward", check_euler_pushforward),
    ("morse-index", check_morse_index),
    ("cc-linearity", check_cc_linearity),
    ("fixture-localization", check_fixture_localization),
    ("rotation-vanishes", check_rotation_vanishes),
    ("worked-example", check_worked_example),
)


def run_all(config: VerifyConfig) -> Report:
    results = []
    for name, check in CHECKS:
        try:
            status, detail = "ok", check(config)
        except CheckFailed as exc:
            status, detail = "FAIL", str(exc)
        except Exception as exc:  # a crashing check is a failure, not an abort
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        results.append((name, status, detail))
    material = {"seed": config.seed, "cases": config.cases, "results": results}
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return Report(
        "verify",
        seed=config.seed,
        checks=tuple(tuple(r) for r in results),
        all_ok=all(status == "ok" for _, status, _ in results),
        digest=digest,
    )

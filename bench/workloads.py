"""Seeded inputs and exactly checked operations for the batch workloads.

Each workload is a function ``build_<name>(seed)`` that turns the seed into
library objects (this is the set-up the benchmark times as ``setup_s``)
and returns a list of ``Op``.  An op's ``compute`` calls the public API
and returns a plain JSON value (strings for exact numbers); its ``check``
asserts a fact that does not depend on the run: a closed form, or the
agreement of two independent routes.  The digest of the JSON value is
compared against the shipped references when the seed has one.

The seed only chooses labels, permutations, rotations, heights and
values, never the size of a problem, so a round costs about the same on
every seed.

Library functions are looked up through their module at call time
(``lc.homology.lefschetz_number``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import lefscalc as lc
from lefscalc import fixtures as fx

# Problem sizes of the batch workloads.  Power maps z -> z^(2^k) on an
# n-gon written at subdivision level k; the locus ones need n divisible by
# 2^k - 1 so that every fixed point is a base vertex.
TRACE_POWERS = ((6, 2),)
LOCUS_POWERS = ((7, 3),)
TRACE_S2_CARRIER_MAPS = 3
REFUSAL_GON = 8
FLAG_N_SCHUBERT = 5
FLAG_N_LOCI = 6
EXAMPLE_RATIOS = 3


@dataclass(frozen=True)
class Op:
    name: str
    compute: Callable[[], object]
    check: Callable[[object], None]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rng_for(seed: int, tag: str) -> random.Random:
    return random.Random(f"lefscalc-bench:{seed}:{tag}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def vjson(v):
    """A vertex as JSON: subdivision vertices are nested tuples.  (The
    library's io.vertex_to_json would add io spans to batch traces.)"""
    if isinstance(v, tuple):
        return [vjson(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# generators: seeded self-maps


def polygon(n: int, prefix: str = "u") -> lc.SimplicialComplex:
    names = [f"{prefix}{i}" for i in range(n)]
    return lc.SimplicialComplex.from_maximal(
        [(names[i], names[(i + 1) % n]) for i in range(n)]
    )


def _weights(vertex) -> dict:
    """Barycentric weights of a subdivision vertex over base vertices,
    computed here independently of the library."""
    if not isinstance(vertex, tuple):
        return {vertex: Fraction(1)}
    total = {}
    for part in vertex:
        for v, w in _weights(part).items():
            total[v] = total.get(v, Fraction(0)) + w / len(vertex)
    return total


def _angle_step(vertex, n: int, level: int) -> int:
    """Index m of a level-k subdivision vertex of the n-gon, at angle
    m / (n 2^k) of a full turn."""
    weights = _weights(vertex)
    index = {v: int(v[1:]) for v in weights}
    wraps = len(weights) > 1 and 0 in index.values() and n - 1 in index.values()
    x = sum(w * (n if wraps and index[v] == 0 else index[v]) for v, w in weights.items())
    m = x * 2 ** level
    if m.denominator != 1:
        raise ValueError(f"vertex {vertex!r} is not on the level-{level} grid")
    return int(m) % (n * 2 ** level)


def power_map(n: int, level: int, rotation: int) -> lc.SelfMapSpec:
    """z -> zeta z^(2^level) on an n-gon, zeta a rotation by `rotation`
    steps: the subdivision vertex at angle m/(n 2^k) goes to u_(m+r mod n).
    A circle map of degree d has L = 1 - d."""
    base = polygon(n)
    sd, _ = lc.maps.subdivided_complex(base, level)
    vm = {w: f"u{(_angle_step(w, n, level) + rotation) % n}" for w in sd.vertices}
    return lc.SelfMapSpec.build(base, level, vm)


def carrier_map(base, level: int, rng: random.Random, perm: dict) -> lc.SelfMapSpec:
    """Each sd^level vertex goes to a seeded vertex of its carrier, then
    through the automorphism `perm`.  The map is homotopic to `perm`."""
    sd, carrier = lc.maps.subdivided_complex(base, level)
    vm = {}
    for w in sd.vertices:
        corners = lc.canonical_tuple(carrier[frozenset([w])])
        vm[w] = perm[rng.choice(corners)]
    return lc.SelfMapSpec.build(base, level, vm)


def min_vertex_map(base, level: int, rank: dict) -> lc.SelfMapSpec:
    """Each sd^level vertex goes to the lowest-ranked vertex of its carrier;
    the fixed points are exactly the base vertices."""
    sd, carrier = lc.maps.subdivided_complex(base, level)
    vm = {w: min(carrier[frozenset([w])], key=rank.__getitem__) for w in sd.vertices}
    return lc.SelfMapSpec.build(base, level, vm)


def sign_of_permutation(perm: dict) -> int:
    keys = sorted(perm)
    images = [keys.index(perm[k]) for k in keys]
    inversions = sum(
        1 for a in range(len(images)) for b in range(a + 1, len(images))
        if images[a] > images[b]
    )
    return -1 if inversions % 2 else 1


def s2_permutation(rng: random.Random) -> dict:
    images = [1, 2, 3, 4]
    rng.shuffle(images)
    return dict(zip([1, 2, 3, 4], images))


def disk_rotation(rng: random.Random) -> dict:
    """A rotation of the hexagonal disk: fixes the cone point, degree 1 on
    the boundary, so L(D, dD) = 1 - L(boundary map) = 1."""
    k = rng.randrange(6)
    perm = {"c": "c"}
    perm.update({f"v{i}": f"v{(i + k) % 6}" for i in range(6)})
    return perm


def generic_heights(rng: random.Random, space) -> lc.VertexFunctional:
    n = len(space.vertices)
    values = rng.sample(range(-5 * n, 5 * n + 1), n)
    denom = rng.randint(1, 5)
    return lc.VertexFunctional.of(
        space, {v: Fraction(values[i], denom) for i, v in enumerate(space.vertices)}
    )


def gaussian(rng: random.Random) -> lc.GaussianRational:
    return lc.GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def seeded_function(rng: random.Random, space, density: float = 0.8):
    cells = sorted(space.simplices, key=lc.complexes.cell_sort_key)
    values = {c: gaussian(rng) for c in cells if rng.random() < density}
    return lc.ConstructibleFunction.of(space, values)


def hyperbolic_matrix(rng: random.Random, dim: int) -> lc.RationalMatrix:
    """A seeded rational matrix with det(I - A) != 0."""
    while True:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if det_independent([[Fraction(i == j) - rows[i][j] for j in range(dim)]
                            for i in range(dim)]) != 0:
            return lc.RationalMatrix(tuple(map(tuple, rows)))


def det_independent(rows) -> Fraction:
    """Leibniz-formula determinant, an independent route to sgn det(I - A)."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += -term if inversions % 2 else term
    return total


def sign(x) -> int:
    return (x > 0) - (x < 0)


def refusal_map(rng: random.Random) -> lc.SelfMapSpec:
    """A reflection of an even polygon across an axis through two edge
    midpoints: no vertex is fixed, the midpoints are, so the fixed set is
    not a subcomplex and the library must refuse it."""
    n = REFUSAL_GON
    axis = 2 * rng.randrange(n // 2) + 1
    return lc.SelfMapSpec.build(
        polygon(n), 0, {f"u{i}": f"u{(axis - i) % n}" for i in range(n)}
    )


# ---------------------------------------------------------------------------
# trace: homology-bound


def _trace_op(name: str, spec, expected: int) -> Op:
    def compute():
        traces = lc.homology.homology_traces(spec)
        total = sum(((-1) ** k) * t for k, t in enumerate(traces))
        return {
            "traces": [str(t) for t in traces],
            "lefschetz": str(total),
            "hopf": str(lc.homology.hopf_trace(spec)),
        }

    def check(out):
        expect(out["lefschetz"] == out["hopf"], f"{name}: hopf {out['hopf']} != L {out['lefschetz']}")
        expect(out["lefschetz"] == str(expected), f"{name}: L = {out['lefschetz']}, expected {expected}")

    return Op(name, compute, check)


def _localize_op(name: str, problem, expected: int) -> Op:
    def compute():
        rep = lc.fixedpoint.localization_report(problem)
        return {
            "global": str(rep["global_trace"]),
            "local": str(rep["sum_of_local"]),
            "equal": rep["equal"],
            "signed": [str(c["signed_contribution"]) for c in rep["components"]],
        }

    def check(out):
        expect(out["equal"] and out["global"] == out["local"], f"{name}: global {out['global']} != local {out['local']}")
        expect(out["global"] == str(expected), f"{name}: L = {out['global']}, expected {expected}")

    return Op(name, compute, check)


def build_trace(seed: int) -> list:
    ops = []
    s2 = fx.sphere2()
    sd1_s2 = lc.maps.subdivided_complex(s2, 1)[0]
    ops.append(_trace_op("identity-sd1-s2", lc.SelfMapSpec.identity(sd1_s2), 2))
    for i in range(TRACE_S2_CARRIER_MAPS):
        rng = rng_for(seed, f"trace-s2-{i}")
        perm = s2_permutation(rng)
        spec = carrier_map(s2, 1, rng, perm)
        ops.append(_trace_op(f"carrier-s2-{i}", spec, 1 + sign_of_permutation(perm)))
    rng = rng_for(seed, "trace-disk")
    disk = fx.disk()
    disk_spec = carrier_map(disk, 1, rng, disk_rotation(rng))
    boundary = frozenset(fx.disk_boundary_cells())

    def relative():
        return {"relative": str(lc.homology.relative_lefschetz_number(disk_spec, boundary))}

    ops.append(Op("relative-disk", relative,
                  lambda out: expect(out["relative"] == "1", f"L(D, dD) = {out['relative']}")))
    for n, k in TRACE_POWERS:
        r = rng_for(seed, f"trace-power-{n}-{k}").randrange(n)
        ops.append(_trace_op(f"power-n{n}k{k}", power_map(n, k, r), 1 - 2 ** k))
    ops.append(_localize_op("localize-reflection", fx.reflection_problem(), 2))
    ops.append(_localize_op("localize-doubling", fx.doubling_problem(), -1))
    n, k = TRACE_POWERS[0]
    r = (2 ** k - 1) * rng_for(seed, "trace-localize").randrange(n // (2 ** k - 1))
    spec = power_map(n, k, r)
    expanding = lc.RationalMatrix.of([[2 ** k]])
    problem = lc.TracedProblem(
        spec=spec,
        normal=lc.NormalData.of({i: expanding for i in range(2 ** k - 1)}),
        non_characteristic=True,
    )
    ops.append(_localize_op(f"localize-power-n{n}k{k}", problem, 1 - 2 ** k))
    return ops


# ---------------------------------------------------------------------------
# locus: fixed-locus-bound, no homology


def _locus_ops(name: str, problem, ell, expected_signs=None) -> list:
    """One op per fixed component (cycle table and signed contribution, two
    routes to the same number) plus one hyperbolicity report."""
    ops = []
    count = len(problem.normal.matrices)

    def component_op(index: int) -> Op:
        def compute():
            table = lc.morse.lefschetz_cycle_table(problem, index, ell)
            signed = lc.fixedpoint.signed_local_contribution(problem, index)
            return {
                "regime": table.regime,
                "sign": table.sign,
                "table": [[vjson(v), str(x)] for v, x in table.table.sorted_entries()],
                "microlocal": str(table.total()),
                "signed": str(signed),
            }

        def check(out):
            expect(out["microlocal"] == out["signed"],
                   f"{name}[{index}]: microlocal {out['microlocal']} != signed {out['signed']}")
            if expected_signs is not None:
                expect(out["signed"] == str(expected_signs[index]),
                       f"{name}[{index}]: signed {out['signed']}, expected {expected_signs[index]}")

        return Op(f"{name}-c{index}", compute, check)

    ops.extend(component_op(i) for i in range(count))
    independent = [
        sign(det_independent([[Fraction(i == j) - m.entry(i, j) for j in range(m.ncols)]
                              for i in range(m.nrows)]))
        for _, m in problem.normal.matrices
    ]

    def hyperbolicity():
        return [
            {k: row[k] for k in ("component", "cells", "normal_dim", "one_is_eigenvalue",
                                 "meets_R_geq_1", "sign")}
            for row in lc.fixedpoint.hyperbolicity_report(problem)
        ]

    def check_hyperbolicity(out):
        expect(len(out) == count, f"{name}: {len(out)} components, expected {count}")
        expect([row["sign"] for row in out] == independent,
               f"{name}: signs {[row['sign'] for row in out]} != {independent}")

    ops.append(Op(f"{name}-hyperbolicity", hyperbolicity, check_hyperbolicity))
    return ops


def build_locus(seed: int) -> list:
    ops = []
    for n, k in LOCUS_POWERS:
        rng = rng_for(seed, f"locus-power-{n}-{k}")
        r = (2 ** k - 1) * rng.randrange(n // (2 ** k - 1))
        spec = power_map(n, k, r)
        expanding = lc.RationalMatrix.of([[2 ** k]])
        problem = lc.TracedProblem(
            spec=spec,
            normal=lc.NormalData.of({i: expanding for i in range(2 ** k - 1)}),
            non_characteristic=True,
        )
        ops += _locus_ops(f"power-n{n}k{k}", problem, generic_heights(rng, spec.base),
                          [-1] * (2 ** k - 1))
    rng = rng_for(seed, "locus-fixtures")
    ops += _locus_ops("reflection", fx.reflection_problem(),
                      generic_heights(rng, fx.hexagon()), [1, 1])
    ops += _locus_ops("doubling", fx.doubling_problem(),
                      generic_heights(rng, fx.hexagon()), [-1])
    for name, base in (("s2", fx.sphere2()),):
        rng = rng_for(seed, f"locus-min-{name}")
        order = list(base.vertices)
        rng.shuffle(order)
        spec = min_vertex_map(base, 2, {v: i for i, v in enumerate(order)})
        problem = lc.TracedProblem(
            spec=spec,
            normal=lc.NormalData.of({i: hyperbolic_matrix(rng, 2) for i in range(len(order))}),
            non_characteristic=True,
        )
        ops += _locus_ops(f"min-vertex-{name}", problem, generic_heights(rng, base))
    refused = refusal_map(rng_for(seed, "locus-refusal"))

    def refusal():
        try:
            lc.fixedpoint.fixed_components(refused)
        except lc.FixedPointNotSimplicialError:
            return {"refused": True}
        return {"refused": False}

    ops.append(Op("refusal-edge-reflection", refusal,
                  lambda out: expect(out["refused"], "edge-midpoint reflection was not refused")))
    return ops


# ---------------------------------------------------------------------------
# euler: homology-free calculus


def bruhat_leq_independent(a: tuple, b: tuple) -> bool:
    """Tableau criterion: a <= b iff every sorted prefix of a is entrywise
    at most the sorted prefix of b (an independent route to the library's
    dot criterion)."""
    return all(
        x <= y
        for i in range(1, len(a))
        for x, y in zip(sorted(a[:i]), sorted(b[:i]))
    )


def block_shapes(n: int, rng: random.Random) -> list:
    """Every partition of n, each with its parts in a seeded order."""
    def partitions(m, largest):
        if m == 0:
            yield ()
            return
        for part in range(min(m, largest), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    shapes = []
    for shape in partitions(n, n):
        parts = list(shape)
        rng.shuffle(parts)
        shapes.append(tuple(parts))
    return shapes


def build_euler(seed: int) -> list:
    ops = []
    rng = rng_for(seed, "euler-push")
    sd1_disk = lc.maps.subdivided_complex(fx.disk(), 1)[0]
    ident = {v: v for v in sd1_disk.vertices}
    push_spec = carrier_map(sd1_disk, 2, rng, ident)
    phi = seeded_function(rng, sd1_disk)

    def push():
        pushed = lc.euler.pushforward_spec(push_spec, phi)
        return {
            "source": str(lc.euler.euler_integral(phi)),
            "target": str(lc.euler.euler_integral(pushed)),
            "values": digest([[[vjson(v) for v in lc.canonical_tuple(c)], str(x)]
                              for c, x in pushed.sorted_items()]),
        }

    ops.append(Op("pushforward-sd1-disk-l2", push,
                  lambda out: expect(out["source"] == out["target"],
                                     f"pushforward moved the integral {out['source']} -> {out['target']}")))

    rng = rng_for(seed, "euler-cc")
    sd3_disk = lc.maps.subdivided_complex(fx.disk(), 3)[0]
    psi = seeded_function(rng, sd3_disk, density=0.5)
    ell = generic_heights(rng, sd3_disk)

    def cc():
        table = lc.morse.cc_table(psi, ell)
        return {
            "table": digest([[vjson(v), str(x)] for v, x in table.sorted_entries()]),
            "total": str(table.total()),
            "index_sum": str(lc.morse.index_sum(psi, ell)),
            "integral": str(lc.euler.euler_integral(psi)),
        }

    def check_cc(out):
        expect(out["total"] == out["index_sum"] == out["integral"],
               f"index sum {out['index_sum']} vs integral {out['integral']}")

    ops.append(Op("cc-sd3-disk", cc, check_cc))

    model = lc.flag_cellspace(FLAG_N_SCHUBERT)
    perms = list(model.perms)
    rng_for(seed, "euler-schubert").shuffle(perms)
    expected_sizes = [sum(1 for u in model.perms if bruhat_leq_independent(u, w)) for w in perms]

    def schubert():
        return [lc.chi_c(lc.schubert_subset(model, w)) for w in perms]

    def check_schubert(out):
        expect(out == expected_sizes, "closure Euler characteristics differ from the tableau count")
        expect(max(out) == math.factorial(FLAG_N_SCHUBERT), f"chi of Fl(C^{FLAG_N_SCHUBERT}) is {max(out)}")

    ops.append(Op(f"schubert-closures-n{FLAG_N_SCHUBERT}", schubert, check_schubert))

    shapes = block_shapes(FLAG_N_LOCI, rng_for(seed, "euler-blocks"))

    def fixed_loci():
        out = []
        for blocks in shapes:
            space = lc.fixed_locus_cellspace(FLAG_N_LOCI, blocks)
            labels = {c.component for c in space.cells}
            out.append([list(blocks), lc.chi_c(space), len(labels)])
        return out

    def check_fixed_loci(out):
        for blocks, chi, components in out:
            multinomial = math.factorial(FLAG_N_LOCI)
            for b in blocks:
                multinomial //= math.factorial(b)
            expect(chi == math.factorial(FLAG_N_LOCI), f"chi of fixed locus {blocks} is {chi}")
            expect(components == multinomial, f"{blocks}: {components} components")

    ops.append(Op(f"fixed-loci-n{FLAG_N_LOCI}", fixed_loci, check_fixed_loci))

    rng = rng_for(seed, "euler-example")
    ratios = []
    while len(ratios) < EXAMPLE_RATIOS:
        ratio = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if ratio not in (0, 1) and ratio not in ratios:
            ratios.append(ratio)

    def example():
        out = []
        for ratio in ratios:
            ex = lc.example_3_9(ratio)
            out.append({
                "total": str(ex.total()),
                "chi_sum": sum(p.chi() for p in ex.patterns),
                "contributions": [str(c) for _, _, c in ex.contributions()],
            })
        return out

    def check_example(out):
        for row in out:
            expect(row["total"] == str(row["chi_sum"]), f"example total {row['total']} vs {row['chi_sum']}")
        expect(len({row["total"] for row in out}) == 1, "example total depends on the ratio")

    ops.append(Op("example-3-9", example, check_example))
    return ops


BATCH_WORKLOADS = {
    "trace": build_trace,
    "locus": build_locus,
    "euler": build_euler,
}

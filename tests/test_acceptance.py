"""Acceptance suite: ten exact end-to-end criteria, one pass/fail line each.

Run with -s to see the lines.  Every equality is exact (tolerance zero);
random cases are seeded so the suite is reproducible byte for byte.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracles
from lefscalc.complexes import CellularSubset, SimplicialComplex
from lefscalc.euler import (
    ConstructibleFunction,
    chi_c,
    combine,
    euler_integral,
    pushforward,
)
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.fixedpoint import (
    NormalData,
    TracedProblem,
    hyperbolicity_report,
    localization_report,
)
from lefscalc.flags import fixed_locus_cellspace, flag_cellspace
from lefscalc.homology import homology_traces, hopf_trace, lefschetz_number
from lefscalc.maps import SelfMapSpec, compose
from lefscalc.morse import VertexFunctional, cc_table, index_sum
from lefscalc.verify import (
    random_complex,
    random_function,
    random_functional,
    random_gaussian,
    random_map_between,
    random_map_from,
    random_self_map,
)

import lefscalc.fixtures as fx
from lefscalc.cli import main as cli_main
from lefscalc.reports import parse_report


def g(x):
    return GaussianRational.of(x)


class criterion:
    """Prints one [PASS]/[FAIL] line per acceptance criterion."""

    def __init__(self, number, text):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[{status}] criterion {self.number:2d}: {self.text}")
        return False


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_criterion_1_hopf_trace_theorem():
    with criterion(1, "hopf trace equals the alternating homology trace "
                      "on 200 random self-maps"):
        rng = random.Random("acceptance:hopf")
        for _ in range(200):
            space = random_complex(
                rng, max_vertices=7, max_dim=3, max_simplices=40
            )
            spec = random_self_map(rng, space)
            traces = homology_traces(spec)
            alternating = sum(
                ((-1) ** k) * t for k, t in enumerate(traces)
            )
            assert hopf_trace(spec) == alternating


def test_criterion_2_identity_gives_chi():
    with criterion(2, "identity trace is chi on fixtures; flag models and "
                      "fixed loci have chi = n!"):
        for name, make in sorted(fx.FIXTURE_COMPLEXES.items()):
            space = make()
            assert lefschetz_number(SelfMapSpec.identity(space)) == chi_c(space), name
        for n in range(1, 7):
            assert chi_c(flag_cellspace(n).space) == factorial(n)
            for blocks in partitions(n):
                assert chi_c(fixed_locus_cellspace(n, blocks)) == factorial(n)


def test_criterion_3_localization_fixtures():
    with criterion(3, "localization: 2 = 2 (sphere), 2 = 1 + 1 (reflection), "
                      "-1 = (-1)(1) (doubling, expanding normal)"):
        rep = localization_report(fx.identity_problem(fx.sphere2()))
        assert rep["equal"]
        assert rep["global_trace"] == g(2)
        assert [c["signed_contribution"] for c in rep["components"]] == [g(2)]

        rep = localization_report(fx.reflection_problem())
        assert rep["equal"]
        assert rep["global_trace"] == g(2)
        assert [c["sign"] for c in rep["components"]] == [1, 1]
        assert [c["integral"] for c in rep["components"]] == [g(1), g(1)]

        p = fx.doubling_problem()
        assert p.normal.matrix_for(0) == RationalMatrix.of([[2]])
        rep = localization_report(p)
        assert rep["equal"]
        assert rep["global_trace"] == g(-1)
        assert [c["sign"] for c in rep["components"]] == [-1]
        assert [c["integral"] for c in rep["components"]] == [g(1)]


def test_criterion_4_microlocal_index_theorem():
    with criterion(4, "index sum equals the Euler integral on 300 random "
                      "triples, independent of the functional"):
        rng = random.Random("acceptance:index")
        for _ in range(300):
            space = random_complex(
                rng, max_vertices=7, max_dim=3, max_simplices=40
            )
            phi = random_function(rng, space)
            integral = euler_integral(phi)
            totals = {
                index_sum(phi, random_functional(rng, space))
                for _ in range(5)
            }
            assert totals == {integral}


def test_criterion_5_interval_multiplicities():
    with criterion(5, "interval multiplicities are {a:1, b:0} increasing "
                      "and {a:0, b:1} decreasing"):
        space = fx.interval_complex()
        phi = ConstructibleFunction.indicator(space)
        up = cc_table(phi, fx.interval_functional(increasing=True))
        assert up.entries == {"a": g(1), "b": g(0)}
        down = cc_table(phi, fx.interval_functional(increasing=False))
        assert down.entries == {"a": g(0), "b": g(1)}


def test_criterion_6_pushforward_preserves_integrals():
    with criterion(6, "pushforward preserves Euler integrals on 300 random "
                      "pairs and is functorial on 100 compositions"):
        rng = random.Random("acceptance:fubini")
        for _ in range(300):
            push = random_map_between(rng)
            phi = random_function(rng, push.source)
            assert euler_integral(pushforward(push, phi)) == euler_integral(phi)
        for _ in range(100):
            h = random_map_between(rng)
            gmap = random_map_from(rng, h.target)
            phi = random_function(rng, h.source)
            once = pushforward(compose(gmap, h), phi)
            twice = pushforward(gmap, pushforward(h, phi))
            assert once == twice


def test_criterion_7_linearity():
    with criterion(7, "tables and integrals are linear over the Gaussian "
                      "rationals on 100 random pairs"):
        rng = random.Random("acceptance:linear")
        for _ in range(100):
            space = random_complex(
                rng, max_vertices=6, max_dim=3, max_simplices=30
            )
            ell = random_functional(rng, space)
            phi = random_function(rng, space)
            psi = random_function(rng, space)
            a, b = random_gaussian(rng), random_gaussian(rng)
            mix = combine(a, phi, b, psi)
            assert euler_integral(mix) == (
                a * euler_integral(phi) + b * euler_integral(psi)
            )
            lhs = cc_table(mix, ell).entries
            ta = cc_table(phi, ell).entries
            tb = cc_table(psi, ell).entries
            for v in space.vertices:
                assert lhs[v] == a * ta[v] + b * tb[v]


def one_component_problem(matrix: RationalMatrix) -> TracedProblem:
    space = fx.point_complex()
    return TracedProblem(
        spec=SelfMapSpec.identity(space),
        normal=NormalData.of({0: matrix}),
    )


def test_criterion_8_eigenvalue_predicates():
    with criterion(8, "hyperbolicity predicates match root-isolation oracles "
                      "on 200 random matrices"):
        rng = random.Random("acceptance:spectra")
        for _ in range(200):
            n = rng.randint(1, 4)
            matrix = RationalMatrix.of(
                [
                    [
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            row = hyperbolicity_report(one_component_problem(matrix))[0]
            gap = oracles.add(RationalMatrix.identity(n), matrix, -1)
            det = oracles.det_cofactor(gap)
            char = oracles.char_poly_interpolated(matrix)
            assert row["normal_dim"] == n
            assert row["one_is_eigenvalue"] == (det == 0)
            assert row["meets_R_geq_1"] == (
                oracles.count_real_roots_geq_oracle(char, 1) > 0
            )
            assert row["sign"] == (det > 0) - (det < 0)


def test_criterion_9_worked_example(tmp_path, capsys):
    with criterion(9, "fixed spheres against the divisor: the plane-closure "
                      "component contributes 2 and the total is the sum"):
        def run(ratio):
            code = cli_main(["example-3-9", "--ratio", ratio, "--json"])
            out = capsys.readouterr().out
            assert code == 0
            return parse_report(json.loads(out))

        report = run("2")
        rows = {row[1]: row for row in report.components}
        plane_row = rows["lines_in_plane"]
        assert plane_row[2] is True          # contained in the divisor
        assert plane_row[4] == g(2)          # so it contributes chi = 2
        total = g(0)
        for row in report.components:
            total = total + row[4]
        assert report.total == total
        assert report.chi_of_divisor == sum(
            2 if row[2] else row[3] for row in report.components
        )
        # re-derivation is stable, including under a different eigenvalue ratio
        assert run("2") == report
        again = run("5/3")
        assert again.components == report.components
        assert again.total == report.total


def test_criterion_10_verify_is_deterministic():
    with criterion(10, "the verify battery is byte-identical across "
                       "processes and hash seeds"):
        outputs = []
        for hash_seed in ("0", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [
                    sys.executable, "-m", "lefscalc.cli",
                    "verify", "--seed", "7", "--cases", "6", "--json",
                ],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        report = parse_report(json.loads(outputs[0].decode("utf-8")))
        assert report.all_ok
        assert len(report.digest) == 64

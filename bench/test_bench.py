"""Fast tests of the benchmark's own generators, checks and tracer."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import lefscalc as lc
from lefscalc import fixtures as fx
from lefscalc.io import dumps, loads, problem_to_json, traced_problem_to_json

import cli_load
import run as bench
import speed
import workloads as w
from tracer import Tracer

SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
def test_carrier_maps_build_as_simplicial_specs(seed):
    rng = w.rng_for(seed, "test-carrier")
    perm = w.s2_permutation(rng)
    spec = w.carrier_map(fx.sphere2(), 1, rng, perm)
    assert isinstance(spec, lc.SelfMapSpec) and spec.level == 1
    carrier = spec.carrier()
    for v, image in spec.vertex_map.items():
        assert image in {perm[u] for u in carrier[frozenset([v])]}
    rotation = w.disk_rotation(rng)
    assert w.carrier_map(fx.disk(), 1, rng, rotation).as_map().target == fx.disk()


@pytest.mark.parametrize("seed", SEEDS)
def test_power_maps_build_with_vertex_fixed_points(seed):
    rng = w.rng_for(seed, "test-power")
    n, k = 6, 2
    spec = w.power_map(n, k, rng.randrange(n))
    assert spec.level == k and len(spec.vertex_map) == n * 2 ** k
    rotation = (2 ** k - 1) * rng.randrange(n // (2 ** k - 1))
    fixed = w.power_map(n, k, rotation)
    # z -> zeta z^4 has 2^k - 1 = 3 fixed points, all of them base vertices
    assert len(lc.fixed_components(fixed)) == 2 ** k - 1


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_midpoint_reflection_is_refused(seed):
    spec = w.refusal_map(w.rng_for(seed, "test-refusal"))
    with pytest.raises(lc.FixedPointNotSimplicialError):
        lc.fixed_components(spec)


@pytest.mark.parametrize("seed", SEEDS)
def test_problem_files_round_trip_through_io(seed):
    rng = w.rng_for(seed, "test-io")
    spec = w.power_map(6, 2, 3 * rng.randrange(2))
    problem = lc.TracedProblem(
        spec=spec,
        normal=lc.NormalData.of({i: w.hyperbolic_matrix(rng, 1) for i in range(3)}),
        non_characteristic=True,
    )
    ell = w.generic_heights(rng, spec.base)
    parsed = loads(dumps(traced_problem_to_json(problem, ell=ell)))
    assert parsed.spec == spec
    assert parsed.normal == problem.normal and parsed.non_characteristic
    assert parsed.ell.values == ell.values

    order = list(fx.sphere2().vertices)
    rng.shuffle(order)
    nested = w.min_vertex_map(fx.sphere2(), 2, {v: i for i, v in enumerate(order)})
    assert loads(dumps(problem_to_json(nested.base, spec=nested))).spec == nested

    space = lc.maps.subdivided_complex(fx.disk(), 1)[0]
    phi = w.seeded_function(rng, space)
    assert loads(dumps(problem_to_json(space, phi=phi))).phi == phi


def test_checks_reject_wrong_answers():
    op = w._trace_op("identity", lc.SelfMapSpec.identity(fx.sphere2()), expected=3)
    with pytest.raises(AssertionError):
        op.check(op.compute())
    command = {"name": "chi", "exit": 0, "fields": {"chi": 2}, "equal": []}
    cli_load.check(command, 0, json.dumps({"kind": "chi", "chi": 2}), "")
    with pytest.raises(AssertionError):
        cli_load.check(command, 0, json.dumps({"kind": "chi", "chi": 1}), "")
    with pytest.raises(AssertionError):
        cli_load.check(dict(command, exit=3), 0, "", "")


def test_traced_outputs_equal_untraced_outputs():
    chosen = {"localize-doubling", "localize-power-n6k2", "power-n6k2",
              "reflection-c0", "doubling-c0", "doubling-hyperbolicity",
              "refusal-edge-reflection"}
    ops = [op for op in w.build_trace(3) + w.build_locus(3) if op.name in chosen]
    assert len(ops) == len(chosen)
    plain = {op.name: w.digest(op.compute()) for op in ops}
    tracer = Tracer()
    tracer.install()
    try:
        traced = {op.name: w.digest(op.compute()) for op in ops}
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = tracer.summary()
    assert layers["homology.chain_complex.calls"] > 0
    assert layers["fixedpoint.fixed_subcomplex.calls"] > 0
    assert layers["exact.lp.calls"] > 0
    # uninstall restores every wrapped attribute
    assert lc.homology.chain_complex.__module__ == "lefscalc.homology"
    assert not hasattr(lc.homology.chain_complex, "__wrapped__")


def test_speed_scale_is_reference_over_mean_loop_time():
    assert speed.scale([speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    assert speed.scale([speed.REFERENCE_S, 3 * speed.REFERENCE_S]) == pytest.approx(0.5)
    assert speed.loop_seconds() > 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 61))
    assert bench.percentile(values, 50) == 30
    assert bench.percentile(values, 80) == 48


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "trace",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

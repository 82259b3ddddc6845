"""The ``cli`` workload: problem files, the command cycle and its checks.

``write_inputs`` runs in a child process (it needs lefscalc); it writes the
seeded problem files and ``commands.json``.  The runner reads that file and
never imports lefscalc itself.  Each command entry carries the expected
exit code, report fields with their exact expected values, and pairs of
report fields that must agree; the runner checks them with ``check``.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

COMMANDS_FILE = "commands.json"
# verify draws its own cases from its --seed, and their cost differs by up
# to 60 % between seeds, so every cycle verifies the same cases.
VERIFY_SEED = 0


def _g(x) -> dict:
    """A rational as the JSON form of a Gaussian rational."""
    return {"re": str(Fraction(x)), "im": "0"}


def _command(name, argv, exit_code=0, fields=None, equal=()):
    return {
        "name": name,
        "argv": argv,
        "exit": exit_code,
        "fields": fields or {},
        "equal": [list(pair) for pair in equal],
    }


def write_inputs(seed: int, directory: str) -> list:
    """Write the problem files for `seed` into `directory`; return the
    command cycle (also written to commands.json)."""
    import lefscalc as lc
    from lefscalc import fixtures as fx
    from lefscalc.io import dumps, problem_to_json, traced_problem_to_json

    import workloads as w

    os.makedirs(directory, exist_ok=True)

    def put(name: str, data: dict) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(data))
        return path

    commands = []
    commands.append(_command("chi", ["chi", "--input", put("s2.json", problem_to_json(fx.sphere2()))],
                             fields={"chi": 2}))

    # The large file: sd^2(disk) with values on every cell and a functional.
    rng = w.rng_for(seed, "cli-big")
    big_space = lc.maps.subdivided_complex(fx.disk(), 2)[0]
    phi = w.seeded_function(rng, big_space, density=1.0)
    ell = w.generic_heights(rng, big_space)
    # The Euler integral, summed here without the library: an open k-cell
    # weighs (-1)^k.
    signed = [((-1) ** (len(c) - 1), x) for c, x in phi.values.items()]
    integral_json = {
        "re": str(sum((w * x.re for w, x in signed), Fraction(0))),
        "im": str(sum((w * x.im for w, x in signed), Fraction(0))),
    }
    big = put("sd2-disk.json", problem_to_json(big_space, phi=phi, ell=ell))
    commands.append(_command("integrate", ["integrate", "--input", big],
                             fields={"integral": integral_json}))
    commands.append(_command("cc", ["cc", "--input", big], fields={"total": integral_json}))
    commands.append(_command("index-check", ["index-check", "--input", big],
                             fields={"integral": integral_json, "equal": True},
                             equal=[("index_sum", "integral")]))

    n, k = w.TRACE_POWERS[0]
    rng = w.rng_for(seed, "cli-power")
    plain = w.power_map(n, k, rng.randrange(n))
    commands.append(_command(
        "lefschetz", ["lefschetz", "--input", put("power.json", problem_to_json(plain.base, spec=plain))],
        fields={"global_trace": _g(1 - 2 ** k)}))

    rotation = (2 ** k - 1) * rng.randrange(n // (2 ** k - 1))
    spec = w.power_map(n, k, rotation)
    expanding = lc.RationalMatrix.of([[2 ** k]])
    problem = lc.TracedProblem(
        spec=spec,
        normal=lc.NormalData.of({i: expanding for i in range(2 ** k - 1)}),
        non_characteristic=True,
    )
    localized = put("power-localized.json",
                    traced_problem_to_json(problem, ell=w.generic_heights(rng, spec.base)))
    commands.append(_command("lefschetz-localized", ["lefschetz", "--input", localized],
                             fields={"global_trace": _g(1 - 2 ** k), "sum_of_local": _g(1 - 2 ** k),
                                     "equal": True}))
    component = rng.randrange(2 ** k - 1)
    commands.append(_command("morse", ["morse", "--input", localized, "--component", str(component)],
                             fields={"component": component, "sign": -1, "total": _g(-1)}))

    rng = w.rng_for(seed, "cli-push")
    disk = fx.disk()
    sd1, carrier = lc.maps.subdivided_complex(disk, 1)
    vm = {v: rng.choice(lc.canonical_tuple(carrier[frozenset([v])])) for v in sd1.vertices}
    push_map = lc.SimplicialMap.build(sd1, disk, vm)
    push_phi = w.seeded_function(rng, sd1)
    commands.append(_command(
        "pushforward",
        ["pushforward", "--input", put("push.json", problem_to_json(sd1, push_map=push_map, phi=push_phi))],
        fields={"equal": True}, equal=[("source_integral", "target_integral")]))

    rng = w.rng_for(seed, "cli-flags")
    n_flag = w.FLAG_N_SCHUBERT
    blocks = rng.choice(w.block_shapes(n_flag, rng))
    components = math.factorial(n_flag)
    for b in blocks:
        components //= math.factorial(b)
    commands.append(_command(
        "flag-model", ["flag-model", "--n", str(n_flag), "--blocks", ",".join(map(str, blocks))],
        fields={"chi": math.factorial(n_flag), "component_count": components}))

    numerator = rng.randint(2, 9)
    ratio = Fraction(numerator, rng.choice([d for d in range(1, 8) if d != numerator]))
    commands.append(_command("example-3-9", ["example-3-9", "--ratio", str(ratio)],
                             fields={"total": _g(5), "chi_of_divisor": 5}))
    commands.append(_command("verify", ["verify", "--seed", str(VERIFY_SEED), "--cases", "25"],
                             fields={"all_ok": True, "seed": VERIFY_SEED}))

    refused = w.refusal_map(w.rng_for(seed, "cli-refusal"))
    refusal = lc.TracedProblem(spec=refused, normal=lc.NormalData.of({0: [["-1"]]}))
    commands.append(_command(
        "lefschetz-refused", ["lefschetz", "--input", put("refusal.json", traced_problem_to_json(refusal))],
        exit_code=3))

    for command in commands:
        command["argv"] = [*command["argv"], "--json"]
    with open(os.path.join(directory, COMMANDS_FILE), "w", encoding="utf-8") as handle:
        json.dump(commands, handle, indent=1, sort_keys=True)
    return commands


def check(command: dict, exit_code: int, stdout: str, stderr: str) -> None:
    """Raise AssertionError unless the command's output is exactly right."""
    if exit_code != command["exit"]:
        raise AssertionError(
            f"{command['name']}: exit {exit_code}, expected {command['exit']}: {stderr.strip()[-200:]}"
        )
    if command["exit"] != 0:
        if stdout.strip() or not stderr.startswith("error:"):
            raise AssertionError(f"{command['name']}: a refusal must print only an error")
        return
    report = json.loads(stdout)
    for key, value in command["fields"].items():
        if report.get(key) != value:
            raise AssertionError(f"{command['name']}: {key} = {report.get(key)!r}, expected {value!r}")
    for a, b in command["equal"]:
        if report.get(a) != report.get(b):
            raise AssertionError(f"{command['name']}: {a} {report.get(a)!r} != {b} {report.get(b)!r}")

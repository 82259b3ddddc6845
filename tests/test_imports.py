"""What each entry point imports, the package's public names, and the
module state a workload leaves behind."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import lefscalc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lefscalc.__file__)))

# sorted(lefscalc.__all__) when the package imported every layer eagerly:
# its re-exports and the layer modules those come from
PUBLIC_NAMES = [
    "BruhatCellSpace", "Cell", "CellSpace", "CellSpaceUnsupportedError",
    "CellularSubset", "ConstructibleFunction", "CycleTableReport",
    "DegenerateInputError", "FixedPointNotSimplicialError", "GaussianRational",
    "GenericityError", "InvalidComplexError", "LefscalcError",
    "MultiplicityTable", "NoApplicableRegimeError", "NonSimplicialMapError",
    "NormalData", "NotHyperbolicError", "ParseError",
    "Rat", "RationalMatrix", "RationalPolynomial", "SelfMapSpec",
    "SimplicialComplex", "SimplicialMap", "TracedProblem", "VertexFunctional",
    "barycentric_subdivide", "betti", "bruhat_leq", "canonical_tuple",
    "cc_table", "chain_complex", "chi_c", "combine", "complexes", "compose",
    "connected_components", "count_real_roots_geq",
    "derive_intersection_pattern", "errors", "euler", "euler_characteristic",
    "euler_integral", "exact", "example_3_9", "fixed_components",
    "fixed_locus_cellspace", "fixed_subcomplex", "fixedpoint",
    "flag_cellspace", "flags", "genericity_check", "homology",
    "homology_trace", "homology_traces", "hopf_trace", "hyperbolicity_report",
    "index_sum", "induced_subcomplex", "lefschetz_cycle_table",
    "lefschetz_number", "link", "local_contribution", "local_trace_function",
    "localization_report", "maps", "microlocal_index", "morse",
    "morse_multiplicity", "parse_rational", "pullback", "pushforward",
    "pushforward_spec", "refine", "relative_betti",
    "relative_lefschetz_number", "restrict", "schubert_subset",
    "self_map_endomorphism", "signed_local_contribution", "star",
    "subdivided_complex", "validate",
]

LOADED = """
import json, sys
{setup}
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(setup: str) -> set:
    """Every module a fresh interpreter holds after `setup`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", LOADED.format(setup=setup)],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(run.stdout.splitlines()[-1]))


def loaded_modules(setup: str) -> set:
    """The lefscalc modules a fresh interpreter holds after `setup`."""
    return {
        name.rpartition(".")[2]
        for name in modules_after(setup) if name.startswith("lefscalc")
    }


def test_importing_the_cli_loads_no_layer_a_command_may_skip():
    loaded = loaded_modules("import lefscalc.cli")
    assert {"cli", "reports", "errors"} <= loaded
    assert not loaded & {
        "homology", "fixedpoint", "morse", "flags", "io", "verify", "fixtures"
    }


@pytest.mark.parametrize(
    "argv", [["flag-model", "--n", "3", "--blocks", "2,1"], ["example-3-9", "--ratio", "-3/4"]]
)
def test_flag_commands_load_no_problem_layer(argv):
    loaded = loaded_modules(f"from lefscalc.cli import main; main({argv!r})")
    assert "flags" in loaded
    assert not loaded & {"homology", "fixedpoint", "morse", "io", "verify", "fixtures"}


def test_problem_commands_load_no_flag_layer(tmp_path):
    from lefscalc import fixtures
    from lefscalc.io import dumps, traced_problem_to_json

    path = tmp_path / "reflection.json"
    path.write_text(dumps(traced_problem_to_json(fixtures.reflection_problem())))
    loaded = loaded_modules(
        f"from lefscalc.cli import main; main(['lefschetz', '--input', {str(path)!r}])"
    )
    assert {"io", "homology", "fixedpoint"} <= loaded
    assert not loaded & {"flags", "verify", "fixtures"}


def _problem_files(tmp_path) -> dict:
    """A problem file for each command that reads neither homology nor
    fixed points: a self-map without normal data, values and a functional,
    and a map with a target."""
    from lefscalc import fixtures
    from lefscalc.io import dumps, problem_to_json

    hexagon = fixtures.hexagon()
    ell = {f"v{i}": i for i in range(6)}
    push = fixtures.square_projection()
    files = {
        "map": problem_to_json(hexagon, spec=fixtures.rotation_spec()),
        "ell": dict(problem_to_json(hexagon), ell=list(map(list, ell.items()))),
        "push": problem_to_json(push.source, push_map=push),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(dumps(data))
    return {name: str(tmp_path / f"{name}.json") for name in files}


@pytest.mark.parametrize(
    "command, file",
    [("chi", "map"), ("integrate", "map"), ("cc", "ell"),
     ("index-check", "ell"), ("pushforward", "push")],
)
def test_problem_commands_without_fixed_points_load_no_fixed_point_layer(
    tmp_path, command, file
):
    argv = [command, "--input", _problem_files(tmp_path)[file]]
    loaded = loaded_modules(f"from lefscalc.cli import main\nassert main({argv!r}) == 0")
    assert "io" in loaded
    assert not loaded & {"homology", "fixedpoint"}


def test_importing_the_package_loads_no_layer():
    assert loaded_modules("import lefscalc") == {"lefscalc"}


def test_public_names_are_unchanged():
    assert sorted(lefscalc.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(lefscalc))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_the_object_its_module_defines(name):
    value = getattr(lefscalc, name)
    module = lefscalc._EXPORTS.get(name)
    if module is None:
        assert value is import_module(f"lefscalc.{name}")
    else:
        assert value is getattr(import_module(f"lefscalc.{module}"), name)


def test_submodules_resolve_as_attributes():
    for name in ("fixtures", "io", "reports", "verify", "cli", "maps"):
        assert getattr(lefscalc, name) is import_module(f"lefscalc.{name}")
    assert lefscalc.fixtures.hexagon() == import_module("lefscalc.fixtures").hexagon()


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lefscalc.no_such_name
    assert not hasattr(lefscalc, "tests")
    assert loaded_modules(
        "import lefscalc\ntry:\n    lefscalc.io_\nexcept AttributeError:\n    pass"
    ) == {"lefscalc"}


# The standard library's class generator and the introspection it pulls in
# (ast, dis, tokenize) cost a command more than lefscalc's own import.
INTROSPECTION = {"dataclasses", "inspect"}


def _layers() -> list:
    package = os.path.dirname(lefscalc.__file__)
    return sorted(
        f"lefscalc.{name[:-3]}" for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    )


@pytest.mark.parametrize(
    "setup", ["import lefscalc.cli", "import " + ", ".join(_layers())],
    ids=["cli", "every layer"],
)
def test_no_layer_imports_dataclasses_or_inspect(setup):
    assert not modules_after(setup) & INTROSPECTION


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    from lefscalc import fixtures
    from lefscalc.io import dumps, traced_problem_to_json
    from lefscalc.morse import VertexFunctional

    files = _problem_files(tmp_path)
    ell = VertexFunctional.of(fixtures.hexagon(), {f"v{i}": i for i in range(6)})
    traced = traced_problem_to_json(fixtures.doubling_problem(), ell=ell)
    files["traced"] = str(tmp_path / "traced.json")
    (tmp_path / "traced.json").write_text(dumps(traced))
    commands = [
        ["chi", "--input", files["map"]],
        ["integrate", "--input", files["map"]],
        ["lefschetz", "--input", files["map"]],
        ["lefschetz", "--input", files["traced"]],
        ["morse", "--input", files["traced"], "--component", "0"],
        ["cc", "--input", files["ell"]],
        ["index-check", "--input", files["ell"]],
        ["pushforward", "--input", files["push"]],
        ["flag-model", "--n", "3", "--blocks", "2,1"],
        ["example-3-9", "--ratio", "-3/4"],
        ["verify", "--cases", "1"],
    ]
    setup = "from lefscalc.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in commands
    )
    assert not modules_after(setup) & INTROSPECTION


# Every layer is imported first; then the workload subdivides the disk
# twice, round-trips the result through a problem file, and takes the
# Lefschetz number of its identity.  Each module-level dict, list or set
# whose size changed is printed.
MODULE_STATE = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
from lefscalc import fixtures, io
from lefscalc.complexes import subdivided_complex
from lefscalc.homology import lefschetz_number
from lefscalc.maps import SelfMapSpec

def sizes():
    return {
        f"{name}.{attr}": len(value)
        for name, module in list(sys.modules.items()) if name.startswith("lefscalc")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }

before = sizes()
space = subdivided_complex(fixtures.disk(), 2)[0]
parsed = io.loads(io.dumps(io.problem_to_json(space))).space
assert parsed == space and len(space.simplices) > 400
assert lefschetz_number(SelfMapSpec.identity(parsed)) == 1
after = sizes()
print(json.dumps({k: [before.get(k), n] for k, n in after.items() if n != before.get(k)}))
"""


def test_no_module_level_container_grows_while_the_library_works():
    # a module-global memo would keep every vertex or complex it has seen
    # alive for the life of the process; lru_caches are functions and are
    # not counted
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", MODULE_STATE, *_layers()],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == {}

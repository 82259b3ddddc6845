"""Command line driver: reports, exit codes, and determinism."""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import lefscalc.fixtures as fx
import oracles
from lefscalc.cli import main
from lefscalc.complexes import CellularSubset, SimplicialComplex
from lefscalc.errors import (
    DegenerateInputError,
    FixedPointNotSimplicialError,
    GenericityError,
    NoApplicableRegimeError,
    NonSimplicialMapError,
    NotHyperbolicError,
    ParseError,
)
from lefscalc.exact import GaussianRational, RationalMatrix
from lefscalc.fixedpoint import NormalData, TracedProblem
from lefscalc.io import SCHEMA, dumps, problem_to_json, traced_problem_to_json
from lefscalc.morse import VertexFunctional
from lefscalc.reports import FIELDS, Report, parse_report


def g(x):
    return GaussianRational.of(x)


def write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(dumps(data), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, parse_report(json.loads(out))


def hexagon_heights():
    return VertexFunctional.of(
        fx.hexagon(), {f"v{i}": i for i in range(6)}
    )


# ---------------------------------------------------------------------------
# basic commands


def test_chi_text_output(tmp_path, capsys):
    path = write(tmp_path, "disk.json", problem_to_json(fx.disk()))
    assert main(["chi", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "kind: chi" in out
    assert "chi: 1" in out


def test_chi_json_output(tmp_path, capsys):
    path = write(tmp_path, "s2.json", problem_to_json(fx.sphere2()))
    code, report = run_json(capsys, ["chi", "--input", path])
    assert code == 0
    assert report.chi == 2


def test_integrate_defaults_to_indicator(tmp_path, capsys):
    space = fx.interval_complex()
    path = write(tmp_path, "interval.json", problem_to_json(space))
    code, report = run_json(capsys, ["integrate", "--input", path])
    assert code == 0 and report.integral == g(1)


def test_integrate_with_values(tmp_path, capsys):
    space = fx.interval_complex()
    data = problem_to_json(space)
    data["values"] = [[["a"], "5"], [["a", "b"], {"re": "0", "im": "2"}]]
    path = write(tmp_path, "vals.json", data)
    code, report = run_json(capsys, ["integrate", "--input", path])
    assert code == 0
    assert report.integral == g(5) - GaussianRational(Fraction(0), Fraction(2))


def test_lefschetz_plain_report(tmp_path, capsys):
    space = fx.hexagon()
    path = write(
        tmp_path, "rot.json", problem_to_json(space, spec=fx.rotation_spec())
    )
    code, report = run_json(capsys, ["lefschetz", "--input", path])
    assert code == 0
    assert report.global_trace == g(0)
    assert report.degree_traces == ((0, g(1)), (1, g(1)))


def test_lefschetz_localized_report(tmp_path, capsys):
    p = fx.reflection_problem()
    path = write(tmp_path, "refl.json", traced_problem_to_json(p))
    code, report = run_json(capsys, ["lefschetz", "--input", path])
    assert code == 0
    assert report.kind if hasattr(report, "kind") else True
    assert report.global_trace == g(2)
    assert report.sum_of_local == g(2)
    assert report.equal
    assert len(report.components) == 2
    assert [c["signed_contribution"] for c in report.components] == [g(1), g(1)]


def test_lefschetz_needs_a_map(tmp_path, capsys):
    path = write(tmp_path, "bare.json", problem_to_json(fx.hexagon()))
    assert main(["lefschetz", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_morse_command(tmp_path, capsys):
    p = fx.doubling_problem()
    path = write(
        tmp_path,
        "doubling.json",
        traced_problem_to_json(p, ell=hexagon_heights()),
    )
    code, report = run_json(capsys, ["morse", "--input", path, "--component", "0"])
    assert code == 0
    assert report.regime == "signed-non-characteristic"
    assert report.sign == -1
    assert report.total == g(-1)
    assert dict(report.table)["v0"] == g(-1)


def expanding_normal_9x9() -> RationalMatrix:
    """A dense 9 x 9 matrix similar to diag(2, 1/2, ..., 1/2): one
    expanding direction, so det(I - A) < 0 as for the doubling's [[2]]."""
    diagonal = [2] + [Fraction(1, 2)] * 8
    d = RationalMatrix.of(
        [[x if i == j else 0 for j in range(9)] for i, x in enumerate(diagonal)]
    )
    return oracles.similar_matrix(random.Random("cli:normal-9x9"), d)


def test_morse_takes_a_9x9_normal_matrix_with_the_sign_of_lefschetz(tmp_path, capsys):
    # the characteristic polynomial has no size bound, so the regime of a
    # 9 x 9 normal matrix is decided like that of a 1 x 1 one
    p = TracedProblem(
        spec=fx.doubling_spec(),
        normal=NormalData.of({0: expanding_normal_9x9()}),
        non_characteristic=True,
    )
    path = write(tmp_path, "nine.json", traced_problem_to_json(p, ell=hexagon_heights()))
    code, localized = run_json(capsys, ["lefschetz", "--input", path])
    assert code == 0 and localized.equal
    code, table = run_json(capsys, ["morse", "--input", path, "--component", "0"])
    assert code == 0
    assert table.sign == localized.components[0]["sign"] == -1
    assert table.regime == "signed-non-characteristic"
    assert table.total == localized.components[0]["signed_contribution"]


def test_morse_needs_ell(tmp_path, capsys):
    p = fx.doubling_problem()
    path = write(tmp_path, "noell.json", traced_problem_to_json(p))
    assert main(["morse", "--input", path]) == 2


def test_cc_command(tmp_path, capsys):
    space = fx.interval_complex()
    data = problem_to_json(
        space, ell=fx.interval_functional(increasing=True)
    )
    path = write(tmp_path, "cc.json", data)
    code, report = run_json(capsys, ["cc", "--input", path])
    assert code == 0
    assert dict(report.table) == {"a": g(1), "b": g(0)}
    assert report.total == g(1)


def test_index_check_command(tmp_path, capsys):
    space = fx.disk()
    data = problem_to_json(space)
    data["values"] = [[["c"], "3"], [["c", "v0"], "-1/2"]]
    data["ell"] = [[v, str(i)] for i, v in enumerate(space.vertices)]
    path = write(tmp_path, "idx.json", data)
    code, report = run_json(capsys, ["index-check", "--input", path])
    assert code == 0
    assert report.equal
    assert report.index_sum == report.integral == g("7/2")


def test_pushforward_command(tmp_path, capsys):
    push = fx.square_projection()
    path = write(tmp_path, "push.json", problem_to_json(push.source, push_map=push))
    code, report = run_json(capsys, ["pushforward", "--input", path])
    assert code == 0
    assert report.equal
    assert report.source_integral == report.target_integral == g(1)
    assert dict(report.values) == {
        ("a",): g(1),
        ("b",): g(1),
        ("a", "b"): g(1),
    }


def test_pushforward_needs_target(tmp_path, capsys):
    space = fx.hexagon()
    path = write(tmp_path, "nop.json", problem_to_json(space, spec=fx.rotation_spec()))
    assert main(["pushforward", "--input", path]) == 2


def test_flag_model_command(capsys):
    code, report = run_json(capsys, ["flag-model", "--n", "3"])
    assert code == 0
    assert (report.n, report.blocks) == (3, ())
    assert report.cell_count == report.chi == 6
    assert report.component_count == 1
    code, report = run_json(capsys, ["flag-model", "--n", "3", "--blocks", "2,1"])
    assert code == 0
    assert report.cell_count == report.chi == 6
    assert report.component_count == 3


def test_flag_model_rejections(capsys):
    assert main(["flag-model", "--n", "9"]) == 2
    assert main(["flag-model", "--n", "3", "--blocks", "2,x"]) == 2
    assert main(["flag-model", "--n", "3", "--blocks", "2,2"]) == 2
    assert main(["flag-model", "--n", "3", "--blocks", ""]) == 2
    assert "error:" in capsys.readouterr().err


def test_example_command(capsys):
    code, report = run_json(capsys, ["example-3-9"])
    assert code == 0
    assert report.total == g(5)
    assert report.chi_of_divisor == 5
    labels = [c[0] for c in report.components]
    assert labels == ["c0", "c1", "c2"]
    code, other = run_json(capsys, ["example-3-9", "--ratio", "7/3"])
    assert code == 0
    assert other.total == g(5)


def test_example_reads_a_negative_ratio_in_both_spellings(capsys):
    assert main(["example-3-9", "--ratio", "-3/4"]) == 0
    spaced = capsys.readouterr().out
    assert main(["example-3-9", "--ratio=-3/4"]) == 0
    assert capsys.readouterr().out == spaced
    assert "kind: worked-example" in spaced


def test_example_rejects_unit_ratio(capsys):
    assert main(["example-3-9", "--ratio", "1"]) == 2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_table():
    assert FixedPointNotSimplicialError("x").exit_code == 3
    assert NotHyperbolicError("x").exit_code == 4
    assert NoApplicableRegimeError("x").exit_code == 4
    assert GenericityError("x").exit_code == 5
    assert NonSimplicialMapError("x").exit_code == 6
    assert ParseError("x").exit_code == 2
    assert DegenerateInputError("x").exit_code == 2


def test_exit_2_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["chi", "--input", str(bad)]) == 2
    assert main(["chi"]) == 2
    assert main(["chi", "--input", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_ragged_normal_matrix(tmp_path, capsys):
    data = traced_problem_to_json(fx.reflection_problem())
    data["normal_data"] = {"0": [["-1", "0"], ["0"]], "1": [["-1"]]}
    path = write(tmp_path, "ragged.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row width")
    assert "Traceback" not in err


# NormalData.of reads a key as a decimal string: "00" names component 0
# a second time, and "+0" and " 0" name no integer.
ALIAS_REFUSALS = {
    "00": "two normal matrices for component 0",
    "+0": "normal data names component '+0', not an integer",
    " 0": "normal data names component ' 0', not an integer",
}


@pytest.mark.parametrize("alias", ["00", "+0", " 0"])
def test_exit_2_aliased_normal_data_keys(tmp_path, capsys, alias):
    data = traced_problem_to_json(fx.reflection_problem())
    data["normal_data"][alias] = [["3"]]
    path = write(tmp_path, "aliased.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    assert capsys.readouterr().err == f"error: {ALIAS_REFUSALS[alias]}\n"


def test_exit_2_normal_data_key_past_the_digit_limit(tmp_path, capsys):
    key = "9" * 5000  # decimal, but past the digits int() reads
    data = traced_problem_to_json(fx.reflection_problem())
    data["normal_data"][key] = [["3"]]
    path = write(tmp_path, "huge.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: normal data names component {key!r}, not an integer\n"


@pytest.mark.parametrize("stray", ["5", "-1"])
def test_exit_2_normal_data_for_a_missing_component(tmp_path, capsys, stray):
    data = traced_problem_to_json(fx.reflection_problem())
    data["normal_data"][stray] = [["7"]]
    path = write(tmp_path, "stray.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    err = capsys.readouterr().err
    assert f"normal data for component {stray} out of range 0..1" in err


def test_exit_2_cell_named_twice_in_values(tmp_path, capsys):
    data = problem_to_json(fx.hexagon())
    data["values"] = [[["v0", "v1"], "1"], [["v1", "v0"], "5"]]
    path = write(tmp_path, "twice.json", data)
    assert main(["integrate", "--input", path]) == 2
    assert capsys.readouterr().err == "error: two values for cell ('v0', 'v1')\n"
    data["values"] = data["values"][:1]
    path = write(tmp_path, "once.json", data)
    code, report = run_json(capsys, ["integrate", "--input", path])
    assert code == 0 and report.integral == g(-1)


def test_exit_2_cell_named_twice_in_traces(tmp_path, capsys):
    data = traced_problem_to_json(fx.reflection_problem())
    data["traces"] = [[["v0"], "3"], [["v0"], "7"]]
    path = write(tmp_path, "twice.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    assert capsys.readouterr().err == "error: two trace values for cell ('v0',)\n"


@pytest.mark.parametrize("component", [[1], {"a": 1}, 3, True])
def test_exit_2_cell_component_that_is_not_a_string(tmp_path, capsys, component):
    data = problem_to_json(fx.cp1_cellspace())
    data["cells"][0]["component"] = component
    path = write(tmp_path, "component.json", data)
    assert main(["chi", "--input", path]) == 2
    assert capsys.readouterr().err == (
        "error: the component of cell 'cell2' must be a string or None, "
        f"got {component!r}\n"
    )
    data["cells"][0]["component"] = "label"
    path = write(tmp_path, "labelled.json", data)
    assert main(["chi", "--input", path]) == 0


def test_exit_2_unlisted_vertex_reads_alike_with_and_without_coordinates(
    tmp_path, capsys
):
    data = problem_to_json(fx.interval_complex())
    data["complex"] = {
        "vertices": ["a", "b", "c"],
        "simplices": [["a"], ["b"], ["c"], ["x"], ["a", "b"], ["a", "x"],
                      ["b", "x"], ["a", "b", "x"]],
    }
    errors = []
    for coords in (None, [["0", "0"], ["1", "0"], ["0", "1"]]):
        if coords is not None:
            data["complex"]["coords"] = coords
        path = write(tmp_path, "stray.json", data)
        assert main(["chi", "--input", path]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "error: 4 violation(s): unknown-vertex: simplex ('x',) uses unlisted ['x']"
    )


def test_exit_2_oversize_rational_literal(tmp_path, capsys):
    data = traced_problem_to_json(fx.reflection_problem())
    data["normal_data"]["0"] = [["1e1001"]]
    path = write(tmp_path, "huge.json", data)
    assert main(["lefschetz", "--input", path]) == 2
    assert "exceeds the size bound" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1" + "0" * 5000, "[" * 100_000])
def test_exit_2_json_past_the_parser_limits(tmp_path, capsys, literal):
    text = dumps(traced_problem_to_json(fx.reflection_problem()))
    path = tmp_path / "limits.json"
    path.write_text(text.replace('"-1"', literal, 1), encoding="utf-8")
    assert main(["lefschetz", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON")


def triangle_with_a_map():
    data = problem_to_json(SimplicialComplex.from_maximal([("a", "b", "c")]))
    data["map"] = {"vertex_map": {"a": "b", "b": "c", "c": "a"}}
    data["ell"] = [["a", "0"], ["b", "1"], ["c", "2"]]
    return data


def _pairs_with_the_first_twice(block, key):
    pairs = block[key]
    if isinstance(pairs, dict):
        pairs = [[k, v] for k, v in pairs.items()]
    block[key] = pairs + pairs[:1]


# Inputs each read without a refusal (or with a TypeError) before every JSON
# shape got one checked reader; the text edits rewrite the written file.
SHAPE_LEAKS = {
    "coords is a number": lambda d: d["complex"].update(coords=5),
    "a coords row is a number": lambda d: d["complex"].update(
        coords=[["0", "0"], 5, ["0", "1"]]
    ),
    "vertices is a string": lambda d: d["complex"].update(vertices="abc"),
    "a simplex is a string": lambda d: d["complex"]["simplices"].append("ab"),
    "normal matrix is a string": lambda d: d.update(normal_data={"0": "5"}),
    "a normal row is a string": lambda d: d.update(
        normal_data={"0": [["-1", "0"], "34"]}
    ),
    "vertex_map names a source twice": lambda d: _pairs_with_the_first_twice(
        d["map"], "vertex_map"
    ),
    "ell names a vertex twice": lambda d: _pairs_with_the_first_twice(d, "ell"),
    "Gaussian value with key zz": lambda d: d.update(
        values=[[["a"], {"re": "1", "zz": 2}]]
    ),
    "subdivision level 30": lambda d: d["map"].update(subdivision_level=30),
}


@pytest.mark.parametrize("name", sorted(SHAPE_LEAKS) + ["repeated JSON key"])
def test_exit_2_input_shapes_each_have_one_checked_reader(tmp_path, capsys, name):
    data = triangle_with_a_map()
    path = write(tmp_path, "ok.json", data)
    assert main(["chi", "--input", path]) == 0
    capsys.readouterr()
    if name in SHAPE_LEAKS:
        SHAPE_LEAKS[name](data)
        path = write(tmp_path, "leak.json", data)
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().replace('"ell"', '"ell": [], "ell"', 1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    assert main(["chi", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_2_level_30_before_anything_is_subdivided(tmp_path, capsys, monkeypatch):
    from lefscalc import complexes

    calls = []
    real = complexes._flag_subdivision
    monkeypatch.setattr(
        complexes, "_flag_subdivision", lambda *args: calls.append(1) or real(*args)
    )
    data = triangle_with_a_map()
    data["map"] = {"subdivision_level": 30, "vertex_map": {}}
    path = write(tmp_path, "level30.json", data)
    start = time.perf_counter()
    assert main(["chi", "--input", path]) == 2
    assert time.perf_counter() - start < 0.3
    assert calls == []
    assert capsys.readouterr().err.startswith(
        "error: vertex_map misses sources: 0 entries for subdivision level 30"
    )


def test_exit_2_deep_level_of_a_point(tmp_path, capsys):
    # sd keeps a point a point, so the vertex count bounds no level; the
    # nesting of the map's source does, before anything is subdivided
    data = {
        "schema": SCHEMA,
        "complex": {"vertices": ["a"], "simplices": [["a"]]},
        "map": {"subdivision_level": 3000, "vertex_map": [["a", "a"]]},
    }
    path = write(tmp_path, "deep.json", data)
    start = time.perf_counter()
    assert main(["chi", "--input", path]) == 2
    assert time.perf_counter() - start < 3
    assert capsys.readouterr().err.startswith(
        "error: source vertex 'a' in vertex_map is not nested 3000 deep"
    )


def test_exit_3_fixed_point_off_vertices(tmp_path, capsys):
    space = fx.interval_complex()
    support = CellularSubset.of(space, {frozenset({"a"})})
    data = problem_to_json(space, support=support)
    data["map"] = {"vertex_map": {"a": "b", "b": "a"}}
    path = write(tmp_path, "swap.json", data)
    assert main(["lefschetz", "--input", path]) == 3
    assert "subdiv" in capsys.readouterr().err


def test_exit_4_not_hyperbolic(tmp_path, capsys):
    p = fx.doubling_problem()
    data = traced_problem_to_json(p)
    data["normal_data"] = {"0": [["1"]]}
    path = write(tmp_path, "unit.json", data)
    assert main(["lefschetz", "--input", path]) == 4


def test_exit_4_no_regime(tmp_path, capsys):
    p = fx.doubling_problem()
    data = traced_problem_to_json(p, ell=hexagon_heights())
    del data["map"]["non_characteristic"]
    path = write(tmp_path, "bare.json", data)
    assert main(["morse", "--input", path]) == 4


# stdout of `lefschetz` on the file below, recorded before the cycle table
# took the localization's sign
CONTRADICTED_COMPLEX_MODEL_LEFSCHETZ = {
    "text": "30a9ab846e0d1b6e47199b6109ee0ff14a453c502226b709ffeb1ea4a6f891f6",
    "json": "d75475d6c711c1576699ba8ddb27d9a3e55b6d5de4c8ba1fe6b0f6a291e0a7d7",
}


def test_exit_4_complex_model_contradicted_by_the_sign(tmp_path, capsys):
    # a real form of a complex-linear map has det(I - A) > 0; the doubling's
    # A = [[2]] has det(I - A) = -1, so its term is -1 and no table of +1
    # may be reported
    p = TracedProblem(
        spec=fx.doubling_spec(),
        normal=NormalData.of({0: [[2]]}),
        complex_model=True,
    )
    path = write(tmp_path, "cm.json", traced_problem_to_json(p, ell=hexagon_heights()))
    assert main(["morse", "--input", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "det(I - A) < 0" in captured.err
    assert "complex-model" in captured.err
    for mode, flags in (("text", []), ("json", ["--json"])):
        assert main(["lefschetz", "--input", path, *flags]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == CONTRADICTED_COMPLEX_MODEL_LEFSCHETZ[mode]


def test_exit_5_degenerate_functional(tmp_path, capsys):
    space = fx.interval_complex()
    data = problem_to_json(space)
    data["ell"] = {"a": "1", "b": "1"}
    path = write(tmp_path, "tied.json", data)
    assert main(["cc", "--input", path]) == 5


def test_exit_6_non_simplicial_map(tmp_path, capsys):
    space = SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
    data = problem_to_json(space)
    data["map"] = {"vertex_map": {"a": "a", "b": "c", "c": "c"}}
    path = write(tmp_path, "bad_map.json", data)
    assert main(["lefschetz", "--input", path]) == 6


def test_exit_1_when_an_identity_fails(monkeypatch, capsys):
    import lefscalc.cli as cli

    failed = Report("index-check", index_sum=g(1), integral=g(2), equal=False)
    monkeypatch.setattr(cli, "cmd_index_check", lambda args: failed)
    assert main(["index-check"]) == 1
    assert "equal: False" in capsys.readouterr().out


# report kind -> its identity field; no other kind checks an identity
IDENTITY = {
    "localization": "equal",
    "index-check": "equal",
    "pushforward": "equal",
    "verify": "all_ok",
}


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_main_exits_1_exactly_when_the_reports_identity_is_false(
    monkeypatch, capsys, kind, held
):
    import lefscalc.cli as cli

    # 0 is false, so an identity field missing from IDENTITY would exit 1
    fields = dict.fromkeys(FIELDS[kind], 0)
    if kind in IDENTITY:
        fields[IDENTITY[kind]] = held
    monkeypatch.setattr(cli, "cmd_chi", lambda args: Report(kind, **fields))
    assert main(["chi"]) == (1 if kind in IDENTITY and not held else 0)
    assert capsys.readouterr().out.startswith(f"kind: {kind}\n")


@pytest.mark.parametrize("command", ["lefschetz", "morse"])
def test_exit_2_a_map_command_on_a_problem_without_a_map(tmp_path, capsys, command):
    path = write(tmp_path, "s2.json", problem_to_json(fx.sphere2()))
    assert main([command, "--input", path]) == 2
    assert capsys.readouterr().err == "error: this problem has no self-map block\n"


@pytest.mark.parametrize(
    "argv, stray",
    [
        (["flag-model", "--n", "3", "--input", "/nonexistent", "--seed", "99"],
         "--input /nonexistent --seed 99"),
        (["example-3-9", "--input", "/nonexistent"], "--input /nonexistent"),
        (["chi", "--input", "{path}", "--seed", "5"], "--seed 5"),
        (["verify", "--cases", "1", "--input", "{path}"], "--input {path}"),
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(
    tmp_path, capsys, argv, stray
):
    path = write(tmp_path, "s2.json", problem_to_json(fx.sphere2()))
    with pytest.raises(SystemExit) as caught:
        main([arg.format(path=path) for arg in argv])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {stray.format(path=path)}" in captured.err


def test_each_command_still_takes_its_own_options(tmp_path, capsys):
    path = write(tmp_path, "s2.json", problem_to_json(fx.sphere2()))
    runs = [
        ["chi", "--input", path],
        ["flag-model", "--n", "3"],
        ["example-3-9", "--json", "--ratio", "3"],
        ["verify", "--seed", "5", "--cases", "1"],
    ]
    reports = [run_json(capsys, argv) for argv in runs]
    assert [code for code, _ in reports] == [0, 0, 0, 0]
    assert [r.kind for _, r in reports] == [
        "chi", "flag-model", "worked-example", "verify"
    ]
    assert reports[3][1].seed == 5


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# determinism of the verify battery


def test_verify_command(capsys):
    code, report = run_json(capsys, ["verify", "--seed", "3", "--cases", "4"])
    assert code == 0
    assert report.all_ok
    assert len(report.digest) == 64
    names = [row[0] for row in report.checks]
    assert "hopf-vs-homology" in names
    assert "worked-example" in names


def test_verify_is_byte_deterministic_across_processes():
    argv = [
        sys.executable,
        "-m",
        "lefscalc.cli",
        "verify",
        "--seed",
        "11",
        "--cases",
        "4",
        "--json",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_refuses_fewer_than_one_case(capsys, cases):
    assert main(["verify", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cases must be at least 1" in captured.err


def test_verify_config_refuses_fewer_than_one_case():
    from lefscalc.verify import VerifyConfig, run_all

    with pytest.raises(DegenerateInputError, match="at least 1"):
        run_all(VerifyConfig(seed=0, cases=0))
    assert run_all(VerifyConfig(seed=0, cases=1)).all_ok


def test_verify_seed_changes_digest(capsys):
    _, a = run_json(capsys, ["verify", "--seed", "1", "--cases", "3"])
    _, b = run_json(capsys, ["verify", "--seed", "2", "--cases", "3"])
    assert a.digest != b.digest

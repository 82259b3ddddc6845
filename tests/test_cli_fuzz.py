"""Mutated problem files through the command line driver.

Valid problem files (the hexagon reflection, the angle doubling, and the
identities of S^2 and of the disk with its coordinates) are mutated and run
through ``cli.main``.  Whatever the mutation (dropped keys, values of the
wrong type, bools, digit strings, unknown and nested vertices, oversize
literals), the driver must return an exit code in 0..6 and never raise;
each of the named malformed mutations, which add ragged matrices, strings
where arrays belong, aliased or stray normal indices, a cell, vertex or
JSON key named twice and a subdivision level past the vertex map, must end
in a refusal of malformed input, exit 2.
"""

import contextlib
import copy
import io as stdio
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lefscalc.fixtures as fx
from lefscalc.cli import main
from lefscalc.exact import LITERAL_MAX_CHARS, LITERAL_MAX_EXPONENT
from lefscalc.io import traced_problem_to_json

BASES = {
    "reflection": traced_problem_to_json(fx.reflection_problem()),
    "doubling": traced_problem_to_json(fx.doubling_problem()),
    "s2-identity": traced_problem_to_json(fx.identity_problem(fx.sphere2())),
    "disk-identity": traced_problem_to_json(fx.identity_problem(fx.disk())),
}
COMMANDS = ("lefschetz", "chi", "integrate")
ODD_VALUES = (
    None, True, False, 0, -1, 1.5, "", "zz", "v0", "1/0", [], {}, [[]],
    ["v0"], [["v0"]], {"re": "1"}, f"1e{LITERAL_MAX_EXPONENT + 1}", "5",
)


def _nodes(doc, path=()):
    """Every (container path, key) of the JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _normal(doc) -> dict:
    return doc.setdefault("normal_data", {"0": [["-1"]]})


def _simplices(doc) -> list:
    return doc["complex"]["simplices"]


def _coords(doc) -> list:
    """The coordinate rows of the complex, zeros where it has none."""
    block = doc["complex"]
    return block.setdefault("coords", [["0", "0"] for _ in block["vertices"]])


def _vertex_map_pairs(doc) -> list:
    """The vertex map, turned into a pair list if it is an object."""
    vm = doc["map"]["vertex_map"]
    if isinstance(vm, dict):
        vm = doc["map"]["vertex_map"] = [[k, v] for k, v in vm.items()]
    return vm


def _ell_with_a_vertex_twice(doc) -> None:
    vertices = doc["complex"]["vertices"]
    doc["ell"] = [[v, str(i)] for i, v in enumerate(vertices)]
    doc["ell"].append([vertices[0], "-1"])


class _FirstKeyTwice(dict):
    """An object that json.dump writes with its first key twice."""

    def items(self):
        pairs = list(super().items())
        return pairs[:1] + pairs


def _first_vertex_map_value(doc, value):
    vm = doc["map"]["vertex_map"]
    if isinstance(vm, dict):
        vm[sorted(vm)[0]] = value
    else:
        vm[0][1] = value


# Mutations that always leave a malformed file: name -> edit in place.
MALFORMED = {
    "drop complex": lambda d: d.pop("complex"),
    "drop map": lambda d: d.pop("map"),
    "drop vertex_map": lambda d: d["map"].pop("vertex_map"),
    "drop schema": lambda d: d.pop("schema"),
    "simplices not a list": lambda d: d["complex"].update(simplices="v0"),
    "complex is a list": lambda d: d.update(complex=[]),
    "vertex_map is a number": lambda d: d["map"].update(vertex_map=5),
    "normal_data is a list": lambda d: d.update(normal_data=[]),
    "normal matrix is a string": lambda d: _normal(d).update({"0": "x"}),
    "normal rows are not lists": lambda d: _normal(d).update({"0": ["-1"]}),
    "bool level": lambda d: d["map"].update(subdivision_level=True),
    "bool normal entry": lambda d: _normal(d).update({"0": [[True]]}),
    "bool normal key": lambda d: _normal(d).update({"true": [["-1"]]}),
    "ragged normal matrix": lambda d: _normal(d).update({"0": [["1", "0"], ["0"]]}),
    "non-square normal matrix": lambda d: _normal(d).update({"0": [["1", "0"]]}),
    "unknown vertex in a simplex": lambda d: _simplices(d).append(["v0", "zz"]),
    "unknown vertex image": lambda d: _first_vertex_map_value(d, "zz"),
    "nested vertex in a simplex": lambda d: _simplices(d).append([["v0"]]),
    "nested vertex image": lambda d: _first_vertex_map_value(d, [["v0"]]),
    "empty simplex": lambda d: _simplices(d).append([]),
    "aliased normal key 00": lambda d: _normal(d).update({"00": [["3"]]}),
    "aliased normal key +0": lambda d: _normal(d).update({"+0": [["3"]]}),
    "stray normal index 7": lambda d: _normal(d).update({"7": [["7"]]}),
    "stray normal index -1": lambda d: _normal(d).update({"-1": [["7"]]}),
    "cell named twice in traces": lambda d: d.update(
        traces=[[_simplices(d)[0], "3"], [_simplices(d)[0], "7"]]
    ),
    "oversize exponent": lambda d: _normal(d).update(
        {"0": [[f"1e-{LITERAL_MAX_EXPONENT + 1}"]]}
    ),
    "oversize literal": lambda d: _normal(d).update(
        {"0": [["7" * (LITERAL_MAX_CHARS + 1)]]}
    ),
    "coords is a number": lambda d: d["complex"].update(coords=5),
    "a coords row is a number": lambda d: _coords(d).__setitem__(0, 5),
    "vertices is a string": lambda d: d["complex"].update(vertices="abc"),
    "a simplex is a string": lambda d: _simplices(d).append(
        str(_simplices(d)[0][0])
    ),
    "normal matrix is a digit string": lambda d: _normal(d).update({"0": "5"}),
    "a normal row is a digit string": lambda d: _normal(d).update(
        {"0": [["-1", "0"], "34"]}
    ),
    "vertex_map names a source twice": lambda d: _vertex_map_pairs(d).append(
        _vertex_map_pairs(d)[0]
    ),
    "ell names a vertex twice": _ell_with_a_vertex_twice,
    "repeated JSON key": lambda d: d.update(map=_FirstKeyTwice(d["map"])),
    "Gaussian value with key zz": lambda d: d.update(
        values=[[_simplices(d)[0], {"re": "1", "zz": 2}]]
    ),
    "subdivision level 30": lambda d: d["map"].update(subdivision_level=30),
}


def _run(doc, command: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        sink = stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main([command, "--input", path])


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("base", sorted(BASES))
def test_malformed_problem_files_are_refused(base, name):
    doc = copy.deepcopy(BASES[base])
    MALFORMED[name](doc)
    code = _run(doc, "lefschetz")
    assert code == 2, (base, name, code)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(sorted(BASES)),
    command=st.sampled_from(COMMANDS),
    data=st.data(),
)
def test_any_mutation_exits_with_a_documented_code(base, command, data):
    doc = copy.deepcopy(BASES[base])
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        path, key = data.draw(st.sampled_from(nodes))
        container = _at(doc, path)
        if data.draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))
    code = _run(doc, command)
    assert 0 <= code <= 6


def test_unmutated_files_pass():
    for base in sorted(BASES):
        assert _run(copy.deepcopy(BASES[base]), "lefschetz") == 0

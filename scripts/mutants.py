#!/usr/bin/env python3
"""The mutation register: deliberate faults the test suite must catch.

Usage: python scripts/mutants.py

Each row of MUTANTS names a mutant, the file it edits, the exact old text,
the new text, and its selection: a test file and the pytest -k expression
that picks, in that file, the tests meant to catch it.  The script copies
the repository to a temporary directory and, for each row, applies the
mutant there, runs its selection, and puts the file back.  A mutant is
killed when its selection fails or times out (a mutant can make a loop run
forever); it survives when its selection passes or selects no test.

A row whose old text does not occur exactly once in its file is refused,
so a refactor must re-aim a mutant rather than drop it silently, and every
selection must pass on the unmutated copy first, so that a kill means the
mutant was caught; that check runs each test file once, on the union of
its rows' selections.  A test file that does not import hypothesis runs
without hypothesis's pytest plugin, whose start-up would be most of a
short run.  The script prints its wall time.  Standard library only; the
selections need pytest and hypothesis.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
row is refused or a selection fails on the unmutated copy.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
# pytest's exit statuses for a bad command line and for no test collected
_NOT_RUN = (4, 5)
KILLED = ("failed", "timed out")
_IMPORTS_HYPOTHESIS = re.compile(r"^(from|import) hypothesis\b", re.MULTILINE)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: str  # the test file meant to catch it
    keyword: str  # pytest -k expression: which of its tests


MUTANTS = (
    Mutant(
        "parse_rational refuses a bad literal with ParseError",
        "src/lefscalc/exact.py",
        '            raise DegenerateInputError(f"bad rational literal {value!r}") from exc',
        "            from .errors import ParseError\n\n"
        '            raise ParseError(f"bad rational literal {value!r}") from exc',
        "tests/test_api_fuzz.py",
        "bad_rational_literal",
    ),
    Mutant(
        "the permutation reader accepts bools",
        "src/lefscalc/flags.py",
        "ints = all(isinstance(x, int) and not isinstance(x, bool) for x in perm)",
        "ints = all(isinstance(x, int) for x in perm)",
        "tests/test_api_fuzz.py",
        "permutation_is_read",
    ),
    Mutant(
        "RationalPolynomial.of reads coefficients without _sequence",
        "src/lefscalc/exact.py",
        'cs = [parse_rational(c) for c in _sequence(coeffs, "a coefficient list")]',
        "cs = [parse_rational(c) for c in coeffs]",
        "tests/test_api_fuzz.py",
        "coefficient_list_is_read",
    ),
    Mutant(
        "VertexFunctional.of reads keys without its vertex reader",
        "src/lefscalc/morse.py",
        'given = read_table(table, "heights for vertex", space.vertex)',
        'given = read_table(table, "heights for vertex")',
        "tests/test_api_fuzz.py",
        "vertex_is_read",
    ),
    Mutant(
        "the vertex reader looks a vertex up without vertex_key",
        "src/lefscalc/complexes.py",
        "        vertex_key(v)\n        return self.vertices[self.vertex_index(v)]",
        "        return self.vertices[self.vertex_index(v)]",
        "tests/test_api_fuzz.py",
        "vertex_is_read",
    ),
    Mutant(
        "TracedProblem stores its normal data unread",
        "src/lefscalc/fixedpoint.py",
        "normal = NormalData.of(normal)",
        "normal = normal",
        "tests/test_api_fuzz.py",
        "accepted_form_of_a_traced_problem",
    ),
    Mutant(
        "TracedProblem stores its flags unread",
        "src/lefscalc/fixedpoint.py",
        "if not isinstance(flag, bool):",
        "if False:",
        "tests/test_api_fuzz.py",
        "reads_its_fields_when_it_is_built",
    ),
    Mutant(
        "the spec constructor skips the map check",
        "src/lefscalc/maps.py",
        "        _check_top_cells(sub, by_number)\n",
        "",
        "tests/test_api_fuzz.py",
        "raw_constructor",
    ),
    Mutant(
        "the normal data constructor skips the square check",
        "src/lefscalc/fixedpoint.py",
        "            if not matrix.is_square():",
        "            if False:",
        "tests/test_api_fuzz.py",
        "raw_constructor",
    ),
    Mutant(
        "require returns its argument unchecked",
        "src/lefscalc/records.py",
        "    if isinstance(value, kind):",
        "    if True:",
        "tests/test_api_fuzz.py",
        "no_spec_or_problem or no_map_or_function",
    ),
    Mutant(
        "require_simplicial skips its cell-space refusal",
        "src/lefscalc/complexes.py",
        "    if isinstance(parent, CellSpace):\n        raise CellSpaceUnsupportedError(\n",
        "    if False:\n        raise CellSpaceUnsupportedError(\n",
        "tests/test_api_fuzz.py",
        "cell_space_is_refused",
    ),
    Mutant(
        "euler_integral reads its function without require",
        "src/lefscalc/euler.py",
        'dim = require(phi, ConstructibleFunction, "euler_integral").parent.cell_dim',
        "dim = phi.parent.cell_dim",
        "tests/test_api_fuzz.py",
        "no_map_or_function",
    ),
    Mutant(
        "local_contribution sums its integral without the signed term's refusal",
        "src/lefscalc/fixedpoint.py",
        '    return _signed_term(require(p, TracedProblem, "local_contribution"), index)[1]',
        '    p = require(p, TracedProblem, "local_contribution")\n'
        "    return euler_integral(restrict(p.local_trace, p.component(index).cells))",
        "tests/test_fixedpoint.py",
        "not_hyperbolic",
    ),
    Mutant(
        "the JSON reader keeps the last of a repeated key",
        "src/lefscalc/reports.py",
        "json.loads(text, object_pairs_hook=_unique_keys)",
        "json.loads(text)",
        "tests/test_api_fuzz.py",
        "strict_json_reader",
    ),
    Mutant(
        "a root at c is divided out of the ray count only once",
        "src/lefscalc/exact.py",
        "    while p(c) == 0:",
        "    if p(c) == 0:",
        "tests/test_exact.py",
        "count_real_roots_geq_known",
    ),
    Mutant(
        "a Sturm count past a root of p is not refused",
        "src/lefscalc/exact.py",
        "    if not at_c[0]:",
        "    if False:",
        "tests/test_exact.py",
        "past_a_root",
    ),
    Mutant(
        "the multi-denominator fold sums im over the re lcm",
        "src/lefscalc/exact.py",
        "im_common = lcm(*{im_den for _, im_den in table})",
        "im_common = re_common",
        "tests/test_summation.py",
        "part_by_part",
    ),
    Mutant(
        "format_rational prints what is not a Fraction as it is",
        "src/lefscalc/exact.py",
        "return str(x if isinstance(x, Fraction) else Fraction(x))",
        "return str(x)",
        "tests/test_exact.py",
        "format",
    ),
    Mutant(
        "slot_setters lists the slots in name order",
        "src/lefscalc/records.py",
        "for name in cls.__slots__)",
        "for name in sorted(cls.__slots__))",
        "tests/test_records.py",
        "reprs_keep_the_field_style",
    ),
    Mutant(
        "a linear root count compares with > instead of >=",
        "src/lefscalc/exact.py",
        "return int((a0 * d + a1 * n) * a1 <= 0)",
        "return int((a0 * d + a1 * n) * a1 < 0)",
        "tests/test_exact.py",
        "low_degree",
    ),
    Mutant(
        "a quadratic root count leaves a root at c outside [c, oo)",
        "src/lefscalc/exact.py",
        "return 1 + (b1 * a2 < 0)",
        "return b1 * a2 < 0",
        "tests/test_exact.py",
        "low_degree",
    ),
    Mutant(
        "the sign presolve also drops a row with both signs live",
        "src/lefscalc/exact.py",
        "if b == 0 and pos != neg:",
        "if b == 0 and (pos or neg):",
        "tests/test_exact.py",
        "presolve",
    ),
    Mutant(
        "the sign presolve makes one pass only",
        "src/lefscalc/exact.py",
        "                changed = True",
        "                pass",
        "tests/test_exact.py",
        "presolve",
    ),
    Mutant(
        "a vertex whose image lies in its carrier counts as fixed",
        "src/lefscalc/fixedpoint.py",
        "if len(base_cell) > 1 or image not in base_cell:",
        "if image not in base_cell:",
        "tests/test_fixedpoint.py",
        "swap_resolved_by_subdividing",
    ),
    Mutant(
        "the pushforward weight drops the image's length",
        "src/lefscalc/euler.py",
        "-1 if (len(cell) - len(image)) & 1 else 1",
        "-1 if len(cell) & 1 else 1",
        "tests/test_summation.py",
        "pushforward",
    ),
    Mutant(
        "the packed dot table is off by one permutation",
        "src/lefscalc/flags.py",
        "return tuple(map(_dot_vector, permutations_of(n)))",
        "return tuple(map(_dot_vector, permutations_of(n)[1:] + permutations_of(n)[:1]))",
        "tests/test_flags.py",
        "closure",
    ),
    Mutant(
        "flag_cellspace lists its cells in reverse order",
        "src/lefscalc/flags.py",
        '[Cell(name, dim, "flag") for name, dim in _perm_cells(n)]',
        '[Cell(name, dim, "flag") for name, dim in _perm_cells(n)][::-1]',
        "tests/test_flags.py",
        "flag_model_is_listed_as_the_checked_build",
    ),
    Mutant(
        "the shared record constructor skips its arity check",
        "src/lefscalc/records.py",
        "if named or len(values) != len(fields):",
        "if named:",
        "tests/test_records.py",
        "shared_constructor",
    ),
    Mutant(
        "the shared record constructor stores the fields in reverse order",
        "src/lefscalc/records.py",
        "for name, value in zip(fields, values):",
        "for name, value in zip(fields[::-1], values):",
        "tests/test_records.py",
        "shared_constructor",
    ),
    Mutant(
        "the worked example integrates each whole sphere, not its support",
        "src/lefscalc/flags.py",
        "ConstructibleFunction.indicator(self.space, self.support)",
        "ConstructibleFunction.indicator(self.space)",
        "tests/test_flags.py",
        "example_contributions",
    ),
    Mutant(
        "the flag table drops each flag's parity",
        "src/lefscalc/complexes.py",
        "parities.append(-1 if inversions & 1 else 1)",
        "parities.append(1)",
        "tests/test_homology.py",
        "fundamental_chain_matches_the_tower_on_fixtures",
    ),
    Mutant(
        "the flag table leaves a flag's face indices unsorted",
        "src/lefscalc/complexes.py",
        "number.setdefault(tuple(sorted(perm[: i + 1])), len(number))",
        "number.setdefault(tuple(perm[: i + 1]), len(number))",
        "tests/test_homology.py",
        "fundamental_chain_matches_the_tower_on_fixtures",
    ),
    Mutant(
        "the flag table repeats the first face of each flag",
        "src/lefscalc/complexes.py",
        "            for i in range(d + 1)\n        ])",
        "            for i in [0, *range(d)]\n        ])",
        "tests/test_homology.py",
        "fundamental_chain_matches_the_tower_on_fixtures",
    ),
    Mutant(
        "the flag check lets a face repeat a position",
        "src/lefscalc/complexes.py",
        "list(face) != sorted(set(face).intersection(range(d + 1)))",
        "list(face) != sorted(face)",
        "tests/test_complexes.py",
        "flag_check",
    ),
    Mutant(
        "the flag check skips the nesting of a flag's faces",
        "src/lefscalc/complexes.py",
        "!= list(range(1, d + 2)) or not all(\n            a < b for a, b in zip(chain, chain[1:])\n        ):",
        "!= list(range(1, d + 2)):",
        "tests/test_complexes.py",
        "flag_check",
    ),
    Mutant(
        "the flag generator skips validating its base",
        "src/lefscalc/complexes.py",
        "    require_valid(base)\n    rank = base._vertex_index\n",
        "    rank = base._vertex_index\n",
        "tests/test_complexes.py",
        "generator_refuses_a_degenerate_base",
    ),
    Mutant(
        "the map check skips the top cells of one maximal simplex",
        "src/lefscalc/maps.py",
        "cell for rho in sub.base.maximal for cell in sub.chains[rho][0]",
        "cell for rho in sorted(sub.base.maximal, key=cell_sort_key)[1:]\n        for cell in sub.chains[rho][0]",
        "tests/test_homology.py",
        "map_check",
    ),
    Mutant(
        "the endomorphism drops the sign that reorders an image simplex",
        "src/lefscalc/homology.py",
        "            sign = -sign\n",
        "            pass\n",
        "tests/test_homology.py",
        "fixture_lefschetz_numbers or sparse_engine_agrees",
    ),
    Mutant(
        "the subdivision step sorts the old simplices' ranks without size first",
        "src/lefscalc/complexes.py",
        "    ranked.sort(key=len)  # stable, so (size, ranks) order\n",
        "",
        "tests/test_complexes.py",
        "chain_oracle",
    ),
    Mutant(
        "the subdivision step does not divide a barycentre by the simplex size",
        "src/lefscalc/complexes.py",
        "return tuple([Fraction(x, scale) for x in axes])",
        "return tuple([Fraction(x, scale // len(rows)) for x in axes])",
        "tests/test_complexes.py",
        "chain_oracle",
    ),
    Mutant(
        "the subdivision step does not union a new cell with its face's cell",
        "src/lefscalc/complexes.py",
        "cells += [cell | alone for cell in ending[face]]",
        "cells += [alone for cell in ending[face]]",
        "tests/test_complexes.py",
        "chain_oracle",
    ),
    Mutant(
        "the rank test's homogeneous row drops its d column",
        "src/lefscalc/complexes.py",
        "for x in point] + [d])",
        "for x in point])",
        "tests/test_complexes.py",
        "validate_matches_oracle",
    ),
    Mutant(
        "a tuple's vertex key drops its length",
        "src/lefscalc/complexes.py",
        "        return (2, len(v), *map(vertex_key, v))",
        "        return (2, *map(vertex_key, v))",
        "tests/test_complexes.py",
        "nested_keys",
    ),
    Mutant(
        "a TupleVertex made with its parts' keys drops its length from its key",
        "src/lefscalc/complexes.py",
        "self.key = (2, len(self), *keys)",
        "self.key = (2, *keys)",
        "tests/test_complexes.py",
        "nested_keys",
    ),
    Mutant(
        "a simplex's sort key drops its size",
        "src/lefscalc/complexes.py",
        "return (len(cell), *sorted(map(vertex_key, cell)))",
        "return (*sorted(map(vertex_key, cell)),)",
        "tests/test_complexes.py",
        "nested_keys",
    ),
)


def run_tests(tree: Path, tests: str, keyword: str) -> str:
    """'passed', 'failed', 'timed out' or 'ran no test': the tests of the
    file `tests` that `keyword` selects, run on the copy `tree`."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    if not _IMPORTS_HYPOTHESIS.search((tree / tests).read_text(encoding="utf-8")):
        command += ["-p", "no:hypothesispytest"]
    command += [tests, "-k", keyword]
    try:
        result = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    if result.returncode in _NOT_RUN:
        return "ran no test"
    return "passed" if result.returncode == 0 else "failed"


def refusals(tree: Path, mutants) -> list:
    """Why each row that cannot be applied to `tree` is refused."""
    out = []
    for m in mutants:
        count = (tree / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: its old text occurs {count} times in {m.path}")
    return out


def check(tree: Path, mutants) -> int:
    refused = refusals(tree, mutants)
    keywords = {}  # test file -> its rows' -k expressions, once each
    for m in mutants:
        keywords.setdefault(m.tests, {})[f"({m.keyword})"] = None
    for tests, union in keywords.items():
        outcome = run_tests(tree, tests, " or ".join(union))
        if outcome != "passed":
            refused.append(f"{tests} {outcome} without a mutant")
    for reason in refused:
        print(f"refused: {reason}")
    if refused:
        return 2
    survivors = 0
    for m in mutants:
        path = tree / m.path
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        try:
            outcome = run_tests(tree, m.tests, m.keyword)
        finally:
            path.write_text(text, encoding="utf-8")
        survivors += outcome not in KILLED
        verdict = f"killed ({outcome})" if outcome in KILLED else f"SURVIVED ({outcome})"
        print(f"{verdict}: {m.name}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(
            ROOT,
            tree,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"
            ),
        )
        status = check(tree, MUTANTS)
    print(f"wall time {time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())

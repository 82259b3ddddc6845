"""Golden report bytes: one command per report kind, text and JSON.

Each case runs the CLI on a fixture problem file and compares the sha256
of its stdout with a digest recorded once.  This pins field order, value
formatting and JSON layout of every report kind, which the structural
tests (parse and compare) do not see.
"""

import hashlib

import pytest

import lefscalc.fixtures as fx
from lefscalc.cli import main
from lefscalc.complexes import CellularSubset
from lefscalc.fixedpoint import TracedProblem
from lefscalc.io import dumps, problem_to_json, traced_problem_to_json
from lefscalc.morse import VertexFunctional


def _integrate_problem():
    data = problem_to_json(fx.interval_complex())
    data["values"] = [[["a"], "5"], [["a", "b"], {"re": "0", "im": "2"}]]
    return data


def _morse_problem():
    ell = VertexFunctional.of(fx.hexagon(), {f"v{i}": i for i in range(6)})
    return traced_problem_to_json(fx.doubling_problem(), ell=ell)


def _supported_problem():
    # the reflection supported off its fixed point v0: a trace relative
    # to the boundary {v0}, with only v3 left to localize at
    p = fx.reflection_problem()
    base = p.spec.base
    support = CellularSubset.of(base, base.simplices - {frozenset({"v0"})})
    return traced_problem_to_json(
        TracedProblem(spec=p.spec, support=support, normal=p.normal)
    )


def _index_check_problem():
    space = fx.disk()
    data = problem_to_json(space)
    data["values"] = [[["c"], "3"], [["c", "v0"], "-1/2"]]
    data["ell"] = [[v, str(i)] for i, v in enumerate(space.vertices)]
    return data


def _pushforward_problem():
    push = fx.square_projection()
    return problem_to_json(push.source, push_map=push)


# kind -> (argv, builder of the problem file or None)
CASES = {
    "chi": (["chi"], lambda: problem_to_json(fx.sphere2())),
    "integral": (["integrate"], _integrate_problem),
    "lefschetz": (
        ["lefschetz"],
        lambda: problem_to_json(fx.hexagon(), spec=fx.rotation_spec()),
    ),
    "localization": (
        ["lefschetz"],
        lambda: traced_problem_to_json(fx.reflection_problem()),
    ),
    "localization-support": (["lefschetz"], _supported_problem),
    "cycle-table": (["morse", "--component", "0"], _morse_problem),
    "cc": (
        ["cc"],
        lambda: problem_to_json(
            fx.interval_complex(), ell=fx.interval_functional(increasing=True)
        ),
    ),
    "index-check": (["index-check"], _index_check_problem),
    "pushforward": (["pushforward"], _pushforward_problem),
    "flag-model": (["flag-model", "--n", "3", "--blocks", "2,1"], None),
    "worked-example": (["example-3-9", "--ratio=7/3"], None),
    "verify": (["verify", "--seed", "3", "--cases", "4"], None),
}

# (kind, mode) -> sha256 of the command's stdout
GOLDEN = {
    ("cc", "text"): "af90c1e0dec43ac2b75a32a935eea8030c3ad6fda33baa2edca3133a065dda60",
    ("cc", "json"): "a10671723eba072463365489c008c92f2f0a2220d6a99c8b36b4f6d3ca18f725",
    ("chi", "text"): "a61390a9eb2b2ab1bea80f61d60be1ca035e38d95f2c282a624441e8130f4fab",
    ("chi", "json"): "87e222963d88e623f11c8f76584ae7a160b528f9e9d98dad66beb9b9e8fe4dae",
    ("cycle-table", "text"): "3ff0b804682d59b6214f0292ae57414ce7a442c0c5d7e5e838f12e53e0a1444d",
    ("cycle-table", "json"): "21f1f57a01def49f5daa4256f68d6a1a32bcb8345f9d9efaedc02070eac553d7",
    ("flag-model", "text"): "240300d72852acd9673b881d106eb891335cefaf7066110d242970432ea28e5a",
    ("flag-model", "json"): "90884202cf8aece50c6e21916db8cd990c2543e1222ed5849829a299e834da05",
    ("index-check", "text"): "50dca3fdd4bcd7f9960374a9a6b57da37c777960e4d8fb7839d5da1b21528164",
    ("index-check", "json"): "e1b04358cebedf25418bd0cd65ca180d5d14dd00489ae623d48ac398e723f542",
    ("integral", "text"): "85f973cacebcf57075eaccbc48a7898239bd3ed990e6ff48853f92d1d706fa85",
    ("integral", "json"): "58b176349882f5645fc7017239a809fd38103bcae336b06a03e514cebc441d0e",
    ("lefschetz", "text"): "93a215ce36dcd0d6554cc55602d0fd8f92c41fe92278e3f1f024cd99edba6c45",
    ("lefschetz", "json"): "602c2cd8d038fbb60f43d0fefbe9b8ed7d4817e83afb382ec02fa750cf93e180",
    ("localization", "text"): "d65d50ee35331da9f2931338acef15c0794b0a4dc1d4e8549b990b5be6347860",
    ("localization", "json"): "17643e2a1e39d443db21497f7ca47f3a1db62c6b59d46f44a6818bdff62680dc",
    ("localization-support", "text"): "de5bf2b54bbc901b86cb10918a4c119b4ba4898006d94eb50efad8fa635049ef",
    ("localization-support", "json"): "7d84968419494cd47729667ef079345baea76aef0be4b24863651874e90a9849",
    ("pushforward", "text"): "9e67ab457cbe1464dde071b5549c8f20e9ea23ffe80e4fa538d8e33d5bee87cf",
    ("pushforward", "json"): "7be74c097489dee0cda8cf66327b2861f1d47a1a1c5e8708c7b14a64fb9e972a",
    ("verify", "text"): "6f3f29d38d4c7db722162e6db1ee5b5869eaa844bf3c3b410b6e5149beecb493",
    ("verify", "json"): "48ee51b9981461dbd3c5fab0e579a62b746a93a4a4965e9a44fed1fa4908f6ad",
    ("worked-example", "text"): "f059b23c4910e649fdb7e2e896a6543975ef1c5b60d3c925ceeeacb7fa4a3fd8",
    ("worked-example", "json"): "ccf74315d5ddacd5a744d456cb7108e52a0cb5e9fc1cee62be2473ad39afeb4c",
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_report_bytes_are_golden(tmp_path, capsys, kind, mode):
    argv, build = CASES[kind]
    argv = list(argv)
    if build is not None:
        path = tmp_path / f"{kind}.json"
        path.write_text(dumps(build()), encoding="utf-8")
        argv += ["--input", str(path)]
    if mode == "json":
        argv.append("--json")
    assert main(argv) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[kind, mode]

"""README's examples run and do what their comments say."""

import ast
import io
import json
import re
import shlex
from pathlib import Path

from pnbundles import cli
from pnbundles.poly import format_poly
from pnbundles.seqs import IntSeq

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading):
    """The first fenced block after the heading, as lines, and the comment
    after each line's code ("" when there is none)."""
    section = README[README.index(f"## {heading}\n"):]
    body = re.search(r"```\w*\n(.*?)```", section, re.S).group(1)
    split = (line.partition(" #") for line in body.splitlines())
    return [(code.strip(), comment.strip()) for code, _, comment in split]


def test_readme_command_lines_run(capsys, monkeypatch):
    lines = [code for code, _ in code_block("Command line")]
    piped = [code for code in lines if "|" in code]
    runnable = [code for code in lines if "|" not in code and ".json" not in code]  # a file argument needs a file
    assert len(runnable) == 7 and len(piped) == 1
    outputs = {}
    for code in runnable:
        argv = shlex.split(code)
        assert argv[0] == "pnbundles"
        assert cli.main(argv[1:]) == 0, code
        outputs[argv[1]] = capsys.readouterr().out
    # `present ... | pnbundles check -`: the present line above, fed to check on stdin
    left, right = (shlex.split(side) for side in piped[0].split("|"))
    assert left[:2] == ["pnbundles", "present"] and right[0] == "pnbundles"
    monkeypatch.setattr("sys.stdin", io.StringIO(outputs["present"]))
    assert cli.main(right[1:]) == 0
    assert json.loads(capsys.readouterr().out)["bundle"] is True


def run_tour():
    """Each statement of the quick tour, with its value (the assigned value
    for an assignment) and its comment."""
    namespace, steps = {}, {}
    for code, comment in code_block("Library quick tour"):
        if not code:
            continue
        node = ast.parse(code).body[0]
        if isinstance(node, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        steps[code] = value, comment
    return steps


def test_readme_tour_does_what_its_comments_say():
    steps = run_tour()
    reprs = [(code, comment) for code, (_, comment) in steps.items() if re.match(r"True$|\w+\(n=", comment)]
    assert len(reprs) == 4
    for code, comment in reprs:
        assert repr(steps[code][0]) == comment, code
    value = {code: v for code, (v, _) in steps.items()}
    assert len(value["bundle_sequences(3, 4, 9)"]) == 6
    lat = value["lat = BettiLattice(h, 2)"]
    assert len(lat) == 8 and lat.cmax == IntSeq([0, 1, 2])
    m = value["m = explicit_matrix(pair, 32003)"]
    assert [format_poly(row[0]) for row in m.rows] == ["x0^2", "x1^2", "x2^2", "x3", "0"]
    small = value["minimal_betti(h)"]
    assert value["minimize_presentation(fam.at(7))"][0] == small  # the deformation recovers the small pair

"""CLI behavior: payloads, determinism, exit codes, schema conformance."""

import gc
import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from pnbundles import cli
from pnbundles.bundles import MAX_N
from pnbundles.generate import reg_rows

from _oracles import memo_bundle_sequences_by_reg


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name):
    ref = resources.files("pnbundles") / "schemas" / f"{schema_name}.schema.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(payload, schema)


def test_enumerate_csv_six_lines(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--rank", "4", "--degree", "9", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert "5,4" in lines


def test_enumerate_json_schema(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--rank", "4", "--degree", "9"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "enumerate_degree")
    assert sorted(payload) == payload


def test_enumerate_by_reg(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--rank", "4", "--max-reg", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "enumerate_reg")
    assert {"B": [5, 4], "s0": 1} in payload


def test_enumerate_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(["enumerate", "--n", "3", "--rank", "4"], capsys)
    assert code == 1
    doc = json.loads(err)
    validate(doc, "error")
    assert doc["error"] == "BadInput"


def test_admissible_false_payload(capsys):
    code, out, _ = run_cli(
        ["admissible", "--n", "3", "--a", "1", "--b", "0,0,0,1"], capsys
    )
    assert code == 0
    assert json.loads(out) is False
    validate(json.loads(out), "admissible")


def test_admissible_caret_notation(capsys):
    code, out, _ = run_cli(
        ["admissible", "--n", "3", "--a", "0", "--b=-1^5"], capsys
    )
    assert code == 0
    assert json.loads(out) is True


def test_lattice_json_eight_nodes(capsys):
    code, out, _ = run_cli(
        ["lattice", "--n", "3", "--seq", "5,4", "--anchor", "-1",
         "--max-reg", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "lattice")
    assert len(doc["nodes"]) == 8
    assert doc["cmax"] == [0, 1, 2]


def test_lattice_dot_deterministic(capsys):
    argv = ["lattice", "--n", "3", "--seq", "5,4", "--anchor", "-1", "--max-reg", "2"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("[label=") == 8


def test_lattice_regularity_error(capsys):
    code, _, err = run_cli(
        ["lattice", "--n", "3", "--seq", "5,4", "--anchor", "-1", "--max-reg", "-2"],
        capsys,
    )
    assert code == 1
    doc = json.loads(err)
    validate(doc, "error")
    assert doc["error"] == "RegularityTooSmall"


def test_hilbert_report(capsys):
    code, out, _ = run_cli(
        ["hilbert", "--n", "3", "--seq", "5,4", "--anchor", "-1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "hilbert")
    assert doc["c1"] == 5
    assert doc["minimal"] == {"a": [0], "b": [-1, -1, -1, -1, -1]}
    assert doc["normalize_twist"] == 2
    assert doc["values"]["-1"] == 5


def test_present_explicit_and_check_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1", "--mode", "explicit"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "matrix")
    path = tmp_path / "m.json"
    path.write_text(out)
    code2, out2, _ = run_cli(["check", str(path)], capsys)
    assert code2 == 0
    verdict = json.loads(out2)
    validate(verdict, "check")
    assert verdict["bundle"] is True and verdict["minimal"] is True


def test_present_random_deterministic(capsys):
    argv = ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1",
            "--mode", "random", "--seed", "9"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    other = run_cli(argv[:-1] + ["10"], capsys)[1]
    assert other != out1


def test_present_rejects_inadmissible(capsys):
    code, _, err = run_cli(
        ["present", "--n", "3", "--a", "1", "--b", "0,0,0,1"], capsys
    )
    assert code == 1
    assert json.loads(err)["error"] == "NotAdmissible"


def test_present_rejects_composite_prime(capsys):
    code, _, err = run_cli(
        ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1", "--prime", "32004"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadInput"


def test_check_stdin_and_failure(tmp_path, capsys, monkeypatch):
    import io

    bad = {
        "n": 3,
        "p": 32003,
        "a": [2],
        "b": [0, 0, 0, 1, 1],
        "entries": [["x0^2"], ["0"], ["0"], ["x3"], ["0"]],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
    code, out, _ = run_cli(["check", "-"], capsys)
    assert code == 0
    assert json.loads(out)["bundle"] is False


def test_check_multiple_files(tmp_path, capsys):
    _, out, _ = run_cli(
        ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1"], capsys
    )
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(out)
    p2.write_text(out)
    code, out2, _ = run_cli(["check", str(p1), str(p2)], capsys)
    assert code == 0
    docs = json.loads(out2)
    validate(docs, "check")
    assert [d["bundle"] for d in docs] == [True, True]


def test_check_missing_file(capsys):
    code, _, err = run_cli(["check", "/nonexistent/m.json"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "BadInput"


def test_deform_verb(capsys):
    code, out, _ = run_cli(
        ["deform", "--n", "3", "--small-a", "", "--small-b=-1^4",
         "--big-a", "0", "--big-b=-1^4,0", "--samples", "3", "--seed", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "deform")
    assert doc["witness"] == [0]
    assert doc["at_zero"]["matches_big"] is True
    assert all(s["matches_small"] for s in doc["samples"])


def test_deform_not_generalization(capsys):
    code, _, err = run_cli(
        ["deform", "--n", "3", "--small-a", "", "--small-b=-1^4",
         "--big-a", "1", "--big-b=-1^4,0"],
        capsys,
    )
    assert code == 1
    assert json.loads(err)["error"] == "NotGeneralization"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--rank", "4"])  # missing --n
    assert exc.value.code == 2


def test_unknown_verb_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_prime_env_read(capsys, monkeypatch):
    monkeypatch.setenv("PNBUNDLES_PRIME", "101")
    code, out, _ = run_cli(
        ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["p"] == 101


def test_present_random_empty_a(capsys):
    code, out, _ = run_cli(
        ["present", "--n", "3", "--a", "", "--b", "0,0,1", "--mode", "random"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc, "matrix")
    assert doc["a"] == [] and doc["entries"] == [[], [], []]


def test_present_text_format(capsys):
    code, out, _ = run_cli(
        ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["x0^2", "x1^2", "x2^2", "x3", "0"]


def test_hilbert_invalid_sequence(capsys):
    code, _, err = run_cli(
        ["hilbert", "--n", "3", "--seq", "5,2,4", "--anchor", "0"], capsys
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadInput"


def test_enumerate_by_reg_csv(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--rank", "4", "--max-reg", "1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "1,5,4" in out.splitlines()  # anchor 1, then the sequence 5,4


@pytest.mark.parametrize("n,r,d", [(1, 3, 1), (2, 4, 1), (3, 4, 2), (4, 5, 1), (4, 6, 0)])
def test_enumerate_by_reg_matches_memo_oracle(n, r, d, capsys):
    # rows from the oracle's HilbertFn values, written by the standard library
    rows = [(h.s0, h.seq.values) for h in memo_bundle_sequences_by_reg(n, r, d)]
    argv = ["enumerate", "--n", str(n), "--rank", str(r), "--max-reg", str(d)]
    want_json = json.dumps([{"B": list(v), "s0": s0} for s0, v in rows], indent=2, sort_keys=True)
    want_csv = "\n".join(",".join(map(str, (s0,) + v)) for s0, v in rows)
    assert run_cli(argv, capsys) == (0, want_json + "\n", "")
    assert run_cli(argv + ["--format", "csv"], capsys) == (0, want_csv + "\n", "")


def test_enumerate_by_reg_matches_json_dumps_at_benchmark_size(capsys):
    # the 47,475 rows that the classify benchmark prints, against the standard library
    rows = reg_rows(4, 6, 4)
    assert len(rows) == 47475
    want = json.dumps([{"B": list(v), "s0": s0} for s0, v in rows], indent=2, sort_keys=True)
    assert run_cli(["enumerate", "--n", "4", "--rank", "6", "--max-reg", "4"], capsys) == (0, want + "\n", "")


@pytest.mark.parametrize("argv,code", [
    (["admissible", "--n", "3", "--a", "1", "--b", "0,0,0,2"], 0),
    (["enumerate", "--n", "3", "--rank", "x"], 2),
])
def test_repeated_calls_agree_and_leave_no_cycles(argv, code, capsys):
    def call():
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        return got, captured.out, captured.err

    first = call()
    gc.collect()
    assert call() == first and first[0] == code
    # a parser built per call left about 400 objects in reference cycles
    assert gc.collect() < 50


def test_deform_byte_deterministic(capsys):
    argv = ["deform", "--n", "3", "--small-a", "", "--small-b=-1^4",
            "--big-a", "0", "--big-b=-1^4,0", "--samples", "2", "--seed", "5"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def assert_bad_input(code, out, err):
    assert code == 1 and out == ""
    doc = json.loads(err)
    validate(doc, "error")
    assert doc["error"] == "BadInput"


@pytest.mark.parametrize("mode", [["--max-reg", "1"], ["--degree", "3"]])
def test_enumerate_rank_zero_is_bad_input(mode, capsys):
    assert_bad_input(*run_cli(["enumerate", "--n", "3", "--rank", "0", *mode], capsys))


def test_check_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"n": 3, "p": 32003, "a": [], "b": [0], "entries": [], "x": "\xe9"}')
    assert_bad_input(*run_cli(["check", str(path)], capsys))


@pytest.mark.parametrize("entry", ["x0^-1", "x0^+1", "x0^", "+"])
def test_check_malformed_polynomial(entry, tmp_path, capsys):
    path = tmp_path / "m.json"
    doc = {"n": 3, "p": 32003, "a": [1], "b": [0, 0, 0, 0], "entries": [[entry], ["x1"], ["x2"], ["x3"]]}
    path.write_text(json.dumps(doc))
    assert_bad_input(*run_cli(["check", str(path)], capsys))


def test_check_names_a_non_homogeneous_entry(tmp_path, capsys):
    # a nonzero entry of mixed degree is refused by its position, not as "zero or not homogeneous"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "p": 7, "a": [1], "b": [0, 0], "entries": [["x0"], ["x1 + 1"]]}))
    code, out, err = run_cli(["check", str(path)], capsys)
    assert_bad_input(code, out, err)
    assert json.loads(err)["detail"] == "entry (1,0) must be homogeneous of degree 1"


def test_huge_modulus_rejected_on_every_path(tmp_path, capsys, monkeypatch):
    # trial division up to sqrt(p) would run for minutes on this prime
    huge = "1000000000000000003"
    argv = ["present", "--n", "3", "--a", "2", "--b", "0,0,0,1,1"]
    assert_bad_input(*run_cli(argv + ["--prime", huge], capsys))
    monkeypatch.setenv("PNBUNDLES_PRIME", huge)
    assert_bad_input(*run_cli(argv, capsys))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "p": int(huge), "a": [], "b": [0], "entries": []}))
    assert_bad_input(*run_cli(["check", str(path)], capsys))


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--rank", "4", "--degree", "9", "--jobs", "2"],
    ["check", "m.json", "--jobs", "2"],
])
def test_jobs_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


LINEAR = {"n": 3, "p": 32003, "a": [1], "b": [0, 0, 0, 0], "entries": [["x0"], ["x1"], ["x2"], ["x3"]]}


@pytest.mark.parametrize("field,value", [
    ("p", 32003.9),
    ("p", "32003"),
    ("n", 3.7),
    ("entries", [[1], ["x1"], ["x2"], ["x3"]]),
    ("n", 10**30),  # more variables than a list can index: an OverflowError traceback
    ("zz", 1),  # a key the schema forbids
])
def test_check_reads_matrix_documents_strictly(field, value, tmp_path, capsys):
    # int() used to coerce the first three, and an integer entry ended in a traceback
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**LINEAR, field: value}))
    assert_bad_input(*run_cli(["check", str(path)], capsys))


DEFORM = ["deform", "--n", "3", "--small-a", "", "--small-b=-1^4", "--big-a", "0", "--big-b=-1^4,0"]
LATTICE = ["lattice", "--n", "3", "--seq", "5,4", "--anchor=-1", "--format", "json", "--max-reg"]


@pytest.mark.parametrize("argv,bound", [
    (LATTICE + ["40"], "1024"),
    (LATTICE + ["100000"], "1024"),  # a node count with more digits than str() allows
    (DEFORM + ["--samples", "100000000"], "1000"),
    (DEFORM + ["--samples", "-1"], "1000"),
    (LATTICE + ["100000000"], "1024"),  # the lattice stops before it walks to d
    (["enumerate", "--n", "3", "--rank", "4", "--degree", "60"], "1000000"),  # 1.8e9 sequences
    (["enumerate", "--n", "3", "--rank", "4", "--max-reg", "12"], "1000000"),  # 1.2e9 candidates
    (["hilbert", "--n", "3", "--seq", "1^3000000,4"], "1000"),  # refused before the caret expands
    (["enumerate", "--n", "3", "--rank", "2", "--degree", "1200"], "64"),  # one sequence, 1199 entries
    (["hilbert", "--n", "10000000", "--seq", "1,2"], "64"),  # 10^7 passes over the window per value
    (["hilbert", "--n", "65", "--seq", "1^999,2"], "64"),  # just past the bound
    (["present", "--n", "3", "--a", "150", "--b", "0,0,0,0", "--mode", "random"], "100000"),  # 2.3e6 draws
    (["present", "--n", "1000000", "--a", "", "--b", "0", "--mode", "random"], "1000"),  # a document check refuses
    (["lattice", "--n", "3", "--seq", "3", "--max-reg", "1000000000"], None),  # r = n: answered, no walk to d
])
def test_work_bounded_by_flag_values(argv, bound):
    proc = run_process(argv)
    if bound is None:
        assert proc.returncode == 0, proc.stderr
        return
    assert_bad_input(proc.returncode, proc.stdout, proc.stderr)
    assert bound in json.loads(proc.stderr)["detail"]


def run_process(argv):
    # a separate process, so that unbounded work fails the test instead of hanging it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "pnbundles", *argv], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_check_bounds_the_dimension_before_reading_entries(tmp_path):
    # packing a monomial of P^n costs O(n^2) bit operations: n = 3000 took 25 s unbounded
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**LINEAR, "n": 10**6}))
    proc = run_process(["check", str(path)])
    assert_bad_input(proc.returncode, proc.stdout, proc.stderr)
    assert str(MAX_N) in json.loads(proc.stderr)["detail"]


def _zero_document(rows, cols, n):
    return {"n": n, "p": 101, "a": [1] * cols, "b": [0] * rows, "entries": [["0"] * cols] * rows}


@pytest.mark.parametrize("rows,cols,n", [
    (19, 9, 1), (19, 9, 100), (20, 10, 1), (26, 13, 1), (28, 14, 100),  # 92,378 to 40,116,600 maximal minors
])
def test_check_answers_zero_documents_at_once(rows, cols, n, tmp_path, capsys):
    # every row is zero and drops, so no row is left for the columns: false before the loop, with no minor taken
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_zero_document(rows, cols, n)))
    start = time.perf_counter()
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["bundle"] is False


def test_check_answers_at_the_dimension_bound(tmp_path):
    # the largest document that present prints (an empty a), then a linear one
    printed = run_process(["present", "--n", str(MAX_N), "--a", "", "--b", "0", "--mode", "random"])
    path = tmp_path / "m.json"
    for doc, bundle in [(json.loads(printed.stdout), True), ({**LINEAR, "n": MAX_N}, False)]:
        path.write_text(json.dumps(doc))
        proc = run_process(["check", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["bundle"] is bundle


def test_hilbert_answers_at_the_dimension_bound():
    # the widest window a sequence allows, at the largest n: every value prints in time
    proc = run_process(["hilbert", "--n", str(cli.MAX_HILBERT_N), "--seq", "1^999,2"])
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)["values"]
    assert len(values) == 1004 and values["-2"] == 0 and values["1001"] > 10**100

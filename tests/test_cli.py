"""End-to-end CLI runs: JSON reports, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

TRI = {"matrix": [[1, 0, 0], [1, 3, 0], [1, 0, 3], [1, 1, 0], [1, 0, 2]]}
CURVE013 = {"matrix": [[1, 0], [1, 1], [1, 3]]}
OBSTRUCTED = {
    "matrix": [
        [1, 0, 1, 0],
        [1, 1, 2, 0],
        [1, 2, 0, 0],
        [1, 1, 1, 0],
        [1, 2, 0, 2],
        [1, 1, 0, 3],
        [1, 0, 0, 4],
        [1, 1, 1, 1],
    ]
}


def run_cli(args, payload):
    proc = subprocess.run(
        [sys.executable, "-m", "gkzkit", *args],
        input=json.dumps(payload) if payload is not None else "",
        capture_output=True,
        text=True,
    )
    out = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, out, proc.stderr


def test_saturate_full_pipeline():
    code, out, _ = run_cli(["saturate", "--mode", "s"], TRI)
    assert code == 0
    assert out["result"]["added_points"] == [[1, 0, 1], [1, 1, 1], [1, 2, 0]]
    assert out["version"]
    assert out["input"] == TRI
    code, out, _ = run_cli(["saturate", "--mode", "full"], TRI)
    assert out["result"]["result_size"] == 10


def test_mults_curve():
    code, out, _ = run_cli(["mults"], CURVE013)
    assert code == 0
    vals = {tuple(r["face_labels"]): r["multiplicity"] for r in out["result"]["table"]}
    assert vals[("a1",)] == 1
    assert vals[("a3",)] == 2
    assert vals[("a1", "a2", "a3")] == 1


def test_redundant_and_exit_codes():
    code, out, _ = run_cli(["redundant", "--col", "3"], TRI)
    assert code == 0 and out["result"]["redundant"] is False
    code, _, err = run_cli(["mults"], None)
    assert code == 2
    code, _, err = run_cli(["curve", "edet"], {"matrix": [[1, 0], [1, 1], [1, 9]]})
    assert code == 3


def test_malformed_json():
    proc = subprocess.run(
        [sys.executable, "-m", "gkzkit", "mults"],
        input="{not json",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_aux_check_rejection_exit_code():
    code, out, _ = run_cli(["aux-check", "--k", "7", "--a", "3"], OBSTRUCTED)
    assert code == 1
    assert out["result"]["accepted"] is False


def test_aux_check_names_the_face_that_misses_the_auxiliary():
    # column 2 lies inside the edge (0, 1, 2, 3), which misses column 4
    payload = {"matrix": [[1, 0, 0], [1, 1, 0], [1, 2, 0], [1, 3, 0], [1, 0, 3]]}
    code, out, _ = run_cli(["aux-check", "--k", "2", "--a", "4"], payload)
    assert code == 1
    assert out["result"]["reasons"] == [
        "face (0, 1, 2, 3) contains the deleted point but not the auxiliary"
    ]


def test_aux_check_pyramid_route():
    # the multiplicity of the edge (1, 4) changes with column 3 deleted, and
    # its two points make it a pyramid
    payload = {"matrix": [[1, 0, 1], [1, 0, 3], [1, 2, 0], [1, 2, 3], [1, 3, 4], [1, 4, 3]]}
    code, out, _ = run_cli(["aux-check", "--k", "3", "--a", "1"], payload)
    assert code == 0 and out["result"]["accepted"] is True
    routes = {tuple(r["face"]): r["route"] for r in out["result"]["reasons"]}
    assert routes == {
        (0, 1, 2, 3, 4, 5): "top",
        (0, 1): "multiplicity",
        (1, 4): "pyramid",
        (1,): "multiplicity",
    }


def test_enumeration_cap_is_a_budget_error():
    code, out, err = run_cli(["secondary"], {"matrix": [[1, i] for i in range(13)]})
    assert code == 3 and out is None
    assert err == "budget exceeded: enumeration capped at 12 points, got 13\n"


def test_reduce_and_series_and_secondary():
    code, out, _ = run_cli(["reduce", "--mode", "p"], TRI)
    assert code == 0 and out["result"]["complete"] is True
    assert len(out["result"]["steps"]) == 2
    code, out, _ = run_cli(["secondary", "--enumerate"], CURVE013)
    assert code == 0
    assert out["result"]["vertices"] == [[1, 3, 2], [3, 0, 3]]
    assert len(out["result"]["triangulations"]) == 2
    payload = {"matrix": [[1, 0], [1, 1], [1, 2], [1, 3]], "beta": ["0", "1/2"]}
    code, out, _ = run_cli(["series", "--extend", "--col", "2", "--order", "4"], payload)
    assert code == 0
    assert out["result"]["annihilation"]["passed"] is True
    assert out["result"]["restriction_matches_input"] is True


def test_nonresonant_cli():
    payload = dict(CURVE013, beta=["0", "1/2"])
    code, out, _ = run_cli(["nonresonant"], payload)
    assert code == 0 and out["result"]["nonresonant"] is True
    code, out, _ = run_cli(["nonresonant", "--beta", "0,0"], CURVE013)
    assert out["result"]["nonresonant"] is False


def test_curve_commands():
    code, out, _ = run_cli(["curve", "edet"], CURVE013)
    assert code == 0
    assert out["result"]["principal_determinant"] == [[[1, 3, 2], 4], [[3, 0, 3], 27]]
    code, out, _ = run_cli(["curve", "verify"], CURVE013)
    assert code == 0 and out["result"]["vertex_multiplicities"] == [1, 2]


def test_hypothesis_violations_are_clean_rejections():
    # extending over a vertex column violates the construction's hypotheses
    payload = {"matrix": [[1, 0], [1, 1], [1, 2], [1, 3]], "beta": ["0", "1/2"]}
    code, _, err = run_cli(["series", "--extend", "--col", "0", "--order", "3"], payload)
    assert code == 1 and "rejected" in err
    code, _, err = run_cli(["redundant", "--col", "99"], TRI)
    assert code == 2


def test_series_over_the_only_column_is_a_vertex_rejection():
    # deleting the only column would leave no configuration to extend from
    payload = {"matrix": [[1, 0]], "beta": ["0", "0"]}
    code, out, err = run_cli(["series", "--extend", "--col", "0", "--order", "1"], payload)
    assert (code, out, err) == (1, None, "rejected: the added column must not be a vertex\n")


def test_series_order_flags(tmp_path, capsys):
    from gkzkit import cli

    path = tmp_path / "in.json"
    path.write_text(json.dumps({"matrix": [[1, 0], [1, 1], [1, 2], [1, 3]], "beta": ["0", "1/2"]}))

    def series(*flags):
        argv = ["--input", str(path), "series", "--extend", "--col", "2", *flags]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, json.loads(out) if out else None, err

    for flags, shown in ((["--order", "-1"], "--order must be nonnegative, got -1"),
                         (["--order", "2", "--psi-order", "-3"],
                          "--psi-order must be nonnegative, got -3")):
        code, out, err = series(*flags)
        assert code == 2 and out is None
        assert err == f"input error: {shown}\n"
    # an explicit 0 is used as given; the default 2 * order + 2 needs the flag absent
    code, out, _ = series("--order", "2", "--psi-order", "0")
    assert code == 0 and out["result"]["input_series"]["truncation_order"] == 0
    code, out, _ = series("--order", "2")
    assert code == 0 and out["result"]["input_series"]["truncation_order"] == 6


def test_malformed_labels_and_beta_are_input_errors():
    for labels in (5, "abc", [[1], [2], [3]], [None, "b", "c"], [True, "b", "c"], [1, 2, False]):
        code, out, err = run_cli(["faces"], dict(CURVE013, labels=labels))
        assert code == 2 and out is None
        assert err == "input error: 'labels' must be a list of strings or numbers\n"
    code, out, _ = run_cli(["faces"], dict(CURVE013, labels=[1, 2, 3]))
    assert code == 0 and out["input"]["labels"] == [1, 2, 3]
    # non-finite numbers would echo into a report that is not standard JSON
    matrix = json.dumps(CURVE013["matrix"])
    for token in ("NaN", "Infinity", "-Infinity", "1e400", "-1E+400"):
        for extra in (f'"note": {token}', f'"labels": ["a", {token}, "c"]'):
            proc = subprocess.run(
                [sys.executable, "-m", "gkzkit", "faces"],
                input=f'{{"matrix": {matrix}, {extra}}}',
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == f"input error: non-finite number {token}\n"
    for beta in (["0"], 5):
        code, out, err = run_cli(["nonresonant"], dict(CURVE013, beta=beta))
        assert code == 2 and out is None
        assert err.startswith("input error:") and err.count("\n") == 1


def test_curve_commands_check_labels():
    monodromy = ["monodromy", "--delta", "3", "--beta", "1/5,1/3"]
    for action in (["edet"], ["disc"], ["verify"], monodromy):
        for labels in (5, "abc", [None, "b", "c"], [True, "b", "c"]):
            code, out, err = run_cli(["curve", *action], dict(CURVE013, labels=labels))
            assert code == 2 and out is None
            assert err == "input error: 'labels' must be a list of strings or numbers\n"
    code, out, _ = run_cli(["curve", "edet"], dict(CURVE013, labels=["x", 2, 3.5]))
    assert code == 0 and out["input"]["labels"] == ["x", 2, 3.5]


def test_monodromy_beta_length_and_ragged_matrix_are_input_errors():
    for beta in ("1/5", "1/5,1/3,1"):
        code, out, err = run_cli(["curve", "monodromy", "--delta", "3", "--beta", beta], {})
        assert code == 2 and out is None
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "needs 2 entries" in err
    code, out, err = run_cli(["faces"], {"matrix": [[1, 0], [1]]})
    assert code == 2 and out is None
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "[2, 1]" in err
    # columns whose affine hull holds 0: 0 = 2 (1, 0) - (2, 0), a zero column,
    # and a column of length 0
    for matrix in ([[1, 0], [2, 0]], [[0, 0], [1, 1]], [[]]):
        code, out, err = run_cli(["faces"], {"matrix": matrix})
        assert (code, out) == (2, None)
        assert err == "input error: no functional takes the value 1 on every column\n"


def test_faces_command():
    code, out, _ = run_cli(["faces"], TRI)
    assert code == 0
    assert out["result"]["newton_dim"] == 2
    dims = sorted(f["dim"] for f in out["result"]["faces"])
    assert dims == [0, 0, 0, 1, 1, 1, 2]


def test_curve_monodromy_command():
    code, out, _ = run_cli(["curve", "monodromy", "--delta", "3", "--beta", "1/5,1/3"], {})
    assert code == 0
    res = out["result"]
    assert res["trivial_loop_error"] < 1e-9
    assert len(res["generators"]) == 3
    assert "gen23_charpoly" in res["invariants"]
    code, _, err = run_cli(["curve", "monodromy", "--delta", "3", "--beta", "0,0"], {})
    assert code == 1 and "rejected" in err


def test_determinism():
    outs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "gkzkit", "saturate", "--mode", "p"],
            input=json.dumps(TRI),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["added_points"]
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_hull_cap_is_a_budget_error():
    # the cyclic 6-polytope on 24 points needs 711416 candidate facet pairs
    payload = {"matrix": [[t**k for k in range(7)] for t in range(24)]}
    start = time.perf_counter()
    code, out, err = run_cli(["faces"], payload)
    assert time.perf_counter() - start < 5
    assert code == 3 and out is None
    assert err.startswith("budget exceeded: hull limited to 200000 candidate facet pairs")
    assert err.count("\n") == 1 and "of 24 points inserted" in err and "facets so far" in err
    # the budget bounds work, not input size: 49 collinear columns are cheap
    code, out, _ = run_cli(["faces"], {"matrix": [[1, i] for i in range(49)]})
    assert code == 0
    assert [len(f["points"]) for f in out["result"]["faces"]] == [1, 1, 49]


def test_curve_verify_on_six_points():
    # the Newton polytope of E has 59 points
    code, out, _ = run_cli(["curve", "verify"], {"matrix": [[1, a] for a in range(6)]})
    assert code == 0
    assert out["result"]["ok"] and out["result"]["newton_matches_secondary"]


def test_non_integer_matrix_entries_are_input_errors():
    cases = [
        (["faces"], {"matrix": [[1, 0], [1, 1.5]]}, "entry 1 of column 1", "1.5"),
        (["faces"], {"matrix": [[1, 0], [True, 1]]}, "entry 0 of column 1", "true"),
        (["faces"], {"matrix": [[1, 0], [1, "2"]]}, "entry 1 of column 1", '"2"'),
        (["curve", "edet"], {"matrix": [5, 6]}, "column 0 must be a list", "5"),
        (["curve", "edet"], {"matrix": [[1, 0], [1, None]]}, "entry 1 of column 1", "null"),
        (["curve", "edet"], {"matrix": [[1, 0], [1, "x"]]}, "entry 1 of column 1", '"x"'),
    ]
    for args, payload, where, shown in cases:
        code, out, err = run_cli(args, payload)
        assert code == 2 and out is None, (payload, code, err)
        assert err.startswith("input error: matrix ") and err.count("\n") == 1
        assert where in err and err.rstrip().endswith(shown)


def _run_text(args, text):
    proc = subprocess.run(
        [sys.executable, "-m", "gkzkit", *args], input=text, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_numbers_past_the_int_string_limit(monkeypatch, capsys):
    # Python refuses int strings of more than 4300 digits; an input integer or a
    # beta past that is an input error, and a beta exponent is checked before
    # its power of ten is built
    big = "7" * 5000
    for text in (f'{{"matrix": [[1, 0], [1, {big}]]}}', f'{{"matrix": [[1, 0], [1, 1]], "n": {big}}}'):
        code, out, err = _run_text(["faces"], text)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("input error: cannot read input: Exceeds the limit (4300 digits)")
    start = time.perf_counter()
    for beta in ("1e5000", "-1E+5000", "1e-5000", "1e999999999", big, f"1/{big}"):
        code, out, err = run_cli(["nonresonant"], {"matrix": [[1, 0], [1, 1]], "beta": [beta, "0"]})
        assert code == 2 and out is None and err == f"input error: bad rational {beta!r}\n"
    assert time.perf_counter() - start < 10
    # JSON numbers as beta keep their float's exponent, within +-324
    code, out, _ = _run_text(["nonresonant"], '{"matrix": [[1, 0], [1, 1]], "beta": [1e300, 5e-324]}')
    beta = json.loads(out)["result"]["beta"]
    assert code == 0 and beta[0] == "1" + "0" * 300 and beta[1].startswith("1/2" + "0" * 320)
    # a computed report holding integers past the limit is printed in full
    n = 10**2200
    payload = {"matrix": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, n, 0], [1, 0, n]]}
    code, out, err = _run_text(["mults"], json.dumps(payload))
    assert code == 0 and err == "" and len(out) > 20_000
    assert max(map(len, re.findall(r"\d+", out))) == 4400  # multiplicities of order n**2
    # in process, the interpreter's limit is back after the report
    from gkzkit import cli

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(["mults"]) == 0 and len(capsys.readouterr().out) > 20_000
    assert sys.get_int_max_str_digits() == 4300


def test_lattice_point_search_box_is_a_budget_error():
    payload = {"matrix": [[1, 0], [1, 1], [1, 10**8]]}
    start = time.perf_counter()
    code, out, err = run_cli(["saturate", "--mode", "full"], payload)
    assert time.perf_counter() - start < 1
    assert code == 3 and out is None
    assert err == (
        "budget exceeded: lattice-point search limited to 10000 box points, got 100000001\n"
    )


def test_saturation_box_budgets():
    # no column is interior, so "p" scans the two vertices and never N's box
    code, out, err = run_cli(["saturate", "--mode", "p"], {"matrix": [[1, 0], [1, 10**8]]})
    assert code == 0 and err == "" and out["result"]["added_points"] == []
    budget = "budget exceeded: lattice-point search limited to 10000 box points, got {}\n"
    # an interior column: "s" and "p" both need N's box
    for mode in ("s", "p"):
        code, out, err = run_cli(["saturate", "--mode", mode], {"matrix": [[1, 0], [1, 1], [1, 10**8]]})
        assert (code, out, err) == (3, None, budget.format(100000001))
    # an edge and N over the cap: "s" scans N first and names N's box, and
    # "p" needs the edge only
    payload = {"matrix": [[1, 0, 0], [1, 20000, 0], [1, 0, 1], [1, 1, 0]]}
    for mode, size in (("s", 40002), ("p", 20001), ("full", 40002)):
        code, out, err = run_cli(["saturate", "--mode", mode], payload)
        assert (code, out, err) == (3, None, budget.format(size))


def test_internal_failure_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    from gkzkit import cli

    def broken(data, args):
        raise AssertionError("lower hull cells must cover the polytope")

    monkeypatch.setitem(cli.HANDLERS, "faces", broken)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(TRI))
    assert cli.main(["--input", str(path), "faces"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: lower hull cells must cover the polytope\n"


def test_secondary_polytope_past_the_hull_cap():
    # 64 GKZ vectors: more than the hull takes, certified by their heights
    code, out, err = run_cli(["secondary"], {"matrix": [[1, i] for i in range(8)]})
    assert code == 0, err
    assert len(out["result"]["vertices"]) == 64 and out["result"]["dim"] == 6


def test_bad_column_indices_are_input_errors():
    code, out, err = run_cli(["redundant", "--col", "99"], TRI)
    assert code == 2 and out is None
    assert err == "input error: column 99 out of range\n"
    for k, a in (("1", "1"), ("3", "5"), ("-1", "2")):
        code, out, err = run_cli(["aux-check", "--k", k, "--a", a], TRI)
        assert code == 2 and out is None
        assert err == "input error: need two distinct valid column indices\n"


def test_internal_index_error_is_an_internal_failure(tmp_path, monkeypatch, capsys):
    from gkzkit import cli

    def broken(data, args):
        raise IndexError("list index out of range")

    monkeypatch.setitem(cli.HANDLERS, "faces", broken)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(TRI))
    assert cli.main(["--input", str(path), "faces"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: IndexError: list index out of range\n"


@pytest.mark.parametrize(
    "args, payload, expect",
    [(["mults"], CURVE013, 0), (["aux-check", "--k", "7", "--a", "3"], OBSTRUCTED, 1)],
)
def test_closed_stdout_keeps_the_exit_code(tmp_path, monkeypatch, capsys, args, payload, expect):
    from gkzkit import cli

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert cli.main(["--input", str(path), *args]) == expect
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_reader_that_hangs_up_gets_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkzkit", "aux-check", "--k", "7", "--a", "3"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # no reader is left when the report is written
    _, err = proc.communicate(json.dumps(OBSTRUCTED))
    assert proc.returncode == 1 and err == ""


CLI_CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_corpus.json").read_text(encoding="utf-8")
)["cases"]


@pytest.mark.parametrize("case", CLI_CORPUS, ids=[c["id"] for c in CLI_CORPUS])
def test_cli_corpus_replays_byte_identical(monkeypatch, capsys, case):
    # the benchmark's recorded reports, known_defect cases included: both
    # now meet the contract
    from gkzkit import cli

    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = cli.main(case["args"])
    out, err = capsys.readouterr()
    assert code == case["exit"], err
    assert out.encode() == case["stdout"].encode()

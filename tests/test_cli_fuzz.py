"""Fuzzing the CLI contract in process: every payload and flag set ends in a
documented verdict (0 success, 1 rejection, 2 input error, 3 budget), with at
most one line on stderr and never a traceback or an internal error."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gkzkit import cli

entries = st.integers(-3, 3)
# an integer past Python's 4300-digit int-string limit; the payload holds it as
# a string, which the test writes into the JSON text as a bare number
OVERSIZED = "9" * 4301
fractions = st.sampled_from(["0", "1", "-1", "1/2", "-1/3", "1/5", "2/7"])


@st.composite
def payloads(draw, curve=False):
    """1-6 distinct columns of 1-3 rows, mostly on a hyperplane c = 1 or 2 so
    that the configuration is homogeneous (for curve and series, mostly a
    curve support 0 < e_1 < ... of exponents), sometimes with a fault."""
    rows = draw(st.integers(1, 3))
    shapes = ["curve"] * 4 + ["homogeneous", "raw"] if curve else ["homogeneous"] * 3 + ["raw"]
    shape = draw(st.sampled_from(shapes + ["curve"]))
    if shape == "curve":
        rows = 2
        support = sorted(draw(st.sets(st.integers(1, 3), min_size=1, max_size=3)))
        matrix = [[1, e] for e in (0, *support)]
    else:
        first = draw(st.sampled_from([1, 1, 2]))
        column = st.lists(entries, min_size=rows - 1, max_size=rows - 1).map(
            lambda rest: [first, *rest]
        )
        if shape == "raw":
            column = st.lists(entries, min_size=rows, max_size=rows)
        matrix = draw(st.lists(column, min_size=1, max_size=6, unique_by=tuple))
    data = {"matrix": matrix, "beta": draw(st.lists(fractions, min_size=rows, max_size=rows))}
    faults = ["entry", "ragged", "labels", "odd label", "beta", "repeat", "oversized"]
    fault = draw(st.sampled_from([None] * 8 + faults))
    if fault == "entry":
        matrix[-1][-1] = draw(st.sampled_from([1.5, "2", None, True, [1]]))
    elif fault == "ragged":
        matrix[0].append(0)
    elif fault == "labels":
        data["labels"] = draw(st.sampled_from([5, "abc", [[1]], ["x"] * len(matrix), ["a"]]))
    elif fault == "odd label":
        # a null or NaN label among otherwise distinct ones
        data["labels"] = [draw(st.sampled_from([None, float("nan")])), *range(1, len(matrix))]
    elif fault == "beta":
        data["beta"] = draw(st.sampled_from([[], ["1/0"], ["x"], "1/2", [0] * (rows + 1)]))
    elif fault == "repeat":
        matrix.append(list(matrix[0]))
    elif fault == "oversized":
        if draw(st.booleans()):
            data[draw(st.text("abcxyz", min_size=1, max_size=3))] = OVERSIZED
        else:
            data["beta"] = ["1e5000"] * rows
    return data


def _flags(command, draw, size):
    """Flags for the command; column flags range over -1 .. size, one past
    each end of the payload's columns."""
    columns = st.integers(-1, size)
    if command == "saturate":
        return ["--mode", draw(st.sampled_from(["s", "p", "full"]))]
    if command == "redundant":
        return ["--col", str(draw(columns))]
    if command == "aux-check":
        k = draw(columns)
        return ["--k", str(k), "--a", str(draw(columns.filter(lambda a: a != k)))]
    if command == "reduce":
        return ["--mode", draw(st.sampled_from(["s", "p"]))]
    if command == "secondary":
        return draw(st.sampled_from([[], ["--enumerate"]]))
    if command == "nonresonant":
        return draw(st.sampled_from([[], ["--beta", "0,1/2"], ["--beta", "1/3"]]))
    if command == "series":
        flags = ["--col", str(draw(columns)), "--order", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            flags += ["--psi-order", str(draw(st.integers(-2, 4)))]
        return flags + draw(st.sampled_from([["--extend"]] * 5 + [[]]))
    if command == "curve":
        action = draw(st.sampled_from(["edet", "disc", "verify", "monodromy"]))
        delta = draw(st.sampled_from([[], ["--delta", "1"], ["--delta", "2"], ["--delta", "3"]]))
        return [action, *delta]
    return []


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_invocation_ends_in_a_documented_verdict(command, data):
    payload = data.draw(payloads(curve=command in ("curve", "series")))
    argv = [command, *_flags(command, data.draw, len(payload["matrix"]))]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    text = json.dumps(payload).replace(json.dumps(OVERSIZED), OVERSIZED)
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3), (argv, payload, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, payload, err.getvalue())
    labels = payload.get("labels")
    odd = labels[0] if isinstance(labels, list) and labels else ""
    if odd != odd or (odd is None and command != "curve"):
        # a NaN label fails the parse, a null one every command that reads labels
        assert code == 2, (argv, payload, out.getvalue())
    reads_beta = command == "series" or (command == "nonresonant" and "--beta" not in argv)
    if OVERSIZED in text or (payload["beta"][:1] == ["1e5000"] and reads_beta):
        # the parse refuses the integer; series and nonresonant read the beta
        assert code == 2, (argv, payload, err.getvalue())
    if out.getvalue():
        # every report is standard JSON: no NaN or Infinity
        report = json.loads(out.getvalue(), parse_constant=_refuse)
        assert code in (0, 1) and report["command"] == argv[0]


def _refuse(token):
    raise AssertionError(f"report holds the non-standard number {token}")

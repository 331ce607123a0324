"""Batch CLI: parse a configuration, run one computation, emit a JSON report.

Input is JSON with a column-major integer matrix (a list of character
columns), optional labels, and an optional parameter vector of "p/q" strings:

    {"matrix": [[1,0,0],[1,3,0],[1,0,3],[1,1,0],[1,0,2]], "beta": ["0","1/2"]}

All exact values are serialized as integers or "p/q" strings; only the
monodromy command emits floating complex numbers, with its tolerance stated.
Reports echo the input and the tool version, and key order is canonical, so
identical invocations are byte-identical.

Exit codes: 0 success, 1 obstruction or rejection reported, 2 input error
(malformed JSON, a matrix entry that is not an integer, ...), 3 budget
exceeded (symbolic degree, enumeration size, the hull's candidate facet pairs
or lattice-point search box), 4 internal error (a failed invariant of gkzkit
itself).  If the reader closes the pipe before the report is written (``gkzkit
mults | head -c 1``), the command still exits with its own code, and prints no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
# main and _config_from catch BudgetError; every other library name is
# imported by the handler that uses it, so a command loads only its modules
from .polytope import BudgetError

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

MONODROMY_TOLERANCE = 1e-9


class InputError(ValueError):
    pass


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(s) -> Fraction:
    try:
        t, limit = str(s), sys.int_info.default_max_str_digits
        if len(t) > limit or abs(int(t.lower().partition("e")[2] or 0)) > limit:
            raise ValueError  # past Python's int-string limit, refused before 10 ** e is built
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}") from exc


def _finite(token):
    """A JSON float; NaN, Infinity and overflows would not echo as standard JSON."""
    if not math.isfinite(x := float(token)):
        raise InputError(f"non-finite number {token}")
    return x


def _load_payload(path: str | None):
    try:
        if path and path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        if not raw.strip():
            return {}
        data = json.loads(raw, parse_constant=_finite, parse_float=_finite)
    except InputError:
        raise
    except (OSError, ValueError) as exc:  # an integer past the int-string limit too
        raise InputError(f"cannot read input: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    return data


def _matrix_from(data, missing: str):
    """The column-major 'matrix': a nonempty list of lists of integers (JSON
    numbers without a fraction part; booleans are not integers here)."""
    cols = data.get("matrix")
    if not isinstance(cols, list) or not cols:
        raise InputError(missing)
    for j, col in enumerate(cols):
        if not isinstance(col, list):
            raise InputError(f"matrix column {j} must be a list, got {json.dumps(col)}")
        for i, a in enumerate(col):
            if not isinstance(a, int) or isinstance(a, bool):
                raise InputError(
                    f"matrix entry {i} of column {j} must be an integer, got {json.dumps(a)}"
                )
    return cols


def _labels_from(data):
    """The optional 'labels': None or a list of strings and numbers (JSON
    null and booleans are neither)."""
    labels = data.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or any(type(l) not in (str, int, float) for l in labels)
    ):
        raise InputError("'labels' must be a list of strings or numbers")
    return labels


def _config_from(data) -> PointConfiguration:
    from .configuration import PointConfiguration

    cols = _matrix_from(data, "input needs a nonempty column-major 'matrix'")
    lengths = [len(col) for col in cols]
    if len(set(lengths)) > 1:
        raise InputError(f"matrix columns must have equal lengths, got {lengths}")
    labels = _labels_from(data)
    try:
        return PointConfiguration.from_columns(cols, labels)
    except BudgetError:  # from_columns builds the Newton hull: main reports its budget
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _beta_from(data, args, length, source):
    """The parameter vector, which must have ``length`` entries; ``source``
    says why, for the diagnostic."""
    raw = getattr(args, "beta", None) or data.get("beta")
    if raw is None:
        raise InputError("a parameter vector 'beta' is required")
    if isinstance(raw, str):
        raw = raw.split(",")
    if not isinstance(raw, list):
        raise InputError("'beta' must be a list of rationals")
    beta = tuple(parse_frac(b) for b in raw)
    if len(beta) != length:
        raise InputError(f"'beta' needs {length} entries ({source}), got {len(beta)}")
    return beta


def _curve_from(data) -> MonomialCurveConfig:
    from .curves import MonomialCurveConfig

    cols = _matrix_from(data, "curve commands need a 2-row column-major 'matrix'")
    exps = []
    for col in cols:
        if len(col) != 2 or col[0] != 1:
            raise InputError("curve columns must look like (1, exponent)")
        exps.append(col[1])
    _labels_from(data)  # the curve commands use no labels, but check them as the others do
    try:
        return MonomialCurveConfig(tuple(exps))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _column(A: PointConfiguration, k: int) -> int:
    """A column index from the command line, checked against the matrix."""
    if not 0 <= k < A.size:
        raise InputError(f"column {k} out of range")
    return k


def _point(p):
    return [int(a) for a in p]


def _poly_json(p):
    return [[list(e), c] for e, c in sorted(p.items())]


def _series_json(s):
    return {
        "base_exponent": [frac_str(v) for v in s.base_exponent],
        "terms": [[list(u), frac_str(c)] for u, c in s.term_items],
        "truncation_order": s.truncation_order,
    }


def _run_faces(data, args):
    A = _config_from(data)
    faces = [
        {
            "dim": f.dim,
            "points": [_point(A.points[i]) for i in f.indices],
            "labels": [A.labels[i] for i in f.indices],
            "lattice_rank": f.dim,  # a face's points span its affine hull
        }
        for f in A.poset.faces
    ]
    return {"faces": faces, "newton_dim": A.newton.dim}, EXIT_OK


def _run_saturate(data, args):
    from .configuration import saturate

    A = _config_from(data)
    res = saturate(A, args.mode)
    return {
        "mode": res.mode,
        "added_points": [_point(p) for p in res.added_points],
        "result_points": [_point(p) for p in res.result.points],
        "result_size": res.result.size,
    }, EXIT_OK


def _run_redundant(data, args):
    from .configuration import is_lattice_redundant

    A = _config_from(data)
    rep = is_lattice_redundant(A, _column(A, args.col))
    return {
        "column": args.col,
        "redundant": bool(rep),
        "reason": rep.reason,
        "faces_checked": len(rep.per_face),
    }, EXIT_OK


def _run_mults(data, args):
    from .configuration import multiplicity

    A = _config_from(data)
    rows = []
    for f in A.poset.faces:
        rec = multiplicity(A, f)
        rows.append(
            {
                "face_labels": [A.labels[i] for i in f.indices],
                "dim": f.dim,
                "index": rec.index_i,
                "subdiagram_volume": rec.subvol_v,
                "multiplicity": rec.mult_m,
            }
        )
    return {"table": rows}, EXIT_OK


def _run_aux_check(data, args):
    from .configuration import check_aux_point

    A = _config_from(data)
    if args.k == args.a or not (0 <= args.k < A.size and 0 <= args.a < A.size):
        raise InputError("need two distinct valid column indices")
    cert = check_aux_point(A, args.k, args.a)
    payload = {
        "deleted": args.k,
        "auxiliary": args.a,
        "accepted": bool(cert),
        "reasons": [
            r if isinstance(r, str) else
            {"face": list(r.face_indices), "route": r.route, "detail": r.detail}
            for r in cert.reasons
        ],
    }
    return payload, EXIT_OK if cert else EXIT_REJECTED


def _run_reduce(data, args):
    from .configuration import reduction_chain

    A = _config_from(data)
    chain = reduction_chain(A, args.mode)
    payload = {
        "mode": args.mode,
        "complete": chain.complete,
        "steps": [
            {
                "added": _point(s.added_point),
                "face": list(s.face_indices),
                "witness": _point(s.witness),
            }
            for s in chain.steps
        ],
        "obstruction": [_point(p) for p in chain.obstruction],
    }
    return payload, EXIT_OK if chain.complete else EXIT_REJECTED


def _run_secondary(data, args):
    from .secondary import enumerate_regular_triangulations, gkz_vector, secondary_polytope

    A = _config_from(data)
    S = secondary_polytope(A)
    payload = {"vertices": [_point(v) for v in sorted(S.vertices)], "dim": S.dim}
    if args.enumerate:
        tris = enumerate_regular_triangulations(A)
        payload["triangulations"] = [
            {
                "cells": [list(c) for c in T.cells],
                "volumes": list(T.volumes),
                "gkz_vector": list(gkz_vector(A, T)),
            }
            for T in tris
        ]
    return payload, EXIT_OK


def _run_nonresonant(data, args):
    from .hyper import is_nonresonant

    A = _config_from(data)
    beta = _beta_from(data, args, A.ambient_dim, "one per matrix row")
    rep = is_nonresonant(A, beta)
    return {
        "beta": [frac_str(b) for b in beta],
        "nonresonant": bool(rep),
        "witness_face": list(rep.witness_face) if rep.witness_face else None,
    }, EXIT_OK


def _run_series(data, args):
    from .hyper import annihilation_check, extend_solution, gamma_series, restrict_to_zero
    from .secondary import DegenerateHeightsError, regular_triangulation

    A = _config_from(data)
    beta = _beta_from(data, args, A.ambient_dim, "one per matrix row")
    if not args.extend:
        raise InputError("series currently supports the --extend pipeline")
    k = _column(A, args.col)
    for flag, value in (("--order", args.order), ("--psi-order", args.psi_order)):
        if value is not None and value < 0:
            raise InputError(f"{flag} must be nonnegative, got {value}")
    if k in A.newton.vertex_indices:  # before the deletion, which may leave no column
        raise ValueError("the added column must not be a vertex")
    A_k = A.delete(k)
    psi_order = 2 * args.order + 2 if args.psi_order is None else args.psi_order
    T = None
    for attempt in range(6):  # deterministic height perturbations
        heights = [
            Fraction(i * i + 1, 7) + Fraction(attempt * (i**3 + i), 113)
            for i in range(A_k.size)
        ]
        try:
            T = regular_triangulation(A_k, heights)
            break
        except DegenerateHeightsError:
            continue
    if T is None:
        raise InputError("no generic lifting heights found for the deletion")
    cell = T.cells[0]
    psi = gamma_series(A_k, beta, cell, psi_order)
    F = extend_solution(psi, A, k, beta, args.order)
    back = restrict_to_zero(F, k)
    report = annihilation_check(F)
    payload = {
        "input_series": _series_json(psi),
        "extended_series": _series_json(F),
        "cell": list(cell),
        "annihilation": {
            "passed": bool(report),
            "determined_zero": report.determined_zero,
            "violations": len(report.determined_nonzero),
            "boundary_indeterminate": report.boundary_indeterminate,
        },
        "restriction_matches_input": back.terms == psi.terms,
    }
    ok = bool(report) and payload["restriction_matches_input"]
    return payload, EXIT_OK if ok else EXIT_REJECTED


def _run_curve(data, args):
    if args.action in ("edet", "disc", "verify"):
        from .curves import discriminant_curve, principal_determinant_curve, verify_factorization

        cfg = _curve_from(data)
        if args.action == "edet":
            return {"principal_determinant": _poly_json(principal_determinant_curve(cfg))}, EXIT_OK
        if args.action == "disc":
            return {"discriminant": _poly_json(discriminant_curve(cfg))}, EXIT_OK
        rep = verify_factorization(cfg)
        payload = {
            "ok": bool(rep),
            "vertex_multiplicities": list(rep.vertex_multiplicities),
            "coordinate_exponents": list(rep.coordinate_exponents),
            "discriminant_power": rep.discriminant_power,
            "newton_matches_secondary": rep.newton_matches_secondary,
        }
        return payload, EXIT_OK if rep else EXIT_REJECTED
    if args.action == "monodromy":
        from .continuation import numeric_monodromy

        _labels_from(data)  # unused, but checked as in the other curve actions
        if args.delta is None:
            raise InputError("monodromy needs --delta")
        beta = _beta_from(data, args, 2, "beta_1 and beta_2 of the curve system")
        res = numeric_monodromy(args.delta, beta)
        def cplx(z):
            return [z.real, z.imag]
        payload = {
            "delta": args.delta,
            "beta": [frac_str(b) for b in beta],
            "tolerance": MONODROMY_TOLERANCE,
            "trivial_loop_error": res.trivial_loop_error,
            "generators": [
                [[cplx(x) for x in row] for row in M] for M in res.generators
            ],
            "invariants": {
                k: ([cplx(x) for x in v] if isinstance(v, tuple) else cplx(v))
                for k, v in res.invariants
            },
        }
        return payload, EXIT_OK
    raise InputError(f"unknown curve action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gkzkit", description=__doc__)
    ap.add_argument("--input", "-i", default="-", help="JSON input path, '-' for stdin")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("faces")
    p = sub.add_parser("saturate")
    p.add_argument("--mode", choices=["s", "p", "full"], required=True)
    p = sub.add_parser("redundant")
    p.add_argument("--col", type=int, required=True)
    sub.add_parser("mults")
    p = sub.add_parser("aux-check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p = sub.add_parser("reduce")
    p.add_argument("--mode", choices=["s", "p"], required=True)
    p = sub.add_parser("secondary")
    p.add_argument("--enumerate", action="store_true")
    p = sub.add_parser("nonresonant")
    p.add_argument("--beta")
    p = sub.add_parser("series")
    p.add_argument("--extend", action="store_true")
    p.add_argument("--col", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--psi-order", type=int, default=None)
    p.add_argument("--beta")
    p = sub.add_parser("curve")
    p.add_argument("action", choices=["edet", "disc", "verify", "monodromy"])
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--beta")
    return ap


HANDLERS = {
    "faces": _run_faces,
    "saturate": _run_saturate,
    "redundant": _run_redundant,
    "mults": _run_mults,
    "aux-check": _run_aux_check,
    "reduce": _run_reduce,
    "secondary": _run_secondary,
    "nonresonant": _run_nonresonant,
    "series": _run_series,
    "curve": _run_curve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    try:
        data = _load_payload(args.input)
        sys.set_int_max_str_digits(0)  # the input is read: computed numbers print in full
        payload, code = HANDLERS[args.command](data, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        # hypothesis violations from the library (vertex deletions, lattice
        # drops, unsupported degrees) are rejections, not crashes
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except Exception as exc:
        # anything else is a failed invariant of gkzkit, not a verdict on the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    else:
        report = {
            "command": args.command,
            "input": data,
            "version": __version__,
            "result": payload,
        }
        try:
            print(json.dumps(report, sort_keys=True, separators=(",", ":")))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; point stdout at /dev/null so that the flush at
            # interpreter exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

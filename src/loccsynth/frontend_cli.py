"""Command-line front end: exact file formats, run reports, DOT export.

Measurement file format (JSON, everything exact):

    {
      "dA": 2,
      "dB": 2,
      "outcomes": [
        {"A": [[["1", "0"], ["0", "0"]],
               [["0", "0"], ["0", "0"]]],
         "B": ...},
        ...
      ]
    }

Every matrix entry is a pair [re, im] of fraction strings such as "1/2" or
"-1/3": an optional sign, digits, and optionally "/" and more digits, with
a value no larger than a float can hold.  A run writes a machine-readable
report whose field order is fixed; the only varying fields live under
"timing".

Exit codes: 0 protocol found, 1 input error (bad file, bad measurement, bad
flag, a protocol whose values no float can hold, or an output path that
cannot be written, checked before the search), 2 no LOCC protocol (either
certificate), 3 inconclusive because a search cap truncated enumeration, 4
protocol found but the floating-point instrument check failed (the report
is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exact_algebra import ExactComplex, HermitianOp
from .kraus_realization import realize, verify_instrument
from .protocol_tree import LeafRef, Tree, TreeNode, tree_to_text
from .synthesis_engine import (
    INCONCLUSIVE_CAPPED,
    LOCCProtocol,
    MeasurementError,
    SearchConfig,
    SeparableMeasurement,
    synthesize,
    validate_measurement,
)


class MeasurementFileError(ValueError):
    """Malformed measurement file; the message names the offending entry."""


# The only entry form: an integer or a fraction of integers, such as "-1/3".
# Exponents ("1e100000") would make Fraction build huge integers.
_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_fraction(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise MeasurementFileError(f"{where}: expected a fraction string, got {text!r}")
    try:
        if not _FRACTION.fullmatch(text):
            raise ValueError("expected an integer or p/q")
        value = Fraction(text)
        # The Kraus realization works in floats, so every entry must fit one.
        float(value)
    except OverflowError:
        raise MeasurementFileError(
            f"{where}: bad fraction {text!r} (beyond float range)"
        ) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise MeasurementFileError(f"{where}: bad fraction {text!r} ({exc})") from None
    return value


def _parse_matrix(data, dim: int, where: str) -> HermitianOp:
    if not isinstance(data, list) or len(data) != dim:
        raise MeasurementFileError(f"{where}: expected {dim} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise MeasurementFileError(f"{where}: row {i} must have {dim} entries")
        out = []
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise MeasurementFileError(
                    f"{where}: entry ({i},{j}) must be a [re, im] pair"
                )
            re = _parse_fraction(entry[0], f"{where} entry ({i},{j}) re")
            im = _parse_fraction(entry[1], f"{where} entry ({i},{j}) im")
            out.append(ExactComplex(re, im))
        rows.append(out)
    try:
        return HermitianOp.from_rows(rows)
    except ValueError as exc:
        raise MeasurementFileError(f"{where}: {exc}") from None


def measurement_from_dict(doc) -> SeparableMeasurement:
    if not isinstance(doc, dict):
        raise MeasurementFileError("the top level must be a JSON object")
    for field in ("dA", "dB", "outcomes"):
        if field not in doc:
            raise MeasurementFileError(f"missing field {field!r}")
    dA, dB = doc["dA"], doc["dB"]
    if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in (dA, dB)):
        raise MeasurementFileError("dA and dB must be positive integers")
    if not isinstance(doc["outcomes"], list):
        raise MeasurementFileError("'outcomes' must be a list")
    outcomes = []
    for idx, rec in enumerate(doc["outcomes"], start=1):
        if not isinstance(rec, dict) or "A" not in rec or "B" not in rec:
            raise MeasurementFileError(f"outcome {idx}: need 'A' and 'B' matrices")
        a = _parse_matrix(rec["A"], dA, f"outcome {idx} side A")
        b = _parse_matrix(rec["B"], dB, f"outcome {idx} side B")
        outcomes.append((a, b))
    try:
        return SeparableMeasurement(dA, dB, tuple(outcomes))
    except MeasurementError as exc:
        raise MeasurementFileError(str(exc)) from None


def read_measurement(path) -> SeparableMeasurement:
    """Exact parse of a measurement file; no floating point anywhere.

    Checks per-entry syntax and the operator-level conditions (Hermitian,
    PSD, outcomes pairwise distinct up to positive scaling), but not that
    positive weights complete the outcomes to the identity."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deeply to decode.
        raise MeasurementFileError(f"invalid JSON: {exc}") from None
    return measurement_from_dict(doc)


def parse_measurement(path) -> SeparableMeasurement:
    """read_measurement, plus the completeness condition: the outcome list
    must admit strictly positive weights completing it to the identity."""
    m = read_measurement(path)
    try:
        validate_measurement(m)
    except MeasurementError as exc:
        raise MeasurementFileError(str(exc)) from None
    return m


def measurement_to_dict(m: SeparableMeasurement) -> dict:
    def matrix(op: HermitianOp):
        return [[[str(e.re), str(e.im)] for e in row] for row in op.entries]

    return {
        "dA": m.dA,
        "dB": m.dB,
        "outcomes": [{"A": matrix(a), "B": matrix(b)} for a, b in m.outcomes],
    }


def write_measurement(m: SeparableMeasurement, path) -> None:
    Path(path).write_text(json.dumps(measurement_to_dict(m), indent=1) + "\n")


def tree_to_dot(tree: Tree, solved: Optional[LOCCProtocol] = None) -> str:
    """GraphViz rendering, roots on the left and time flowing right."""

    def label(node: TreeNode) -> str:
        sym = "q" if node.side == "A" else "p"
        parts = []
        for r in sorted(node.terms):
            coeff = ""
            if solved is not None:
                table = solved.q if node.side == "A" else solved.p
                if r in table:
                    coeff = f"{table[r]}*"
            parts.append(f"{coeff}{sym}[{r.j},{r.k}]{node.side}{r.j}")
        text = " + ".join(parts)
        if node.leaf is not None:
            return f"{node.side} leaf j={node.leaf.j} k={node.leaf.k}\\n{text}"
        return f"{node.side}: {text}"

    lines = ["digraph protocol_tree {", "  rankdir=LR;", "  node [shape=box];"]
    counter = 0

    def walk(node: TreeNode, parent: Optional[str]) -> None:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        shape = "ellipse" if node.leaf is None else "box"
        lines.append(f'  {name} [shape={shape}, label="{label(node)}"];')
        if parent is not None:
            lines.append(f"  {parent} -> {name};")
        for c in node.children:
            walk(c, name)

    walk(tree.root, None)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stats_dict(stats) -> dict:
    return {
        "rounds_completed": stats.rounds_completed,
        "last_progress_round": stats.last_progress_round,
        "lp_calls": stats.lp_calls,
        "memo_hits": stats.memo_hits,
        "trees_total": stats.trees_total,
        "capped": stats.capped,
        "signature_dedup_hits": stats.signature_dedup_hits,
        "congruence_skips": stats.congruence_skips,
        "rounds": [
            {
                "round": r.round_index,
                "side": r.side,
                "new_families": [
                    [list(key) for key in fam] for fam in r.new_families
                ],
                "merged_subsets": [list(s) for s in r.merged_subsets],
                "trees_created": r.trees_created,
                "trees_total": r.trees_total,
                "lp_calls": r.lp_calls,
                "memo_hits": r.memo_hits,
            }
            for r in stats.rounds
        ],
    }


def _coeff_dict(table: dict[LeafRef, Fraction]) -> dict:
    return {f"{r.j},{r.k}": str(v) for r, v in sorted(table.items())}


def _check_writable(path) -> None:
    """Raise OSError unless `path` can be opened for writing.

    Opened for appending, so an existing file keeps its content; a file the
    check itself created is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.unlink(path)


def run(
    path,
    max_rounds: int = 8,
    exhaustive: bool = False,
    family_cap: int = 12,
    max_trees: int = 5000,
    dot_path=None,
    report_path=None,
    rank_tol: float = 1e-10,
    out=None,
) -> int:
    """Parse, synthesize, realize, verify; write artifacts; return exit code.

    The measurement's completeness weight LP runs once, inside synthesize.
    The output paths are checked before the search, so an unwritable one
    costs no search and prints nothing but its input error."""
    if out is None:
        out = sys.stdout
    started = time.monotonic()
    try:
        cfg = SearchConfig(
            max_rounds=max_rounds,
            family_size_cap=family_cap,
            max_trees=max_trees,
            exhaustive=exhaustive,
        )
        if not 0 <= rank_tol < math.inf:
            raise ValueError(f"rank_tol must be finite and nonnegative, got {rank_tol}")
        m = read_measurement(path)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=out)
        return 1
    for artifact_path in (dot_path, report_path):
        if not artifact_path:
            continue
        try:
            _check_writable(artifact_path)
        except OSError as exc:
            print(f"input error: cannot write {artifact_path}: {exc.strerror}", file=out)
            return 1
    try:
        result = synthesize(m, cfg)
    except MeasurementError as exc:
        print(f"input error: {exc}", file=out)
        return 1
    report: dict = {
        "input": str(path),
        "dA": m.dA,
        "dB": m.dB,
        "outcomes": m.n_outcomes,
        "max_rounds": max_rounds,
    }
    artifacts = []
    if isinstance(result, LOCCProtocol):
        try:
            kp = realize(result, rank_tol=rank_tol)
            instrument = verify_instrument(kp, m)
        except OverflowError as exc:
            # Entries that fit a float can still solve to values that do not.
            print(f"input error: protocol values beyond float range ({exc})", file=out)
            return 1
        report["verdict"] = "LOCC_PROTOCOL"
        report["stats"] = _stats_dict(result.stats)
        report["protocol"] = {
            "leaves": len(result.weights),
            "tree": tree_to_text(result.tree),
            "q": _coeff_dict(result.q),
            "p": _coeff_dict(result.p),
            "weights": _coeff_dict(result.weights),
        }
        report["instrument"] = {
            "closure_residual": instrument.closure_residual,
            "leaf_residual": instrument.leaf_residual,
            "completeness_residual": instrument.completeness_residual,
            "completion_residual": instrument.completion_residual,
            "ok": instrument.ok,
        }
        exit_code = 0 if instrument.ok else 4
        print(
            f"protocol found: {len(result.weights)} leaves, "
            f"{result.stats.rounds_completed} rounds, "
            f"instrument ok={instrument.ok}",
            file=out,
        )
        if dot_path:
            artifacts.append((dot_path, tree_to_dot(result.tree, result)))
    else:
        report["verdict"] = result.verdict
        report["stats"] = _stats_dict(result.stats)
        exit_code = 3 if result.verdict == INCONCLUSIVE_CAPPED else 2
        print(f"no protocol: {result.verdict}", file=out)
        if dot_path:
            print("note: no protocol tree to render", file=out)
    report["timing"] = {"wall_time_s": time.monotonic() - started}
    if report_path:
        artifacts.append((report_path, json.dumps(report, indent=1) + "\n"))
    for artifact_path, text in artifacts:
        try:
            Path(artifact_path).write_text(text)
        except OSError as exc:
            print(f"input error: cannot write {artifact_path}: {exc.strerror}", file=out)
            return 1
    return exit_code


class _FlagError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose errors (a bad flag value, an unknown flag,
    a missing input) are raised, so that `main` can report them as input
    errors with exit 1: argparse's own exit code 2 means "no LOCC
    protocol" here."""

    def error(self, message):
        raise _FlagError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="loccsynth",
        description=(
            "Decide whether a separable quantum measurement admits an LOCC "
            "protocol within a bounded number of rounds, and build one "
            "when it does."
        ),
    )
    parser.add_argument("input", help="measurement file (JSON, exact fractions)")
    parser.add_argument(
        "--max-rounds",
        "-L",
        type=int,
        default=8,
        help=(
            "round budget (default 8); a search at L finds only protocols in "
            "which Alice measures last, Bob-last protocols need L + 1"
        ),
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="never truncate family enumeration (may be very slow)",
    )
    parser.add_argument(
        "--family-cap", type=int, default=12, help="family size cap (default 12)"
    )
    parser.add_argument(
        "--max-trees", type=int, default=5000, help="toolbox size cap (default 5000)"
    )
    parser.add_argument("--dot", metavar="PATH", help="write the protocol tree as DOT")
    parser.add_argument("--report", metavar="PATH", help="write a JSON run report")
    parser.add_argument(
        "--rank-tol",
        type=float,
        default=1e-10,
        help="relative eigenvalue cutoff for support decisions (default 1e-10)",
    )
    try:
        args = parser.parse_args(argv)
    except _FlagError as exc:
        print(f"input error: {exc}")
        return 1
    return run(
        args.input,
        max_rounds=args.max_rounds,
        exhaustive=args.exhaustive,
        family_cap=args.family_cap,
        max_trees=args.max_trees,
        dot_path=args.dot,
        report_path=args.report,
        rank_tol=args.rank_tol,
    )


if __name__ == "__main__":
    sys.exit(main())

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
flag, a protocol whose values no float can hold or whose float Kraus
realization fails its PSD or Hermitian check, or an output path that
cannot be opened for writing or that is the same file as the input or the
other output, both checked before the search), 2 no LOCC protocol (either
certificate), 3 inconclusive because a search cap truncated enumeration, 4
protocol found but the floating-point instrument check failed (the report
is still written).

Each output path (--dot, --report) is opened once, before the search, without
truncating, and written in place when the run ends; a regular file is then
cut to the new length.  "The same file" means the same device and inode, so
a hard link of the input counts.  A file the run created is kept only once
its artifact is written there (a run with no protocol writes no DOT file); a
run killed during the search leaves it behind, empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import stat
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
_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_fraction(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise MeasurementFileError(f"{where}: expected a fraction string, got {text!r}")
    try:
        match = _FRACTION.fullmatch(text)
        if not match:
            raise ValueError("expected an integer or p/q")
        num, den = match.groups()
        value = Fraction(int(num), int(den) if den else 1)
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
        rows.append(tuple(out))
    try:
        return HermitianOp(dim, tuple(rows))
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
    # Shallow: json writes the tuples that asdict would have deep-copied.
    def shallow(obj) -> dict:
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}

    report = shallow(stats)
    report["rounds"] = [
        {"round": r.pop("round_index"), **r} for r in map(shallow, report.pop("rounds"))
    ]
    return report


def _coeff_dict(table: dict[LeafRef, Fraction]) -> dict:
    return {f"{r.j},{r.k}": str(v) for r, v in sorted(table.items())}


def _open_output(path) -> tuple[int, bool]:
    """A write descriptor for `path` and whether this call created the file.

    Nothing is truncated, so an existing file keeps its content until the
    run writes its artifact over it."""
    try:
        return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False


def _write_output(fd: int, mode: int, text: str) -> None:
    """Write `text` from the start of the open output `fd`; cut a regular
    file to its length (a device such as /dev/null cannot be cut)."""
    data = text.encode()
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    if stat.S_ISREG(mode):
        os.ftruncate(fd, len(data))


# The round budget when none is given; the caps default to SearchConfig's.
DEFAULT_MAX_ROUNDS = 8


def run(
    path,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    exhaustive: bool = False,
    family_cap: int = SearchConfig.family_size_cap,
    max_trees: int = SearchConfig.max_trees,
    dot_path=None,
    report_path=None,
    out=None,
) -> int:
    """Parse, synthesize, realize, verify; write artifacts; return exit code.

    The measurement's completeness weight LP runs once, inside synthesize.
    Each output path is opened once, before the search, and written in
    place at the end, so an existing file keeps its content until then.
    One that cannot be opened, or that is the same file (device and inode,
    so hard links too) as the input or the other output, costs no search
    and prints only its input error.  A file the run created is kept only
    once its artifact is written there; a run killed during the search
    leaves it behind, empty."""
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
        m = read_measurement(path)
        if dot_path or report_path:
            st = os.stat(path)
            named = {(st.st_dev, st.st_ino): "the input"}
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=out)
        return 1
    outputs = {}  # flag -> (path, descriptor, st_mode, created)
    written = ()  # the flags whose artifact was written
    try:
        # No output may be the input or the other output.  The descriptors
        # stay open, so no inode named here is freed for a later path to reuse.
        for flag, artifact_path in (("--dot", dot_path), ("--report", report_path)):
            if not artifact_path:
                continue
            try:
                fd, created = _open_output(artifact_path)
            except OSError as exc:
                print(
                    f"input error: cannot write {artifact_path}: {exc.strerror}",
                    file=out,
                )
                return 1
            st = os.fstat(fd)
            outputs[flag] = (artifact_path, fd, st.st_mode, created)
            key = (st.st_dev, st.st_ino)
            if key in named:
                clash = f"{flag} {artifact_path} names the same file as {named[key]}"
                print(f"input error: {clash}", file=out)
                return 1
            named[key] = flag
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
                kp = realize(result)
                instrument = verify_instrument(kp, m)
            except OverflowError as exc:
                # Entries that fit a float can still solve to values that do not.
                print(
                    f"input error: protocol values beyond float range ({exc})",
                    file=out,
                )
                return 1
            except ValueError as exc:
                # Rounding can leave a float matrix outside the stage's tolerances.
                print(f"input error: Kraus realization failed ({exc})", file=out)
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
                artifacts.append(("--dot", tree_to_dot(result.tree, result)))
        else:
            report["verdict"] = result.verdict
            report["stats"] = _stats_dict(result.stats)
            exit_code = 3 if result.verdict == INCONCLUSIVE_CAPPED else 2
            print(f"no protocol: {result.verdict}", file=out)
            if dot_path:
                print("note: no protocol tree to render", file=out)
        report["timing"] = {"wall_time_s": time.monotonic() - started}
        if report_path:
            artifacts.append(("--report", json.dumps(report, indent=1) + "\n"))
        for flag, text in artifacts:
            artifact_path, fd, mode, _ = outputs[flag]
            try:
                _write_output(fd, mode, text)
            except OSError as exc:
                print(
                    f"input error: cannot write {artifact_path}: {exc.strerror}",
                    file=out,
                )
                return 1
        written = [flag for flag, _ in artifacts]
        return exit_code
    finally:
        for flag, (artifact_path, fd, _, created) in outputs.items():
            os.close(fd)
            if created and flag not in written:
                os.unlink(artifact_path)


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
        default=DEFAULT_MAX_ROUNDS,
        help=(
            "round budget (default %(default)s); a search at L finds only "
            "protocols in which Alice measures last, Bob-last protocols need L + 1"
        ),
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="never truncate family enumeration (may be very slow)",
    )
    parser.add_argument(
        "--family-cap",
        type=int,
        default=SearchConfig.family_size_cap,
        help="family size cap (default %(default)s)",
    )
    parser.add_argument(
        "--max-trees",
        type=int,
        default=SearchConfig.max_trees,
        help="toolbox size cap (default %(default)s)",
    )
    parser.add_argument("--dot", metavar="PATH", help="write the protocol tree as DOT")
    parser.add_argument("--report", metavar="PATH", help="write a JSON run report")
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
    )


if __name__ == "__main__":
    sys.exit(main())

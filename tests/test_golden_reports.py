"""Every bundled measurement file at -L 8 gives the recorded run.

`golden/reports_L8.json` holds, per file, the exit code, the stdout text,
the DOT text and the report of `frontend_cli.run`.  The report drops the
fields that vary between equal runs or machines: `timing`, `input` (a
path) and the float residuals under `instrument` (`instrument.ok` stays).
A change that moves a verdict, a counter, a tree or a coefficient shows up
here as a diff.

Regenerate, only when a change of output is intended and explained:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import io
import json
import sys
from pathlib import Path

from loccsynth import frontend_cli

DATA = Path(__file__).resolve().parent.parent / "src" / "loccsynth" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports_L8.json"
MAX_ROUNDS = 8


def _record(path: Path, workdir: Path) -> dict:
    out = io.StringIO()
    report_path = workdir / "report.json"
    dot_path = workdir / "tree.dot"
    for stale in (report_path, dot_path):
        stale.unlink(missing_ok=True)
    code = frontend_cli.run(
        path,
        max_rounds=MAX_ROUNDS,
        report_path=report_path,
        dot_path=dot_path,
        out=out,
    )
    report = json.loads(report_path.read_text())
    for volatile in ("timing", "input"):
        report.pop(volatile)
    if "instrument" in report:
        report["instrument"] = {"ok": report["instrument"]["ok"]}
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "dot": dot_path.read_text() if dot_path.exists() else None,
        "report": report,
    }


def golden_records(workdir: Path) -> dict:
    return {path.name: _record(path, workdir) for path in sorted(DATA.glob("*.json"))}


def test_bundled_reports_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = golden_records(tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


RESIDUALS = (
    "closure_residual",
    "leaf_residual",
    "completeness_residual",
    "completion_residual",
)
# Product bases and the do-nothing protocol realize without rounding.
EXACT = ("product_basis_2x2.json", "product_basis_3x3.json", "single_identity.json")


def test_bundled_instruments_verify_to_rounding(tmp_path):
    # The golden reports drop the residuals; bound them here instead.
    checked = 0
    for max_rounds in (4, 8):
        for path in sorted(DATA.glob("*.json")):
            report_path = tmp_path / "report.json"
            report_path.unlink(missing_ok=True)
            frontend_cli.run(
                path, max_rounds=max_rounds, report_path=report_path, out=io.StringIO()
            )
            instrument = json.loads(report_path.read_text()).get("instrument")
            if instrument is None:
                continue
            checked += 1
            residuals = [instrument[name] for name in RESIDUALS]
            assert instrument["ok"], (path.name, max_rounds)
            assert max(residuals) < 1e-12, (path.name, max_rounds, residuals)
            if path.name in EXACT:
                assert residuals == [0.0] * 4, (path.name, max_rounds, residuals)
    assert checked == 12


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = golden_records(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)

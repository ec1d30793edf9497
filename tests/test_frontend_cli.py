"""File formats, exit codes, reports, and DOT export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loccsynth import frontend_cli, synthesis_engine
from loccsynth.fixtures import BUILTIN
from loccsynth.frontend_cli import (
    MeasurementFileError,
    main,
    measurement_from_dict,
    measurement_to_dict,
    parse_measurement,
    run,
    tree_to_dot,
    write_measurement,
)
from loccsynth.kraus_realization import InstrumentReport
from loccsynth.synthesis_engine import LOCCProtocol, SearchConfig, synthesize

DATA = Path(__file__).resolve().parent.parent / "src" / "loccsynth" / "data"


def entry(re, im="0"):
    return [re, im]


def tiny_doc():
    return {
        "dA": 2,
        "dB": 2,
        "outcomes": [
            {
                "A": [[entry("1"), entry("0")], [entry("0"), entry("0")]],
                "B": [[entry("1"), entry("0")], [entry("0"), entry("0")]],
            },
            {
                "A": [[entry("1"), entry("0")], [entry("0"), entry("0")]],
                "B": [[entry("0"), entry("0")], [entry("0"), entry("1")]],
            },
            {
                "A": [[entry("0"), entry("0")], [entry("0"), entry("1")]],
                "B": [[entry("1"), entry("0")], [entry("0"), entry("1")]],
            },
        ],
    }


# --- parsing -----------------------------------------------------------------


def test_parse_bundled_bennett9():
    m = parse_measurement(DATA / "bennett9.json")
    assert m.n_outcomes == 9
    assert m.dA == 3 and m.dB == 3


def test_parse_rejects_zero_denominator(tmp_path):
    doc = tiny_doc()
    doc["outcomes"][0]["A"][0][0] = entry("1/0")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeasurementFileError, match=r"outcome 1 side A entry \(0,0\)"):
        parse_measurement(path)


def test_parse_rejects_non_hermitian(tmp_path):
    doc = tiny_doc()
    doc["outcomes"][0]["A"][0][1] = entry("1")
    doc["outcomes"][0]["A"][1][0] = entry("2")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeasurementFileError, match="Hermitian"):
        parse_measurement(path)


def test_parse_rejects_non_psd(tmp_path):
    doc = tiny_doc()
    doc["outcomes"][0]["B"] = [
        [entry("1"), entry("0")],
        [entry("0"), entry("-1/4")],
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeasurementFileError, match="is_psd"):
        parse_measurement(path)


def test_parse_rejects_incomplete_family(tmp_path):
    doc = tiny_doc()
    doc["outcomes"] = doc["outcomes"][:2]  # no longer sums to the identity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeasurementFileError, match="strictly positive weights"):
        parse_measurement(path)


def test_parse_rejects_boolean_dimensions(tmp_path):
    doc = tiny_doc()
    doc["dA"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MeasurementFileError, match="dA and dB must be positive integers"):
        parse_measurement(path)


def test_round_trip_is_identity(tmp_path):
    m = BUILTIN["bennett9"]()
    path = tmp_path / "b9.json"
    write_measurement(m, path)
    again = parse_measurement(path)
    assert again == m
    assert measurement_from_dict(measurement_to_dict(m)) == m


# --- run ----------------------------------------------------------------------


def test_run_exit_codes(tmp_path, capsys):
    assert run(DATA / "bennett9.json", max_rounds=10) == 2
    assert run(DATA / "product_basis_2x2.json", max_rounds=4) == 0
    assert run(tmp_path / "missing.json") == 1
    assert run(DATA / "five_rank_one.json", max_rounds=6) == 2
    capsys.readouterr()


def test_run_writes_dot_and_report(tmp_path, capsys):
    dot = tmp_path / "tree.dot"
    rep = tmp_path / "report.json"
    code = run(
        DATA / "product_basis_2x2.json", max_rounds=4, dot_path=dot, report_path=rep
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "rankdir=LR" in text
    doc = json.loads(rep.read_text())
    assert doc["verdict"] == "LOCC_PROTOCOL"
    assert doc["instrument"]["ok"] is True
    assert doc["protocol"]["leaves"] == 4
    capsys.readouterr()


def test_reports_are_stable_apart_from_timing(tmp_path, capsys):
    reps = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        run(DATA / "example5.json", max_rounds=8, report_path=path)
        doc = json.loads(path.read_text())
        doc.pop("timing")
        reps.append(json.dumps(doc, sort_keys=False))
    assert reps[0] == reps[1]
    capsys.readouterr()


def test_run_validates_the_measurement_once(monkeypatch, capsys):
    calls = []
    original = synthesis_engine.validate_measurement

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(synthesis_engine, "validate_measurement", counting)
    monkeypatch.setattr(frontend_cli, "validate_measurement", counting)
    assert run(DATA / "product_basis_2x2.json", max_rounds=4) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _incomplete_doc():
    doc = tiny_doc()
    doc["outcomes"] = doc["outcomes"][:2]
    return doc


def _exponent_doc():
    # Fraction("1e100000") would take seconds and overflow float conversion.
    doc = tiny_doc()
    doc["outcomes"][0]["A"][0][0] = entry("1e100000")
    return doc


def _huge_entry_doc():
    # A valid measurement whose entry no float can hold: the Kraus
    # realization would end in an OverflowError.
    big = "1" + "0" * 400
    return {"dA": 1, "dB": 1, "outcomes": [{"A": [[entry(big)]], "B": [[entry("1")]]}]}


def _huge_weight_doc():
    # Every entry fits a float, but the completing weight 10^400 does not.
    tiny = "1/1" + "0" * 200
    return {"dA": 1, "dB": 1, "outcomes": [{"A": [[entry(tiny)]], "B": [[entry(tiny)]]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_incomplete_doc(), "strictly positive weights"),
        (7, "the top level must be a JSON object"),
        ({**tiny_doc(), "outcomes": 5}, "'outcomes' must be a list"),
        (_exponent_doc(), "bad fraction '1e100000'"),
        (_huge_entry_doc(), "(beyond float range)"),
        (_huge_weight_doc(), "protocol values beyond float range"),
    ],
    ids=[
        "incomplete",
        "top_level_not_object",
        "outcomes_not_list",
        "exponent_entry",
        "huge_entry",
        "huge_weight",
    ],
)
def test_run_rejects_incomplete_family(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rep = tmp_path / "report.json"
    assert run(path, report_path=rep) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error: ")
    assert message in out
    assert not rep.exists()


def test_run_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run(path) == 1
    assert capsys.readouterr().out.startswith("input error: invalid JSON: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-L", "0"], "max_rounds must be at least 1"),
        (["--family-cap", "0"], "family_size_cap must be at least 1"),
        (["--max-trees", "0"], "max_trees must be at least 1"),
        (["--rank-tol", "nan"], "rank_tol must be finite and nonnegative"),
        (["--rank-tol", "-1"], "rank_tol must be finite and nonnegative"),
    ],
)
def test_bad_flags_are_input_errors(flags, message, tmp_path, capsys):
    rep = tmp_path / "report.json"
    code = main([str(DATA / "product_basis_2x2.json"), "--report", str(rep), *flags])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("input error: ") and message in out
    assert not rep.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([str(DATA / "product_basis_2x2.json"), "-L", "x"], "invalid int value: 'x'"),
        ([str(DATA / "product_basis_2x2.json"), "--bogus"], "unrecognized arguments: --bogus"),
        (["-L", "4"], "the following arguments are required: input"),
    ],
    ids=["bad-value", "unknown-flag", "missing-input"],
)
def test_unparsable_flags_exit_1(argv, message, capsys):
    # argparse would exit 2, the code for "no LOCC protocol".
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("input error: ") and message in captured.out
    assert len(captured.out.splitlines()) == 1
    assert captured.err == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: loccsynth")


@pytest.mark.parametrize("flag", ["--report", "--dot"])
def test_unwritable_artifact_is_an_input_error(flag, monkeypatch, tmp_path, capsys):
    # The output path is checked before the search, which must not start.
    def no_search(m, cfg):
        raise AssertionError("synthesize ran")

    monkeypatch.setattr(frontend_cli, "synthesize", no_search)
    path = tmp_path / "missing_dir" / "out"
    argv = [str(DATA / "product_basis_3x3.json"), "-L", "10", "--exhaustive"]
    assert main([*argv, flag, str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"input error: cannot write {path}: ")
    assert len(out.splitlines()) == 1
    assert not path.exists()


def test_failed_run_keeps_an_existing_report(tmp_path, capsys):
    # Checking the report path up front must not truncate the old report.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_huge_weight_doc()))
    rep = tmp_path / "report.json"
    rep.write_text("old report\n")
    assert run(path, report_path=rep) == 1
    assert "protocol values beyond float range" in capsys.readouterr().out
    assert rep.read_text() == "old report\n"


def test_failed_instrument_check_exits_4(monkeypatch, tmp_path, capsys):
    def failing(kp, m):
        return InstrumentReport(1.0, 0.0, 0.0, 0.0, 1e-9)

    monkeypatch.setattr(frontend_cli, "verify_instrument", failing)
    rep = tmp_path / "report.json"
    assert run(DATA / "product_basis_2x2.json", max_rounds=4, report_path=rep) == 4
    assert json.loads(rep.read_text())["instrument"]["ok"] is False
    assert "instrument ok=False" in capsys.readouterr().out


def test_inconclusive_exit_code(tmp_path, capsys):
    code = run(DATA / "bennett9.json", max_rounds=10, max_trees=10)
    assert code == 3
    capsys.readouterr()


def test_main_cli(tmp_path, capsys):
    assert main([str(DATA / "product_basis_2x2.json"), "-L", "4"]) == 0
    out = capsys.readouterr().out
    assert "protocol found" in out
    assert main([str(DATA / "bennett9.json"), "-L", "10"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_without_warnings():
    root = DATA.parents[2]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    args = [str(DATA / "product_basis_2x2.json"), "-L", "4"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "loccsynth", *args],
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("protocol found")


def test_dot_labels_show_symbolic_sums():
    m = BUILTIN["product_basis_2x2"]()
    protocol = synthesize(m, SearchConfig(max_rounds=4))
    assert isinstance(protocol, LOCCProtocol)
    dot = tree_to_dot(protocol.tree, protocol)
    assert "leaf j=" in dot
    assert "+" in dot

"""File formats, exit codes, reports, and DOT export."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
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


# The entry regex and Fraction(text) parse, before entries were built from
# their integer groups: the reference `_parse_fraction` must agree with.
_TEXT_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_fraction_from_text(text, where):
    try:
        if not _TEXT_FRACTION.fullmatch(text):
            raise ValueError("expected an integer or p/q")
        value = Fraction(text)
        float(value)
    except OverflowError:
        raise MeasurementFileError(
            f"{where}: bad fraction {text!r} (beyond float range)"
        ) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise MeasurementFileError(f"{where}: bad fraction {text!r} ({exc})") from None
    return value


ENTRIES = [
    "0", "-0", "+7", "007/010", "-48/125",
    "1/0", "1/-2", "1.5", "1e5", " 1", "1_000", "\u0663",
    "1" + "0" * 400,  # beyond float range
    "1/" + "0" * 400 + "1",  # 1/1: fits
    "1/" + "1" * 5000,  # past int's default 4300-digit string limit
]


def _entry_id(text):
    return ascii(text[:12]) + (f"..{len(text)}" if len(text) > 12 else "")


@pytest.mark.parametrize("text", ENTRIES, ids=map(_entry_id, ENTRIES))
def test_entries_parse_as_the_fraction_of_their_text(text):
    def outcome(parse):
        try:
            value = parse(text, "outcome 1 side A entry (0,0) re")
        except MeasurementFileError as exc:
            return "error", str(exc)
        return "value", type(value), value

    assert outcome(frontend_cli._parse_fraction) == outcome(_parse_fraction_from_text)


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


def _one_row_incomplete_doc():
    # One outcome diag(1, 0) (x) (1): the weight LP's row for the second
    # diagonal entry reads 0 = 1.
    a = [[entry("1"), entry("0")], [entry("0"), entry("0")]]
    return {"dA": 2, "dB": 1, "outcomes": [{"A": a, "B": [[entry("1")]]}]}


def _huge_weight_doc():
    # Every entry fits a float, but the completing weight 10^400 does not.
    tiny = "1/1" + "0" * 200
    return {"dA": 1, "dB": 1, "outcomes": [{"A": [[entry(tiny)]], "B": [[entry(tiny)]]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_incomplete_doc(), "strictly positive weights"),
        (_one_row_incomplete_doc(), "strictly positive weights"),
        (7, "the top level must be a JSON object"),
        ({**tiny_doc(), "outcomes": 5}, "'outcomes' must be a list"),
        (_exponent_doc(), "bad fraction '1e100000'"),
        (_huge_entry_doc(), "(beyond float range)"),
        (_huge_weight_doc(), "protocol values beyond float range"),
    ],
    ids=[
        "incomplete",
        "one_row_incomplete",
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
        # The Kraus stage's supports follow its one floor; no flag moves them.
        (["--rank-tol", "1e-10"], "unrecognized arguments: --rank-tol 1e-10"),
    ],
)
def test_bad_flags_are_input_errors(flags, message, tmp_path, capsys):
    rep = tmp_path / "report.json"
    code = main([str(DATA / "product_basis_2x2.json"), "--report", str(rep), *flags])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("input error: ") and message in out
    assert len(out.splitlines()) == 1
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


def _no_search(m, cfg):
    raise AssertionError("synthesize ran")


@pytest.mark.parametrize("flag", ["--report", "--dot"])
def test_unwritable_artifact_is_an_input_error(flag, monkeypatch, tmp_path, capsys):
    # The output path is checked before the search, which must not start.
    monkeypatch.setattr(frontend_cli, "synthesize", _no_search)
    path = tmp_path / "missing_dir" / "out"
    argv = [str(DATA / "product_basis_3x3.json"), "-L", "10", "--exhaustive"]
    assert main([*argv, flag, str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"input error: cannot write {path}: ")
    assert len(out.splitlines()) == 1
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--report", "--dot"])
def test_an_output_naming_the_input_is_an_input_error(flag, monkeypatch, tmp_path, capsys):
    # Paths are compared resolved: a relative output names the absolute
    # input.  No search runs, and the input is left byte for byte.
    monkeypatch.setattr(frontend_cli, "synthesize", _no_search)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "m.json"
    path.write_bytes((DATA / "product_basis_2x2.json").read_bytes())
    before = path.read_bytes()
    assert main([str(path), "-L", "4", flag, "m.json"]) == 1
    out = capsys.readouterr().out
    assert out == f"input error: {flag} m.json names the same file as the input\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("existing", [None, b"old tree\n"])
def test_dot_and_report_naming_one_path_is_an_input_error(
    existing, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(frontend_cli, "synthesize", _no_search)
    path = tmp_path / "out"
    if existing is not None:
        path.write_bytes(existing)
    argv = [str(DATA / "product_basis_2x2.json"), "-L", "4"]
    assert main([*argv, "--dot", str(path), "--report", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == f"input error: --report {path} names the same file as --dot\n"
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


def test_failed_run_keeps_an_existing_report(tmp_path, capsys):
    # Checking the report path up front must not truncate the old report.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_huge_weight_doc()))
    rep = tmp_path / "report.json"
    rep.write_text("old report\n")
    assert run(path, report_path=rep) == 1
    assert "protocol values beyond float range" in capsys.readouterr().out
    assert rep.read_text() == "old report\n"


def _masked_report(path):
    # A report's bytes with its one varying value, the wall time, masked.
    return re.sub(rb'"wall_time_s": [^\n]*', b'"wall_time_s": T', path.read_bytes())


def test_a_report_over_a_longer_file_holds_only_the_new_bytes(tmp_path, capsys):
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    assert run(DATA / "example4.json", max_rounds=8, report_path=fresh) == 0
    old.write_bytes(b"x" * (3 * fresh.stat().st_size) + b"\n")
    assert run(DATA / "example4.json", max_rounds=8, report_path=old) == 0
    assert _masked_report(old) == _masked_report(fresh)
    json.loads(old.read_text())
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("name", ["product_basis_2x2", "bennett9"])
def test_a_report_to_the_null_device_changes_nothing(name, capsys):
    # A device cannot be truncated; the run must not try.
    plain = run(DATA / f"{name}.json", max_rounds=4)
    printed = capsys.readouterr().out
    assert run(DATA / f"{name}.json", max_rounds=4, report_path=os.devnull) == plain
    assert capsys.readouterr().out == printed


def test_a_report_naming_a_hard_link_of_the_input_is_an_input_error(
    monkeypatch, tmp_path, capsys
):
    # The same file means the same device and inode, whatever its name.
    monkeypatch.setattr(frontend_cli, "synthesize", _no_search)
    path, link = tmp_path / "m.json", tmp_path / "link.json"
    path.write_bytes((DATA / "product_basis_2x2.json").read_bytes())
    before = path.read_bytes()
    try:
        os.link(path, link)
    except OSError as exc:
        pytest.skip(f"no hard links here: {exc.strerror}")
    assert main([str(path), "-L", "4", "--report", str(link)]) == 1
    out = capsys.readouterr().out
    assert out == f"input error: --report {link} names the same file as the input\n"
    assert path.read_bytes() == before


def test_a_successful_run_creates_its_report_once(monkeypatch, tmp_path, capsys):
    # A new report path is opened once and never removed and made again.
    def no_unlink(path, *args, **kwargs):
        raise AssertionError(f"unlink({path!r})")

    rep = tmp_path / "report.json"
    monkeypatch.setattr(frontend_cli.os, "unlink", no_unlink)
    assert run(DATA / "product_basis_2x2.json", max_rounds=4, report_path=rep) == 0
    assert json.loads(rep.read_text())["verdict"] == "LOCC_PROTOCOL"
    capsys.readouterr()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_removes_the_files_the_run_created(tmp_path, capsys):
    # /dev/full refuses every write: the DOT file, written first, goes too.
    dot = tmp_path / "tree.dot"
    code = run(
        DATA / "product_basis_2x2.json", max_rounds=4, dot_path=dot, report_path="/dev/full"
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.endswith("input error: cannot write /dev/full: No space left on device\n")
    assert not dot.exists()


def _threshold_doc(s, delta, rotate=False):
    """dA = dB = 2 outcomes (diag(s,0), Z0), (diag(0,delta), Z0),
    (diag(s,delta), Z1), (diag(1-s,1-delta), X+), (diag(1-s,1-delta), X-).

    With `rotate`, every A operator is conjugated by the rotation
    R = [[3/5, -4/5], [4/5, 3/5]]."""
    c, t = (Fraction(3, 5), Fraction(4, 5)) if rotate else (Fraction(1), Fraction(0))

    def a(x, y):
        # R diag(x, y) R^T for R = [[c, -t], [t, c]].
        off = (x - y) * c * t
        return [
            [entry(str(x * c * c + y * t * t)), entry(str(off))],
            [entry(str(off)), entry(str(x * t * t + y * c * c))],
        ]

    half = entry("1/2")
    z0 = [[entry("1"), entry("0")], [entry("0"), entry("0")]]
    z1 = [[entry("0"), entry("0")], [entry("0"), entry("1")]]
    xp = [[half, half], [half, half]]
    xm = [[half, entry("-1/2")], [entry("-1/2"), half]]
    pairs = [
        (a(s, 0), z0),
        (a(0, delta), z0),
        (a(s, delta), z1),
        (a(1 - s, 1 - delta), xp),
        (a(1 - s, 1 - delta), xm),
    ]
    return {"dA": 2, "dB": 2, "outcomes": [{"A": x, "B": y} for x, y in pairs]}


# Eigenvalues near the floor that the Kraus realization zeroes or keeps.
# The last three are rotated.  A stage that forms Minv . value . Minv
# rejects C (an eigenvalue of -6.5e-8) and two_sevenths, and fails half's
# instrument check.
NEAR_FLOOR = {
    "A": _threshold_doc(Fraction(1, 100), Fraction(1, 10**11)),
    "B": _threshold_doc(Fraction(1), Fraction(1, 10**8)),
    "C": _threshold_doc(Fraction(1, 3), Fraction(101, 10**12), rotate=True),
    "half": _threshold_doc(Fraction(1, 2), Fraction(101, 10**12), rotate=True),
    "two_sevenths": _threshold_doc(Fraction(2, 7), Fraction(1, 10**7), rotate=True),
}


@pytest.mark.parametrize("doc", list(NEAR_FLOOR.values()), ids=list(NEAR_FLOOR))
def test_near_floor_supports_verify(doc, tmp_path, capsys):
    # An eigenvalue near the floor, which realize zeroes or keeps: the
    # instrument verifies against the supports realize chose.
    path, rep = tmp_path / "m.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--report", str(rep)]) == 0
    instrument = json.loads(rep.read_text())["instrument"]
    assert instrument.pop("ok") is True
    assert max(instrument.values()) < 1e-9, instrument
    assert "instrument ok=True" in capsys.readouterr().out


def test_kraus_realization_failure_is_an_input_error(monkeypatch, tmp_path, capsys):
    # A ValueError from the float stage is reported instead of a traceback.
    def failing(protocol):
        raise ValueError("rounding outside tolerance")

    monkeypatch.setattr(frontend_cli, "realize", failing)
    rep = tmp_path / "report.json"
    assert run(DATA / "product_basis_2x2.json", max_rounds=4, report_path=rep) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error: Kraus realization failed (")
    assert len(out.splitlines()) == 1
    assert not rep.exists()


def test_failed_instrument_check_exits_4(monkeypatch, tmp_path, capsys):
    def failing(kp, m):
        return InstrumentReport(1.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(frontend_cli, "verify_instrument", failing)
    rep = tmp_path / "report.json"
    assert run(DATA / "product_basis_2x2.json", max_rounds=4, report_path=rep) == 4
    assert json.loads(rep.read_text())["instrument"]["ok"] is False
    assert "instrument ok=False" in capsys.readouterr().out


def test_inconclusive_exit_code(tmp_path, capsys):
    code = run(DATA / "bennett9.json", max_rounds=10, max_trees=10)
    assert code == 3
    capsys.readouterr()


def test_family_size_cap_exit_code(capsys):
    # Every family of two or more trees exceeds a cap of 1.
    path = DATA / "product_basis_2x2.json"
    out = synthesize(BUILTIN["product_basis_2x2"](), SearchConfig(max_rounds=8, family_size_cap=1))
    assert out.verdict == synthesis_engine.INCONCLUSIVE_CAPPED
    assert out.stats.capped
    assert main([str(path), "-L", "8", "--family-cap", "1"]) == 3
    assert "INCONCLUSIVE_CAPPED" in capsys.readouterr().out


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

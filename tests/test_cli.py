import hashlib
import json
import sys
import warnings

import pytest

from superhs import numerics
from superhs.cli import _parse_suite, _sha256_hex, main
from superhs.reporting import VerificationReport
from superhs.structures import SUITE_NAMES


def write_config(path, **overrides):
    config = {
        "n_modes": 64,
        "dt": 2e-3,
        "t_end": 0.1,
        "n_grassmann": 2,
        "sample_stride": 10,
        "initial": {
            "u": [{"level": [], "cos": {"1": 1.0}}],
            "xi": [
                {"level": [1], "cos": {"1": 0.1}},
                {"level": [2], "sin": {"1": 0.1}},
            ],
        },
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def _strip_nondeterministic(text):
    payload = json.loads(text)
    payload["metadata"].pop("timestamp", None)
    for entry in payload["entries"]:
        entry.pop("elapsed", None)
    return payload


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "susy", "--out", str(out)]) == 0
    report = VerificationReport.from_json(out.read_text())
    assert [e.check_id for e in report.entries] == ["susy"]
    assert report.all_passed()
    captured = capsys.readouterr()
    assert "PASS" in captured.out


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_unknown_name_beside_all_exits_2(capsys):
    assert main(["verify", "--suite", "all,bogus"]) == 2
    assert "unknown suite name(s) bogus;" in capsys.readouterr().err


def test_verify_empty_suite_exits_2():
    assert main(["verify", "--suite", ""]) == 2


@pytest.mark.parametrize(
    "suite, expected",
    [
        (["bracket,bracket"], ["bracket"]),
        (["jacobi,bracket", "--suite", "jacobi"], ["jacobi", "bracket"]),
        (["all,jacobi"], list(SUITE_NAMES)),
        (["jacobi,all"], ["jacobi", *(n for n in SUITE_NAMES if n != "jacobi")]),
    ],
)
def test_verify_runs_each_requested_check_once_in_order(tmp_path, suite, expected):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", *suite, "--out", str(out)]) == 0
    report = VerificationReport.from_json(out.read_text())
    assert [e.check_id for e in report.entries] == expected


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--suite", "bracket", "--out", str(out)]) == 2
    assert f"error: cannot write report {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_verify_all_runs_ten_checks(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
    report = VerificationReport.from_json(out.read_text())
    assert len(report.entries) == 10
    assert {e.check_id for e in report.entries} == {
        "bracket", "geodesic", "biham", "lagrangian", "susy",
        "superspace", "lax", "recursion", "conservation", "jacobi",
    }
    assert all(e.residual == "" for e in report.entries)


def test_verify_reports_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "geodesic,biham", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "geodesic,biham", "--out", str(out2)]) == 0
    assert _strip_nondeterministic(out1.read_text()) == _strip_nondeterministic(out2.read_text())


@pytest.mark.parametrize("suite", [["all"], ["bracket"], ["all,jacobi"]])
def test_config_hash_is_the_sha256_of_the_check_names(monkeypatch, suite):
    text = ",".join(_parse_suite(suite))
    expected = hashlib.sha256(text.encode()).hexdigest()
    assert _sha256_hex(text) == expected
    if suite == ["all"]:
        assert expected[:16] == "7ef157867e43ba71"
    # a build without the builtin digest module falls back to hashlib
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    with pytest.raises(ImportError):
        import _sha256  # noqa: F401
    assert _sha256_hex(text) == expected


def test_simulate_zero_data(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", initial={})
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "ok"
    # the body is always listed, a level only when it is nonzero in some sample
    assert set(summary["conservation"]) == {"H1_body", "H2_body"}
    for record in summary["conservation"].values():
        assert record["max_abs_drift"] == 0.0
        assert record["max_rel_drift"] == 0.0  # a level whose scale is 0 reports 0
    assert (out_dir / "series.csv").exists()
    assert (out_dir / "final_state.csv").exists()


def test_simulate_records_conservation(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert set(summary["conservation"]) == {"H1_body", "H1_12", "H2_body", "H2_12"}
    assert summary["conservation"]["H1_body"]["max_rel_drift"] < 1e-8
    # H2 integrates to zero on both levels, so its drift over |initial| alone
    # would be roundoff over roundoff; over the level's L1 norm it is roundoff
    assert abs(summary["conservation"]["H2_body"]["initial"]) < 1e-15
    for level, record in summary["conservation"].items():
        assert record["max_rel_drift"] <= 1e-10, level
    assert "residual_check" in summary


def test_simulate_leaves_out_a_residual_with_no_interior_sample(tmp_path):
    # samples at 0, 4 dt and 6 dt: only two of them are evenly spaced from the start
    cfg = write_config(tmp_path / "cfg.json", dt=1e-3, t_end=6e-3, sample_stride=4)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert len((out_dir / "series.csv").read_text().splitlines()) == 1 + 3
    assert "residual_check" not in summary


def test_simulate_blowup_exits_3(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dt=50.0, t_end=500.0)
    out_dir = tmp_path / "boom"
    with pytest.warns(RuntimeWarning):
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["status"] == "blowup"
    assert summary["blowup_time"] > 0


def test_simulate_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "bad configuration" in capsys.readouterr().err

    wrong = write_config(tmp_path / "wrong.json", n_modes=77)
    assert main(["simulate", "--config", str(wrong), "--out-dir", str(tmp_path / "o2")]) == 2

    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    assert main(["simulate", "--config", str(nested), "--out-dir", str(tmp_path / "o3")]) == 2
    assert "error: bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_mode": 64}, "unknown config key(s): n_mode"),
        ({"dealias": "false"}, "dealias must be of type bool"),
        ({"n_modes": 16.0}, "n_modes must be of type int"),
        ({"n_grassmann": 2.0}, "n_grassmann must be of type int"),
        ({"sample_stride": 1.5}, "sample_stride must be of type int"),
        ({"dt": 0.01, "t_end": 0.025}, "is not a whole number of steps"),
        ({"n_grassmann": 30}, "n_grassmann must be in 0..8"),
        ({"n_modes": 2**40}, "the stored trajectory would take"),
        ({"dt": 1e-3, "t_end": 1e5}, "t_end / dt is 100000000 steps, above the limit"),
    ],
    ids=["unknown-key", "dealias-string", "n_modes-float", "n_grassmann-float",
         "stride-float", "t_end-off-grid", "n_grassmann-cap", "trajectory-bytes", "step-count"],
)
def test_simulate_rejects_bad_settings_exits_2(tmp_path, capsys, monkeypatch, overrides, message):
    def no_state(*_args):
        raise AssertionError("a rejected config must not build a state")

    monkeypatch.setattr(numerics, "initial_state", no_state)
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and message in err


@pytest.mark.parametrize(
    "initial, message",
    [
        ([1], "initial must be an object"),
        ({"u": 5}, "initial u must be a list of entries"),
        ({"u": [{"level": 3}]}, "initial u level must be a list"),
        ({"u": [{"level": [], "cos": [1]}]}, "initial u cos must map wavenumbers to amplitudes"),
        ({"u": [{"level": [], "cos": {"1": None}}]}, "initial u cos['1'] must be a number"),
        ({"u": [{"level": [], "cos": {"1": float("nan")}}]}, "initial u cos['1'] must be finite"),
        ({"u": [{"level": [], "cos": {"1": 1.0}}], "v": []}, "unknown initial key(s): v"),
        ({"xi": [{"level": [1], "coss": {"1": 0.1}}]}, "in an initial xi entry: coss"),
        ({"xi": [{"level": ["1"], "cos": {"1": 0.1}}]}, "a generator index must be an integer, got '1'"),
        ({"u": [{"level": [], "sin": {"one": 1.0}}]}, "initial u sin wavenumber 'one'"),
        ({"u": [{"level": [], "cos": {"1" + "0" * 400: 1.0}}]}, "is too large for a float"),
    ],
    ids=["list", "u-number", "level-number", "cos-list", "amplitude-null", "amplitude-nan",
         "unknown-field", "unknown-entry-key", "index-string", "wavenumber-word", "wavenumber-huge"],
)
def test_simulate_rejects_bad_initial_data_exits_2(tmp_path, capsys, initial, message):
    cfg = write_config(tmp_path / "cfg.json", initial=initial)
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and message in err


def test_simulate_non_object_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_simulate_out_dir_under_a_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    regular = tmp_path / "regular"
    regular.write_text("")
    out_dir = regular / "out"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"error: cannot create output directory {out_dir}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, blocked",
    [({}, "series.csv"), ({}, "summary.json"), ({"dt": 50.0, "t_end": 500.0}, "summary.json")],
    ids=["series", "summary", "blowup-summary"],
)
def test_simulate_unwritable_output_exits_2(tmp_path, capsys, overrides, blocked):
    # a directory in the way of an output file: the normal writes and the blow-up summary
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the blow-up run overflows
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert f"error: cannot write output in {out_dir}" in capsys.readouterr().err


def test_simulate_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2


def test_report_passing_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["verify", "--suite", "geodesic", "--out", str(out)])
    assert main(["report", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_report_failing_entry_exits_1(tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["verify", "--suite", "geodesic", "--out", str(out)])
    payload = json.loads(out.read_text())
    payload["entries"][0]["passed"] = False
    payload["entries"][0]["residual"] = "(sum (term 1))"
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload))
    assert main(["report", str(doctored)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "residual" in captured.out


def test_report_unreadable_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_report_requires_files():
    with pytest.raises(SystemExit) as info:
        main(["report"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": [{"check_id": "geodesic", "passed": True, "bogus": 1}]},
        [1, 2],
        {"entries": [5]},
        {"entries": "abc"},
        {"entries": []},
        {"entries": [{"check_id": "geodesic", "passed": "false"}]},
        {"entries": [{"check_id": "geodesic", "passed": True, "elapsed": True}]},
        "[" * 100_000,
    ],
    ids=["unknown-key", "top-level-list", "entry-not-object", "entries-string",
         "no-entries", "passed-string", "elapsed-bool", "deeply-nested"],
)
def test_report_rejects_malformed_file_exits_2(tmp_path, capsys, payload):
    # a string payload is the file's raw text
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot read report" in captured.err
    assert "PASS" not in captured.out

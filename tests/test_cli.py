import json

import pytest

from sidonlab.cli import ConfigError, main, parse_config, run

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _strip_meta(report: dict) -> dict:
    out = dict(report)
    out.pop("meta")
    return out


def test_parse_defaults_and_provenance():
    cfg = parse_config(["select"])
    assert cfg.subcommand == "select"
    assert cfg.seed == 0
    assert cfg.params["p"] == 2 and cfg.params["nu"] == 16
    assert cfg.provenance["p"] == "default"


def test_parse_flag_overrides():
    cfg = parse_config(["select", "--p", "101", "--seed", "9"])
    assert cfg.params["p"] == 101 and cfg.seed == 9
    assert cfg.provenance["p"] == "flag"


def test_parse_rejects_non_prime():
    with pytest.raises(SystemExit) as err:
        parse_config(["select", "--p", "4"])
    assert err.value.code == 2


def test_config_file_merge(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p=5\nnu=16  # inline comment\ntrials=150\n")
    cfg = parse_config(["select", "--config", str(path), "--trials", "111"])
    assert cfg.params["p"] == 5
    assert cfg.params["trials"] == 111  # flag wins
    assert cfg.provenance == {
        **cfg.provenance,
        "p": "file",
        "nu": "file",
        "trials": "flag",
    }


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense=1\n")
    with pytest.raises(ConfigError):
        parse_config(["select", "--config", str(path)])


def test_config_file_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p=4\n")
    with pytest.raises(ConfigError):
        parse_config(["select", "--config", str(path)])


def test_verify_qi_exit_codes(tmp_path):
    dep = tmp_path / "dep.json"
    dep.write_text(json.dumps({"points": [[1, 0], [0, 1], [1, 1]]}))
    qi = tmp_path / "qi.json"
    qi.write_text(json.dumps({"points": [[1, 1], [1, -1], [1, 0]]}))
    out = tmp_path / "r.json"
    assert main(["verify-qi", "--input", str(dep), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["artifacts"]["witness"] is not None
    assert main(["verify-qi", "--input", str(qi), "--out", str(out)]) == 0


def test_missing_input_is_usage_error():
    assert main(["verify-qi"]) == 2


def test_reports_are_deterministic(tmp_path):
    argv = ["select", "--trials", "120", "--ell", "1", "--seed", "3"]
    r1 = run(parse_config(argv)).to_dict()
    r2 = run(parse_config(argv)).to_dict()
    assert _strip_meta(r1) == _strip_meta(r2)
    assert json.dumps(_strip_meta(r1), sort_keys=True) == json.dumps(
        _strip_meta(r2), sort_keys=True
    )


def test_report_schema_fields(tmp_path):
    report = run(parse_config(["theorem1", "--nu-max", "2"])).to_dict()
    for key in ("version", "subcommand", "seed", "config", "provenance", "checks",
                "all_passed", "artifacts", "meta"):
        assert key in report
    assert report["all_passed"]
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "passed"}


def test_theorem1_export(tmp_path):
    out = tmp_path / "r.json"
    code = main([
        "theorem1", "--nu-max", "2", "--export-dir", str(tmp_path / "exp"),
        "--out", str(out),
    ])
    assert code == 0
    assert (tmp_path / "exp" / "matrix_2.csv").exists()
    assert (tmp_path / "exp" / "construction.json").exists()


def test_mesh_report_subcommand(tmp_path):
    payload = {
        "lambda": [1, 2, 3, 10],
        "meshes": [
            {"basis": [1, 2], "height": 1},
            {"basis": [1, 10], "coeffs": [[1, 0], [0, 1], [1, 1]]},
        ],
        "bound": {"kind": "sidon_log", "C": 5.0},
    }
    inp = tmp_path / "m.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "r.json"
    csv_path = tmp_path / "summary.csv"
    code = main([
        "mesh-report", "--input", str(inp), "--out", str(out), "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("k,") and len(lines) == 3
    report = json.loads(out.read_text())
    assert len(report["artifacts"]["reports"]) == 2


def test_select_subcommand_small_run():
    report = run(parse_config(["select", "--trials", "120", "--ell", "4"]))
    names = {c.name for c in report.checks}
    assert "size-window-frequency" in names
    assert "tied-probability" in names
    assert "certificate-reverify" in names
    assert report.all_passed


def test_select_beyond_cap_skips_statistics():
    report = run(parse_config(["select", "--p", "101", "--nu", "16", "--ell", "1"]))
    assert report.artifacts["statistics"].startswith("skipped")
    assert report.all_passed


def test_theorem3_infeasible_schedule_exits_2():
    assert main(["theorem3", "--blocks", "2", "--w", "doublelog:1"]) == 2


def test_appendix_check_runs_clean():
    report = run(parse_config(["appendix-check", "--u-points", "101"]))
    assert report.all_passed


def test_select_exhausted_search_is_a_failed_check(tmp_path):
    out = tmp_path / "r.json"
    argv = ["select", "--max-retries", "0", "--trials", "120", "--out", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text())
    assert "no certifiable set" in report["artifacts"]["search_error"]
    assert not {c["name"]: c for c in report["checks"]}["certificate-reverify"]["passed"]


def test_select_does_not_swallow_unexpected_errors(monkeypatch):
    import sidonlab.selection

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the search")

    monkeypatch.setattr(sidonlab.selection, "lemma_search", broken)
    with pytest.raises(RuntimeError, match="bug in the search"):
        main(["select", "--trials", "120", "--out", "/dev/null"])


def test_select_search_cap_exits_2(monkeypatch):
    import sidonlab.selection

    def capped(*args, **kwargs):
        raise MemoryError("subset checks exceed the budget")

    monkeypatch.setattr(sidonlab.selection, "lemma_search", capped)
    assert main(["select", "--trials", "120", "--out", "/dev/null"]) == 2

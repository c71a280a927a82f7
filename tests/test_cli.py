import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidonlab
from sidonlab.cli import Check, ConfigError, main, parse_config, run


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


def test_verify_qi_rejects_a_witness_that_does_not_cancel(tmp_path, monkeypatch, capsys):
    import sidonlab.verify
    from sidonlab.cli import InternalError
    from sidonlab.core import SignVector
    from sidonlab.verify import DependencyWitness

    qi = tmp_path / "qi.json"
    qi.write_text(json.dumps({"points": [[1, 1], [1, -1], [1, 0]]}))
    bogus = DependencyWitness(SignVector((1, 1, 0)))  # (1, 1) + (1, -1) = (2, 0)
    monkeypatch.setattr(
        sidonlab.verify, "verify_qi_exhaustive", lambda points, n_max: (False, bogus)
    )
    with pytest.raises(InternalError, match="does not cancel"):
        run(parse_config(["verify-qi", "--input", str(qi)]))
    # an internal error is neither a dependency (1) nor bad usage (2)
    assert main(["verify-qi", "--input", str(qi)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "InternalError: verify-qi: dependency witness" in err


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
    for check in report["checks"]:  # the relation and tolerance stay out of reports
        assert set(check) == {"name", "value", "bound", "passed"}
        assert "relation" not in check and "tolerance" not in check


@pytest.mark.parametrize("relation, below, equal, above", [
    ("<=", True, True, False),
    (">=", False, True, True),
    ("<", True, False, False),
    ("==", False, True, False),
])
def test_check_verdict_comes_from_value_relation_and_bound(relation, below, equal, above):
    bound = 0.1
    for value, want in ((math.nextafter(bound, -math.inf), below), (bound, equal),
                        (math.nextafter(bound, math.inf), above)):
        check = Check("c", value, relation, bound)
        assert check.passed is want
        assert check.to_dict() == {"name": "c", "value": value, "bound": bound, "passed": want}
    assert not Check("c", math.nan, relation, bound).passed
    assert not Check("c", bound, relation, math.nan).passed


def test_check_has_no_passed_field_and_fails_minus_infinity_at_least():
    assert "passed" not in {f.name for f in dataclasses.fields(Check)}
    assert not Check("c", -math.inf, ">=", 0.0).passed
    assert Check("c", -math.inf, "<=", 0.0).passed


def test_check_tolerance_widens_at_most_only():
    bound, tol = 0.5, 0.25
    assert Check("c", bound + tol, "<=", bound, tol).passed
    assert not Check("c", math.nextafter(bound + tol, math.inf), "<=", bound, tol).passed
    assert not Check("c", bound + tol, "<=", bound).passed
    # the other relations read the bound as it is
    assert not Check("c", bound - tol, ">=", bound, tol).passed
    assert not Check("c", bound, "<", bound, tol).passed
    assert not Check("c", bound + tol, "==", bound, tol).passed
    assert Check("c", bound, "==", bound, tol).passed


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
    from sidonlab.tails import EXACT_LIMIT

    report = run(parse_config(["appendix-check", "--u-points", "101"]))
    assert report.all_passed
    # the rows compare tail <= bound with no Monte Carlo slack: every N is exact
    ns = [int(c.name.split()[1][2:]) for c in report.checks
          if c.name.startswith("difference-tail ")]
    assert ns and max(ns) <= EXACT_LIMIT


def test_appendix_check_trials_flag_is_inert(tmp_path):
    # --trials is echoed in config and reaches no code: the checks stay the same bytes
    checks = []
    for extra in ([], ["--trials", "100000"]):
        out = tmp_path / f"r{len(extra)}.json"
        assert main(["appendix-check", "--out", str(out)] + extra) == 0
        checks.append(json.dumps(json.loads(out.read_text())["checks"]))
    assert checks[0] == checks[1]


def test_select_exhausted_search_is_a_failed_check(tmp_path):
    out = tmp_path / "r.json"
    argv = ["select", "--max-retries", "0", "--trials", "120", "--out", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text())
    assert "no certifiable set" in report["artifacts"]["search_error"]
    assert not {c["name"]: c for c in report["checks"]}["certificate-reverify"]["passed"]


def test_select_does_not_swallow_unexpected_errors(monkeypatch, capsys):
    import sidonlab.selection

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the search")

    monkeypatch.setattr(sidonlab.selection, "lemma_search", broken)
    # neither a failed check (1) nor bad usage (2): an internal error
    assert main(["select", "--trials", "120", "--out", "/dev/null"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: bug in the search" in err


@pytest.mark.parametrize("error", [AssertionError, KeyError])
def test_internal_errors_exit_3_with_a_traceback(error, monkeypatch, capsys):
    import sidonlab.cli

    def broken(params, seed, pool):
        raise error("injected bug")

    monkeypatch.setitem(sidonlab.cli._HANDLERS, "theorem1", broken)
    assert main(["theorem1", "--out", "/dev/null"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and f"{error.__name__}: " in err and "injected bug" in err


def test_parseval_assertion_exits_3(monkeypatch, capsys):
    import numpy as np

    import sidonlab.spectral

    def broken_fwht(values, out=None):  # a constant spectrum breaks Parseval
        out = np.empty(len(values), dtype=np.int64) if out is None else out
        out[...] = 1
        return out

    monkeypatch.setattr(sidonlab.spectral, "fwht", broken_fwht)
    assert main(["analyticity-demo", "--nu", "14", "--ell", "401", "--out", "/dev/null"]) == 3
    assert "AssertionError: Parseval identity violated" in capsys.readouterr().err


def test_witness_cross_check_exits_3(monkeypatch, capsys):
    import sidonlab.spectral

    # an exact spectrum twice too large
    doubled = tuple((2 * re, 2 * im) for re, im in sidonlab.spectral._UNITS)
    monkeypatch.setattr(sidonlab.spectral, "_UNITS", doubled)
    assert main(["analyticity-demo", "--nu", "14", "--ell", "401", "--rho", "2",
                 "--out", "/dev/null"]) == 3
    assert "AssertionError: float and exact sup |mu^| disagree" in capsys.readouterr().err


def test_select_search_cap_exits_2(monkeypatch):
    import sidonlab.selection

    def capped(*args, **kwargs):
        raise MemoryError("subset checks exceed the budget")

    monkeypatch.setattr(sidonlab.selection, "lemma_search", capped)
    assert main(["select", "--trials", "120", "--out", "/dev/null"]) == 2


def _run_cli(*argv, code=None, env=None):
    """Run the CLI (or `code`) in a fresh interpreter on this checkout's sources,
    in `env` (default: this process's environment)."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(Path(sidonlab.__file__).parents[1]))
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "-m", "sidonlab.cli"]
    return subprocess.run([*cmd, *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, message", [
    (["theorem2", "--nu-cap", str(10**400)], "exceeds the largest float"),
    (["theorem2", "--nu-cap", str(10**30)], "subset checks exceed the budget 2000000"),
    (["select", "--nu", str(10**12)], "subset checks exceed the budget 2000000"),
    (["theorem2", "--nu-cap", "60"], "subset checks exceed the budget 2000000"),
    (["select", "--nu", "200"], "subset checks exceed the budget 2000000"),
], ids=["theorem2-cap-1e400", "theorem2-cap-1e30", "select-nu-1e12", "theorem2-cap-60",
        "select-nu-200"])
def test_an_unusable_nu_is_refused_before_any_work(argv, message):
    # before this refusal, 1e400 exited 3 and the other huge values ran on
    # in p**nu; the timeout turns such a hang into a failure
    env = dict(os.environ, PYTHONPATH=str(Path(sidonlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sidonlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("sidonlab: ") and message in line


def test_a_growth_function_past_the_largest_float_is_no_internal_error():
    # w = x^2 is evaluated at the float K * cap, past 1e154: this exited 3
    # with an OverflowError before growth functions returned inf there
    proc = _run_cli("theorem2", "--w", "power:2", "--nu-cap", str(10**200), "--out", os.devnull)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_default_runs_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.isin import numpy.ma, 10-40 ms a process; the key
    # joins (mesh routes, QI search) go through core.key_hits instead
    dep, qi, meshes = tmp_path / "dep.json", tmp_path / "qi.json", tmp_path / "m.json"
    dep.write_text(json.dumps({"points": [[1, 0], [0, 1], [1, 1], [2, 5], [3, 3]]}))
    qi.write_text(json.dumps({"points": [3**i for i in range(8)]}))
    meshes.write_text(json.dumps({
        "lambda": [1, 2, 3, 10, 2**70],
        "meshes": [{"basis": [1, 2], "height": 1},  # keyed route
                   {"basis": [1, 10], "coeffs": [[1, 0], [0, 1], [1, 1]]}],  # digit route
        "bound": {"kind": "sidon_log", "C": 5.0},
    }))
    runs = [["theorem1"], ["theorem2"], ["theorem3"], ["select"],
            ["verify-qi", "--input", str(dep)], ["verify-qi", "--input", str(qi)],
            ["mesh-report", "--input", str(meshes)]]
    code = (
        "import sys; from sidonlab.cli import parse_config, run\n"
        f"for argv in {runs!r}:\n"
        "    run(parse_config(argv))\n"
        "    print(argv[0], 'numpy.ma' in sys.modules)\n"
    )
    proc = _run_cli(code=code)
    assert proc.returncode == 0, proc.stderr
    imported = [line.split()[0] for line in proc.stdout.splitlines() if line.endswith("True")]
    assert len(proc.stdout.splitlines()) == len(runs) and imported == []


def test_cli_start_does_not_import_scipy():
    code = (
        "import sys; from sidonlab.cli import parse_config; parse_config(['appendix-check']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = _run_cli(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_appendix_check_does_not_import_scipy_stats():
    code = (
        "import os, sys; from sidonlab.cli import main; "
        "code = main(['appendix-check', '--out', os.devnull]); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    proc = _run_cli(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_cli_start_does_not_import_mpmath():
    code = (
        "import sys; import sidonlab.cli; from sidonlab.cli import parse_config; "
        "parse_config(['theorem3']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    proc = _run_cli(code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_needs_only_numpy_and_scipy():
    # mpmath unimportable: under this w blocks 2 and 3 have nu = 19 and 21,
    # inside the cap 24, so the run goes through choose_nu_capped's bisection
    code = (
        "import os, sys; sys.modules['mpmath'] = None; from sidonlab.cli import main; "
        "sys.exit(main(['theorem2', '--w', 'step:1=1,1.6=1000000', '--blocks', '3', "
        "'--out', os.devnull]))"
    )
    proc = _run_cli(code=code)
    assert proc.returncode == 0, proc.stderr
    # and no module of the package imports beyond the standard library, numpy and scipy
    imported = set()
    for path in Path(sidonlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"numpy", "scipy"} == set()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_import_starts_no_blas_threads():
    # importing sidonlab set the variable here too, so the child must not inherit it
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = (
        "import os; import sidonlab.cli; a = len(os.listdir('/proc/self/task')); "
        "import scipy.special; print(a, len(os.listdir('/proc/self/task')))"
    )
    proc = _run_cli(code=code, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 1"  # numpy's and scipy's OpenBLAS start no pool


def test_import_keeps_the_users_openblas_threads():
    code = "import os; import sidonlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = _run_cli(code=code, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


def _assert_cap_exit(proc, error):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"sidonlab: {error}: ")
    assert proc.stdout == ""


def test_verify_qi_over_its_cap_exits_2(tmp_path):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps({"points": [2**i for i in range(30)]}))
    _assert_cap_exit(_run_cli("verify-qi", "--input", str(inp)), "QiResourceError")


def test_mesh_report_over_its_cap_exits_2(tmp_path):
    payload = {
        "lambda": [1, 2, 3, 10],
        "meshes": [{"basis": [1, 2, 7], "height": 3}],
        "bound": {"kind": "sidon_log", "C": 5.0},
    }
    inp = tmp_path / "m.json"
    inp.write_text(json.dumps(payload))
    proc = _run_cli("mesh-report", "--input", str(inp), "--cap", "10")
    _assert_cap_exit(proc, "MeshResourceError")


_OVER_CAP_MESH_REPORT = {
    "lambda": [1, 2, 3, 10],
    "meshes": [{"basis": [1, 2, 7], "height": 3}],
    "bound": {"kind": "k_w_k", "w": "doublelog:1"},
}


@pytest.mark.parametrize("change, message", [
    ({"lambda": None}, "ConfigError: mesh-report input lacks 'lambda'"),
    ({"meshes": None}, "ConfigError: mesh-report input lacks 'meshes'"),
    ({"bound": None}, "ConfigError: mesh-report input lacks 'bound'"),
    ({"bound": {"kind": "nope"}}, "ConfigError: unknown bound kind 'nope'"),
    ({"bound": {"kind": "k_w_k"}}, "ConfigError: bound kind 'k_w_k' needs 'w'"),
    ({"bound": {"kind": "sidon_log"}}, "ConfigError: bound kind 'sidon_log' needs 'C'"),
    ({"meshes": [{"basis": [1, 2]}]}, "ConfigError: meshes[0] lacks 'height' or 'coeffs'"),
    ({"lambda": [1, [2, None]]}, "ConfigError: malformed mesh-report input"),
    ({"bound": {"kind": "sidon_log", "C": "2"}}, "ConfigError: malformed mesh-report input"),
    ({"bound": {"kind": "sidon_log", "C": True}}, "ConfigError: malformed mesh-report input"),
    ({"meshes": [{"basis": [1, 2, 7], "height": 1.9}]},
     "ConfigError: malformed mesh-report input"),
    ({"meshes": [{"basis": [1, 2], "coeffs": [[1.5, 0], [0, 1]]}]},
     "ConfigError: malformed mesh-report input"),
])
def test_mesh_report_bad_input_exits_2_before_counting(tmp_path, change, message):
    # the mesh is over --cap, so a check made after counting would report
    # MeshResourceError instead
    payload = {k: v for k, v in {**_OVER_CAP_MESH_REPORT, **change}.items() if v is not None}
    inp = tmp_path / "m.json"
    inp.write_text(json.dumps(payload))
    proc = _run_cli("mesh-report", "--input", str(inp), "--cap", "10")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"sidonlab: {message}")
    assert proc.stdout == ""


@pytest.mark.parametrize("w", ["doublelog:inf", "doublelog:nan", "power:inf", "power:nan",
                               "step:1=inf", "step:1=nan"])
def test_mesh_report_non_finite_growth_exits_2(tmp_path, capsys, w):
    # unchecked, "doublelog:inf" passes every k_w_k mesh and "doublelog:nan" reads w = 1
    inp = tmp_path / "m.json"
    inp.write_text(json.dumps({**_OVER_CAP_MESH_REPORT, "bound": {"kind": "k_w_k", "w": w}}))
    assert main(["mesh-report", "--input", str(inp), "--cap", "10", "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert "ConfigError: malformed mesh-report input" in err and "finite" in err


@pytest.mark.parametrize("w", ["doublelog:inf", "power:nan"])
def test_non_finite_growth_flag_is_an_argparse_error(w, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["theorem3", "--w", w])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("points", [[1, 1.5], [1, "x"], [[1, None]]])
def test_verify_qi_non_integer_point_exits_2(tmp_path, points):
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps({"points": points}))
    proc = _run_cli("verify-qi", "--input", str(inp))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("sidonlab: ConfigError: malformed verify-qi input: point ")
    assert proc.stdout == ""


def test_points_from_json_accepts_ints_and_integer_strings_only():
    from sidonlab.cli import _points_from_json
    from sidonlab.core import LatticePoint

    points = _points_from_json({"points": [3, "-12", [1, "2", 0], 10**30]}, "input")
    assert points == [
        LatticePoint((3,)), LatticePoint((-12,)), LatticePoint((1, 2)),
        LatticePoint((10**30,)),
    ]
    for bad in ([True], [None], [2.0], ["1.5"], [[1, [2]]], [{"x": 1}], 7, "12"):
        with pytest.raises(ConfigError, match="malformed input"):
            _points_from_json(bad, "input")


def test_analyticity_exhausted_flat_sample_is_a_failed_check(tmp_path):
    out = tmp_path / "r.json"
    argv = ["analyticity-demo", "--nu", "16", "--ell", "401", "--max-retries", "0",
            "--out", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text())
    assert "no flat sample" in report["artifacts"]["search_error"]
    # no flat sample within 0 draws, so one takes at least 1
    assert report["checks"] == [
        {"name": "flat-sample-retries", "value": 1.0, "bound": 0.0, "passed": False}
    ]


@pytest.mark.parametrize("rho, shared", [("2", True), ("13", False)])
def test_analyticity_meta_counters_are_deterministic(rho, shared, tmp_path):
    # at --rho 13 u reads every bit of a quarter of 2^14 entries, so each
    # draw transforms twice
    reports = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        main(["analyticity-demo", "--nu", "14", "--ell", "401", "--rho", rho, "--out", str(out)])
        reports.append(json.loads(out.read_text()))
    first, second = (r["meta"]["counters"] for r in reports)
    assert first == second
    assert first["shared_stages"] is shared
    assert first["exact_passes"] == first["flat_draws"] * (1 if shared else 2) >= 1
    assert 1 <= first["near_max_characters"] <= 9
    assert first["complex_fallback"] is (first["near_max_characters"] > 8)
    # the rest of the report does not carry them
    assert "counters" not in json.dumps({k: v for k, v in reports[0].items() if k != "meta"})


def test_analyticity_csv_lists_the_top_spectrum_magnitudes(tmp_path):
    import csv

    import numpy as np

    from sidonlab.spectral import fwht, sample_flat_lambda

    path = tmp_path / "top.csv"
    argv = ["analyticity-demo", "--nu", "14", "--ell", "401", "--csv", str(path)]
    assert main([*argv, "--out", os.devnull]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    mags = np.abs(fwht(sample_flat_lambda(14, 401, seed=0).mask.astype(np.float64)))
    top = np.argsort(mags)[::-1][:32]  # --top defaults to 32
    assert rows == [["mask", "magnitude"]] + [[str(int(y)), str(float(mags[y]))] for y in top]


def test_select_failed_tied_check_reports_the_measured_frequency(monkeypatch, tmp_path):
    import sidonlab.selection
    from sidonlab.selection import SelectionConfig, tied_bound

    trials = 120
    bound, allowance = tied_bound(SelectionConfig(p=2, nu=16, ell=4, trials=trials))
    assert bound == 2.0**-8 and allowance == 3 * math.sqrt(bound * (1 - bound) / trials)
    # the row passes at bound + 3 sigma itself
    assert Check("tied-probability", bound + allowance, "<=", bound, allowance).passed
    most = math.floor((bound + allowance) * trials)  # the most tied trials that pass
    for tied, passed in ((trials // 2, False), (most, True), (most + 1, False)):
        def some_tied(cfg, trial, tied=tied):  # the first `tied` thinned sets are dependent
            return 2 * cfg.ell * cfg.nu, trial < tied

        monkeypatch.setattr(sidonlab.selection, "trial_statistics", some_tied)
        out = tmp_path / "r.json"
        assert main(["select", "--trials", str(trials), "--out", str(out)]) == 1 - passed
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["tied-probability"] == {
            "name": "tied-probability", "value": tied / trials, "bound": bound, "passed": passed
        }
        assert checks["size-window-frequency"]["passed"]


@pytest.mark.parametrize("argv, flag", [
    (["theorem2", "--k-max", "0"], "--k-max"),
    (["theorem2", "--h-max", "0"], "--h-max"),
    (["theorem2", "--mesh-count", "0"], "--mesh-count"),
    (["theorem3", "--k-max", "0"], "--k-max"),
    (["theorem3", "--h-max", "0"], "--h-max"),
    (["theorem3", "--mesh-count", "0"], "--mesh-count"),
    (["appendix-check", "--alpha-points", "0"], "--alpha-points"),
    (["appendix-check", "--u-points", "0"], "--u-points"),
    (["select", "--nu", "15"], "--nu"),
    (["analyticity-demo", "--nu", "16", "--ell", "401", "--rho", "17"], "--rho"),
])
def test_meaningless_flags_exit_2_with_a_config_error(argv, flag):
    proc = _run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("sidonlab: ConfigError: ")
    assert flag in lines[0]
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, line", [
    (["--nu", "-3", "--ell", "401"], "--nu must be >= 1, got -3"),
    (["--nu", "0"], "--nu must be >= 1, got 0"),
    (["--nu", "16", "--ell", "401", "--rho", "-5"], "--rho must be >= -1, got -5"),
    (["--rho", "-2"], "--rho must be >= -1, got -2"),
])
def test_analyticity_flags_below_their_floors_exit_2(argv, line):
    proc = _run_cli("analyticity-demo", *argv)
    _assert_cap_exit(proc, "ConfigError")
    assert line in proc.stderr


def test_theorem3_checks_its_schedule_on_the_sampled_grid():
    report = run(parse_config(["theorem3", "--k-max", "6"]))
    # 4 conditions at each (h, k) of the 3 x 6 grid, plus 4*ell_j < p_j for j <= 6
    assert report.artifacts["conditions_checked"] == 78
    assert report.all_passed
    # the schedule's p_7 is not materialized, so k = 7 cannot be checked
    assert main(["theorem3", "--k-max", "7", "--out", os.devnull]) == 2


def _floored_opts():
    from sidonlab.cli import _COMMON, _SUBCOMMANDS

    return [(sub, opt) for sub, opts in _SUBCOMMANDS.items() for opt in opts + _COMMON
            if opt.floor is not None]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "sub, opt", _floored_opts(), ids=[f"{sub}--{opt.name}" for sub, opt in _floored_opts()]
)
def test_a_value_below_its_floor_exits_2_before_the_run(sub, opt, source, tmp_path,
                                                        monkeypatch, capsys):
    import sidonlab.cli

    def never(params, seed, pool):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(sidonlab.cli._HANDLERS, sub, never)
    value = opt.floor - 1
    if source == "flag":
        argv = [sub, f"--{opt.name}", str(value)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{opt.name}={value}\n")
        argv = [sub, "--config", str(cfg)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("sidonlab: ConfigError: ")
    assert f"--{opt.name} must be >= {opt.floor}, got {value}" in lines[0]


def test_every_default_meets_its_floor():
    for sub, opt in _floored_opts():
        assert opt.default >= opt.floor, (sub, opt.name)


def _ceiled_opts():
    from sidonlab.cli import _COMMON, _SUBCOMMANDS

    return [(sub, opt) for sub, opts in _SUBCOMMANDS.items() for opt in opts + _COMMON
            if opt.ceiling is not None]


@pytest.mark.parametrize(
    "sub, opt", _ceiled_opts(), ids=[f"{sub}--{opt.name}" for sub, opt in _ceiled_opts()]
)
def test_a_value_above_its_ceiling_is_refused(sub, opt):
    assert opt.default <= opt.ceiling
    config = parse_config([sub, f"--{opt.name}", str(opt.ceiling)])
    assert opt.ceiling in (config.threads, config.params.get(opt.name))
    with pytest.raises(ConfigError, match=f"--{opt.name} must be <= {opt.ceiling}, got "):
        parse_config([sub, f"--{opt.name}", str(opt.ceiling + 1)])


def test_a_pointwise_sample_past_its_cap_is_refused_before_any_draw(monkeypatch, capsys):
    # about 2 ell nu = 3.2e7 rows of 16 int64s (4 GB): this run was killed
    # for its memory
    import sidonlab.selection
    from sidonlab.cli import _SUBCOMMANDS

    def drew(*args, **kwargs):
        raise AssertionError("a draw started")

    for name in ("stream", "bernoulli"):
        monkeypatch.setattr(sidonlab.selection, name, drew)
    argv = ["select", "--p", "3", "--nu", "16", "--ell", "1000000", "--out", os.devnull]
    assert main(argv) == 2
    cap = sidonlab.selection.SAMPLE_ENTRY_CAP
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("sidonlab: ResourceCapError: ") and str(cap) in line
    # the cap passes select's default and theorem2's pointwise blocks (p^nu
    # <= 2^26, so nu <= 26) up to its block ceiling
    [blocks] = [o.ceiling for o in _SUBCOMMANDS["theorem2"] if o.name == "blocks"]
    assert 2 * 4 * 16 * 16 <= 2 * blocks * 26 * 26 <= cap


def test_one_config_error_type():
    import sidonlab.cli
    import sidonlab.core
    from sidonlab.spread import ScheduleError

    assert sidonlab.cli.ConfigError is sidonlab.core.ConfigError
    assert issubclass(ConfigError, ValueError) and issubclass(ScheduleError, ConfigError)


def _library_refusals():
    from sidonlab.blocks import build_theorem2_prefix
    from sidonlab.construction import build_matrix, embed_theorem1
    from sidonlab.growth import DoubleLog
    from sidonlab.mesh import BoundSpec
    from sidonlab.selection import SelectionConfig, lemma_search
    from sidonlab.spectral import sample_flat_lambda
    from sidonlab.spread import Schedule

    return {
        "selection-prime": lambda: SelectionConfig(p=4, nu=16, ell=1),
        "selection-ell": lambda: SelectionConfig(p=2, nu=16, ell=0),
        "selection-alpha": lambda: SelectionConfig(p=2, nu=16, ell=3000),
        "lemma-mode": lambda: lemma_search(SelectionConfig(p=2, nu=15, ell=1)),
        "lemma-eighth": lambda: lemma_search(SelectionConfig(p=2, nu=16, ell=1), use_eighth=True),
        "theorem2-L": lambda: build_theorem2_prefix(p=3, w=DoubleLog(1.0), L=1),
        "flat-ell": lambda: sample_flat_lambda(16, 400),
        "flat-alpha": lambda: sample_flat_lambda(16, 5000),
        # the witness's rho is drawn with its sample
        "witness-rho": lambda: sample_flat_lambda(16, 401, rho=17),
        "schedule-J": lambda: Schedule.default(7),
        "schedule-p": lambda: Schedule.default(2).p(7),
        "matrix-nu": lambda: build_matrix(13),
        "embed-nu": lambda: embed_theorem1(0),
        "bound-kind": lambda: BoundSpec("nope"),
    }


@pytest.mark.parametrize("case", sorted(_library_refusals()))
def test_library_refusals_are_config_errors(case):
    with pytest.raises(ConfigError):
        _library_refusals()[case]()


def test_a_value_error_from_a_handler_exits_3(monkeypatch, capsys):
    import sidonlab.cli

    def broken(params, seed, pool):
        raise ValueError("injected")

    monkeypatch.setitem(sidonlab.cli._HANDLERS, "theorem1", broken)
    assert main(["theorem1", "--out", os.devnull]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: injected" in err


@pytest.mark.parametrize("where", ["config", "out"])
def test_a_missing_file_or_directory_exits_2(where, tmp_path, capsys):
    missing = tmp_path / "missing"
    if where == "config":
        argv = ["theorem1", "--nu-max", "1", "--config", str(missing / "run.cfg")]
    else:
        argv = ["theorem1", "--nu-max", "1", "--out", str(missing / "r.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("sidonlab: FileNotFoundError: ")
    assert captured.out == ""


def test_theorem3_at_the_block_cap_runs():
    # p_6 has 68 bits: its coordinates are drawn beyond int64
    proc = _run_cli("theorem3", "--blocks", "6", "--out", os.devnull)
    assert proc.returncode == 0, proc.stderr


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\n\xff\n")
    with pytest.raises(ConfigError, match="is not UTF-8"):
        parse_config(["select", "--config", str(cfg)])


@pytest.mark.parametrize("argv, payload", [
    (["select", "--ell", "3000"], None),
    (["select", "--seed", "-1"], None),
    (["analyticity-demo", "--nu", "16", "--ell", "400"], None),
    (["analyticity-demo", "--nu", "16", "--ell", "5000"], None),
    (["theorem1", "--nu-max", "13"], None),
    (["theorem2", "--blocks", "1"], None),
    (["theorem2", "--nu-cap", "10"], None),
    (["theorem3", "--blocks", "7"], None),
    (["verify-qi"], b'{"points": [1, 2'),
    (["verify-qi"], b"\xff\xfe[1]"),
], ids=["select-ell", "select-seed", "flat-ell", "flat-alpha", "theorem1-nu-max",
        "theorem2-blocks", "theorem2-nu-cap", "theorem3-blocks", "verify-qi-truncated",
        "verify-qi-not-utf8"])
def test_usage_errors_exit_2_with_one_config_error_line(argv, payload, tmp_path):
    if payload is not None:
        inp = tmp_path / "p.json"
        inp.write_bytes(payload)
        argv = [*argv, "--input", str(inp)]
    _assert_cap_exit(_run_cli(*argv), "ConfigError")

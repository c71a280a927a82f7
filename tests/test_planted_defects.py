"""Planted defects that the report checks catch.

Each row plants one defect in process (a monkeypatched library function or
a dependent input), runs the subcommand at its defaults and expects exit 1
with the named checks failing.  Rows for the defects the checks miss today
wait for the checks that catch them (ROADMAP item 4).
"""

import json

import pytest

import sidonlab.construction
import sidonlab.spectral
from sidonlab.cli import main
from sidonlab.construction import QiMatrix


def _run(argv, tmp_path):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def _failed(report) -> dict:
    return {c["name"]: (c["value"], c["bound"]) for c in report["checks"] if not c["passed"]}


def test_a3_with_a_flipped_entry_fails_theorem1(tmp_path, monkeypatch):
    build = sidonlab.construction.build_matrix

    def flipped(nu):
        m = build(nu)
        if nu != 3:
            return m
        entries = m.entries.copy()
        entries[0, 0] *= -1
        return QiMatrix(nu, entries)

    monkeypatch.setattr(sidonlab.construction, "build_matrix", flipped)
    code, report = _run(["theorem1"], tmp_path)
    assert code == 1
    assert set(_failed(report)) == {"matrix-shape-and-structure nu=3",
                                    "columns-exhaustively-qi nu=3"}


def test_a_dependent_input_fails_verify_qi(tmp_path, monkeypatch):
    # 1 - 9 + 27 - 19 = 0 among powers of 3 and a point of Z^2
    points = [1, 3, 9, 27, 81, 19, [0, 1]]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "points.json").write_text(json.dumps(points))
    code, report = _run(["verify-qi", "--input", "points.json"], tmp_path)
    assert code == 1
    assert set(_failed(report)) == {"quasi-independent"}
    eps = report["artifacts"]["witness"]
    rows = [p if isinstance(p, list) else [p, 0] for p in points]
    assert any(eps) and all(sum(s * row[c] for s, row in zip(eps, rows)) == 0 for c in (0, 1))


def test_doubled_sup_mu_fails_analyticity_demo(tmp_path, monkeypatch):
    sup_mu = sidonlab.spectral._sup_mu
    monkeypatch.setattr(sidonlab.spectral, "_sup_mu", lambda sample: 2 * sup_mu(sample))
    code, report = _run(["analyticity-demo"], tmp_path)
    assert code == 1
    failed = _failed(report)
    assert set(failed) == {"lower-bound-vs-target", "lower-bound-vs-chain"}
    # seed 0: the halved lower bound falls below sqrt(2) and the chain bound
    assert failed["lower-bound-vs-target"] == pytest.approx((1.41245, 1.41421), abs=5e-6)
    assert failed["lower-bound-vs-chain"] == pytest.approx((1.41245, 1.57135), abs=5e-6)

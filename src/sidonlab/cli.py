"""Experiment harness: one entry point, eight subcommands, JSON reports.

Every run echoes its configuration (with per-key provenance: flag, config
file, or default), emits one (name, value, bound, passed) row per check,
and exits 0 only when every check passed.  Each row is a ``Check``: a value,
a relation (<=, >=, < or ==) and a bound, and its verdict is computed from
those three alone; yes/no checks read value 1.0 == bound 1.0.  Reports
serialize no relation: the README lists each check family's.  Reports are
bit-identical across runs with the same configuration and seed, except for
the wall-clock entry kept in a separate "meta" section.

Config files use one key=value pair per line ('#' starts a comment); flags
override file values; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import __version__
from .blocks import NU_CAP_DEFAULT
from .core import ConfigError, LatticePoint, is_prime
from .growth import GrowthFunction, parse_growth, validate_growth
from .mesh import ENUM_CAP
from .parallel import THREADS_MAX, Parallelism
from .selection import LEMMA_NU_MIN, RETRY_BUDGET, TIED_MIN_TRIALS
from .spectral import FLAT_ELL_LIMIT, FLAT_RETRY_BUDGET
from .verify import N_MAX_DEFAULT

_USAGE_EXIT = 2
_INTERNAL_EXIT = 3


class InternalError(RuntimeError):
    """A result failed the program's own check on it: a bug, not a finding;
    maps to exit status 3."""


def _prime_type(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _growth_type(text: str) -> GrowthFunction:
    try:
        w = parse_growth(text)
        validate_growth(w)
        return w
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@dataclass(frozen=True)
class Opt:
    name: str
    type: Callable
    default: object
    help: str
    floor: Optional[int] = None  # the least value a run can use
    ceiling: Optional[int] = None  # the most a run may ask for


_COMMON = [
    Opt("seed", int, 0, "master RNG seed (echoed in the report)", 0),
    Opt("threads", int, 1, "worker threads for select's trials", 1, THREADS_MAX),
    Opt("out", str, "", "path for the JSON report (default: stdout)"),
]

_SUBCOMMANDS: dict[str, list[Opt]] = {
    "verify-qi": [
        Opt("input", str, "", "JSON file with the points to test"),
        Opt("n-max", int, N_MAX_DEFAULT, "cap on the number of elements", 0),
    ],
    "theorem1": [
        Opt("nu-max", int, 7, "build blocks 1..nu_max"),
        Opt("export-dir", str, "", "write matrix CSVs and the construction JSON here"),
    ],
    "mesh-report": [
        Opt("input", str, "", "JSON file with lambda, meshes and the bound"),
        Opt("csv", str, "", "optional CSV summary path"),
        Opt("cap", int, ENUM_CAP, "enumeration cap", 0),
    ],
    "select": [
        Opt("p", _prime_type, 2, "prime modulus"),
        Opt("nu", int, 16, "dimension", LEMMA_NU_MIN),
        Opt("ell", int, 4, "density parameter"),
        Opt("trials", int, 1000, "Monte Carlo trials", TIED_MIN_TRIALS),
        Opt("max-retries", int, RETRY_BUDGET, "certified search retry budget", 0),
    ],
    "theorem2": [
        Opt("p", _prime_type, 3, "prime modulus"),
        # 32 blocks took 4.8 s and 370 MiB on a 2-vCPU VM, the peak doubling every 8
        Opt("blocks", int, 6, "last block index L (blocks 2..L)", None, 32),
        Opt("nu-cap", int, NU_CAP_DEFAULT, "desk cap on block sizes", LEMMA_NU_MIN),
        Opt("w", _growth_type, parse_growth("doublelog:1"), "growth function"),
        Opt("mesh-count", int, 500, "sampled meshes", 1),
        Opt("k-max", int, 6, "max mesh rank", 1),
        Opt("h-max", int, 2, "max mesh height", 1),
        Opt("export", str, "", "write the construction JSON here"),
    ],
    "theorem3": [
        Opt("blocks", int, 4, "number of blocks J"),
        # the scale 2500 keeps the schedule feasible on the default (h, k)
        # grid, given that block sizes must be >= 16
        Opt("w", _growth_type, parse_growth("doublelog:2500"), "growth function"),
        Opt("mesh-count", int, 500, "sampled meshes", 1),
        Opt("k-max", int, 5, "max mesh rank", 1),
        Opt("h-max", int, 3, "max mesh height", 1),
        Opt("export", str, "", "write the construction JSON here"),
    ],
    "analyticity-demo": [
        Opt("nu", int, 22, "dimension of (Z/2Z)^nu", 1),
        Opt("ell", int, 40000, f"density parameter (> {FLAT_ELL_LIMIT})"),
        Opt("rho", int, -1, "number of characters; -1 means the default rule", -1),
        Opt("max-retries", int, FLAT_RETRY_BUDGET, "flat-sample retry budget", 0),
        Opt("csv", str, "", "optional CSV of top spectrum magnitudes"),
        Opt("top", int, 32, "rows in the spectrum CSV", 0),
    ],
    "appendix-check": [
        Opt("alpha-points", int, 99, "alpha grid size", 1),
        Opt("u-points", int, 1001, "u samples per alpha", 1),
        # echoed in the report's config only: every difference tail is exact
        Opt("trials", int, 10**4, "unused; kept for the report's config", 10**4),
    ],
}


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    params: dict
    seed: int
    threads: int
    out: str
    provenance: dict


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """The claim ``value relation bound``; ``tolerance`` widens ``<=`` only
    (to value <= bound + tolerance).  NaN fails every relation."""

    name: str
    value: float
    relation: str
    bound: float
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        bound = self.bound + self.tolerance if self.relation == "<=" else self.bound
        return bool(_RELATIONS[self.relation](self.value, bound))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
        }


def _flag(name: str, ok: bool) -> Check:
    """A yes/no check: value 1.0 when ok, else 0.0, against 1.0."""
    return Check(name, float(ok), "==", 1.0)


def _violations(reports) -> Check:
    """How many sampled meshes break their bound, against none."""
    return Check("mesh-bound-violations", float(sum(not r.passed for r in reports)), "==", 0.0)


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    checks: tuple[Check, ...]
    artifacts: dict
    runtime_seconds: float
    meta: dict  # how the run got its answer, beside runtime_seconds under "meta"

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        params = {
            k: (v.describe() if isinstance(v, GrowthFunction) else v)
            for k, v in self.config.params.items()
        }
        return {
            "version": __version__,
            "subcommand": self.config.subcommand,
            "seed": self.config.seed,
            "config": params,
            "provenance": self.config.provenance,
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "artifacts": self.artifacts,
            "meta": {"runtime_seconds": self.runtime_seconds, **self.meta},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _read_text(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8: {exc}") from exc


def _read_config_file(path: str, allowed: dict[str, Opt]) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = allowed[key].type(text.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Parse flags (and an optional config file): flags win, unknown keys and
    values outside their flag's floor and ceiling are refused, every key records
    its provenance."""
    parser = argparse.ArgumentParser(
        prog="sidonlab",
        description="reproduction harness for the mesh / selection experiments",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", type=str, default=None, help="key=value file")
        for opt in opts + _COMMON:
            sub.add_argument(f"--{opt.name}", type=opt.type, default=None, help=opt.help)
    ns = parser.parse_args(list(argv))

    opts = {o.name: o for o in _SUBCOMMANDS[ns.subcommand] + _COMMON}
    file_values = {}
    if ns.config:
        file_values = _read_config_file(ns.config, opts)

    params: dict = {}
    provenance: dict = {}
    for name, opt in opts.items():
        flag_value = getattr(ns, name.replace("-", "_"))
        if flag_value is not None:
            params[name], provenance[name] = flag_value, "flag"
        elif name in file_values:
            params[name], provenance[name] = file_values[name], "file"
        else:
            params[name], provenance[name] = opt.default, "default"
        if opt.floor is not None and params[name] < opt.floor:
            raise ConfigError(f"--{name} must be >= {opt.floor}, got {params[name]}")
        if opt.ceiling is not None and params[name] > opt.ceiling:
            raise ConfigError(f"--{name} must be <= {opt.ceiling}, got {params[name]}")

    seed = params.pop("seed")
    threads = params.pop("threads")
    out = params.pop("out")
    return ExperimentConfig(
        subcommand=ns.subcommand,
        params=params,
        seed=seed,
        threads=threads,
        out=out,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _json_object(data, keys: Sequence[str], where: str) -> dict:
    """`data` as a dict holding every key in `keys`, else a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ConfigError(f"{where} lacks {', '.join(map(repr, missing))}")
    return data


def _json_int(value) -> Optional[int]:
    """An int, or a string of one; None for anything else (floats, bools, null)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    return None


def _points_from_json(data, where: str) -> list[LatticePoint]:
    """Points from a JSON list whose items are integers or lists of them;
    an integer may also be given as a string."""
    if isinstance(data, dict):
        data = _json_object(data, ["points"], "point list")["points"]
    if not isinstance(data, list):
        raise ConfigError(f"malformed {where}: a point list must be a JSON list")
    out = []
    for i, item in enumerate(data):
        coords = [_json_int(c) for c in (item if isinstance(item, list) else [item])]
        if None in coords:
            raise ConfigError(
                f"malformed {where}: point {i} is {json.dumps(item)}, "
                "not an integer or a list of integers"
            )
        out.append(LatticePoint(tuple(coords)))
    return out


def _read_input(params, subcommand: str):
    """The JSON document named by --input; a missing flag, invalid JSON or
    bytes that are not UTF-8 are a ConfigError."""
    if not params["input"]:
        raise ConfigError(f"{subcommand} requires --input")
    try:
        return json.loads(_read_text(params["input"]))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed {subcommand} input: {exc}") from exc


def _run_verify_qi(params, seed, pool):
    from .verify import verify_qi_exhaustive

    points = _points_from_json(_read_input(params, "verify-qi"), "verify-qi input")
    qi, witness = verify_qi_exhaustive(points, n_max=params["n-max"])
    if witness is not None and not witness.validates(points):
        raise InternalError(
            f"verify-qi: dependency witness {list(witness.eps.signs)} "
            "does not cancel on the input points"
        )
    checks = [_flag("quasi-independent", qi)]
    artifacts = {
        "n": len(points),
        "witness": list(witness.eps.signs) if witness else None,
    }
    return checks, artifacts


def _run_theorem1(params, seed, pool):
    from .construction import embed_theorem1, n_nu, witness_counts
    from .verify import verify_qi_exhaustive, verify_qi_structural

    nu_max = params["nu-max"]
    construction = embed_theorem1(nu_max)  # refuses a nu_max outside [1, NU_CAP] first
    matrices = [m for _, m in construction.blocks]  # A_1 .. A_nu_max
    checks = []
    table = {}
    for m in matrices:
        table[m.nu] = m.cols
        # QiMatrix enforces the 2^nu x N_nu shape on construction
        checks.append(_flag(f"matrix-shape-and-structure nu={m.nu}", verify_qi_structural(m)))
    for m in matrices[:3]:
        qi, _ = verify_qi_exhaustive(m.columns_as_points())
        checks.append(_flag(f"columns-exhaustively-qi nu={m.nu}", qi))

    ks = range(2, 2 ** (nu_max + 1))
    counts = witness_counts(construction, ks)
    worst = math.inf
    for k in ks:
        # theorem1_witness(k) claims N_nu with 2^nu <= k < 2^(nu+1)
        if counts[k] != n_nu(k.bit_length() - 1):
            worst = -math.inf
            break
        worst = min(worst, counts[k] - 0.25 * k * math.log2(k))
    checks.append(Check("witness-count-margin all k", worst, ">=", 0.0))
    worst_pow2 = min(
        counts[2**nu] - 0.5 * (2**nu) * nu for nu in range(1, nu_max + 1) if 2**nu >= 2
    )
    checks.append(Check("power-of-two-half-bound", worst_pow2, ">=", 0.0))

    if params["export-dir"]:
        import os

        os.makedirs(params["export-dir"], exist_ok=True)
        for m in matrices:
            m.to_csv(os.path.join(params["export-dir"], f"matrix_{m.nu}.csv"))
        construction.to_json(os.path.join(params["export-dir"], "construction.json"))
    return checks, {"column_counts": table, "lambda_size": len(construction.lambda_points)}


def _bound_from_json(data) -> "BoundSpec":
    from .mesh import BoundSpec

    data = _json_object(data, ["kind"], "bound")
    w = data.get("w")
    if w is not None and not isinstance(w, str):
        raise ConfigError("bound 'w' must be a growth descriptor string")
    c = data.get("C")
    if c is not None and (
        isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c)
    ):
        raise ConfigError(
            f"malformed mesh-report input: bound 'C' is {json.dumps(c)}, not a finite number"
        )
    return BoundSpec(kind=data["kind"], w=None if w is None else parse_growth(w),
                     C=c)


def _coeff_rows(data, i: int) -> tuple[tuple[int, ...], ...]:
    """A mesh's coefficient vectors from a JSON list of lists of integers
    (integer strings allowed, as in point lists)."""
    if isinstance(data, list) and all(isinstance(row, list) for row in data):
        rows = tuple(tuple(_json_int(c) for c in row) for row in data)
        if not any(None in row for row in rows):
            return rows
    raise ConfigError(
        f"malformed mesh-report input: meshes[{i}] coeffs must be a list of "
        "lists of integers"
    )


def _run_mesh_report(params, seed, pool):
    from .mesh import Box, ExplicitList, Mesh, check_mesh_condition

    data = _json_object(
        _read_input(params, "mesh-report"), ["lambda", "meshes", "bound"], "mesh-report input"
    )
    # the whole input is parsed and validated before any counting starts
    try:
        lam = _points_from_json(data["lambda"], "mesh-report input")
        meshes = []
        for i, spec in enumerate(data["meshes"]):
            spec = _json_object(spec, ["basis"], f"meshes[{i}]")
            basis = tuple(_points_from_json(spec["basis"], "mesh-report input"))
            if "height" in spec:
                height = _json_int(spec["height"])
                if height is None:
                    raise ConfigError(
                        f"malformed mesh-report input: meshes[{i}] height is "
                        f"{json.dumps(spec['height'])}, not an integer"
                    )
                domain = Box(height)
            elif "coeffs" in spec:
                domain = ExplicitList(_coeff_rows(spec["coeffs"], i))
            else:
                raise ConfigError(f"meshes[{i}] lacks 'height' or 'coeffs'")
            meshes.append(Mesh(basis, domain))
        bound = _bound_from_json(data["bound"])
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a JSON value of the wrong type or range
        raise ConfigError(f"malformed mesh-report input: {exc}") from exc
    reports = check_mesh_condition(lam, meshes, bound, cap=params["cap"])
    checks = [
        Check(f"mesh[{i}] k={r.k}", float(r.count), "<=" if r.direction == "upper" else ">=",
              r.bound)
        for i, r in enumerate(reports)
    ]
    if params["csv"]:
        import csv as _csv

        with open(params["csv"], "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["k", "height", "domain_size", "count", "bound", "passed"])
            for r in reports:
                writer.writerow([r.k, r.height, r.domain_size, r.count, r.bound, r.passed])
    return checks, {"reports": [r.to_dict() for r in reports]}


def _run_select(params, seed, pool):
    from .selection import (
        SAMPLING_CAP,
        SearchFailure,
        SelectionConfig,
        lemma_search,
        tied_bound,
        trial_statistics,
    )

    cfg = SelectionConfig(p=params["p"], nu=params["nu"], ell=params["ell"], seed=seed,
                          trials=params["trials"])
    checks = []
    artifacts: dict = {}

    # The Monte-Carlo statistics sample every point of the space, so they
    # only run below the pointwise cap; the certified search still works
    # beyond it (direct mode).
    pointwise = cfg.space_size <= SAMPLING_CAP
    if pointwise:
        # one draw per trial feeds both the size statistics and the tied count
        stats = list(pool.map(lambda t: trial_statistics(cfg, t), range(cfg.trials)))
        sizes = [size for size, _ in stats]
        mean = sum(sizes) / len(sizes)
        expected = cfg.space_size * cfg.alpha
        se = math.sqrt(expected * (1 - cfg.alpha)) / math.sqrt(cfg.trials)
        checks.append(Check("mean-size-within-5-se", abs(mean - expected), "<=", 5 * se))

        lo, hi = cfg.ell * cfg.nu, 3 * cfg.ell * cfg.nu
        freq = sum(1 for s in sizes if lo <= s <= hi) / len(sizes)
        q = 1 - 2 * math.exp(-cfg.ell * cfg.nu / 16)
        slack = 3 * math.sqrt(q * (1 - q) / cfg.trials)
        checks.append(Check("size-window-frequency", freq, ">=", q - slack))

        tied = sum(tied for _, tied in stats)
        bound, allowance = tied_bound(cfg)
        checks.append(Check("tied-probability", tied / cfg.trials, "<=", bound, allowance))
        artifacts["mean_size"] = mean
        artifacts["window_frequency"] = freq
    else:
        artifacts["statistics"] = "skipped: p^nu exceeds the pointwise sampling cap"

    try:
        cert = lemma_search(cfg, max_retries=params["max-retries"])
        checks.append(_flag("certificate-reverify", cert.verify()))
        artifacts["certificate"] = {
            "size": len(cert.Lambda),
            "checked_subset_size": cert.checked_subset_size,
            "mode": cert.mode,
            "trial_found": cert.trial_found,
            "K": cert.K,
        }
    except SearchFailure as exc:  # an exhausted retry budget is a failed check
        checks.append(_flag("certificate-reverify", False))
        artifacts["search_error"] = str(exc)
    return checks, artifacts


def _run_theorem2(params, seed, pool):
    from .blocks import build_theorem2_prefix, pisier_ratio, theorem2_mesh_reports

    bc = build_theorem2_prefix(
        p=params["p"], w=params["w"], L=params["blocks"], seed=seed, nu_cap=params["nu-cap"]
    )
    checks = []
    for b in bc.blocks:
        ratio = float(pisier_ratio(bc, b.ell))
        checks.append(Check(f"pisier-ratio ell={b.ell}", ratio, ">=", float(b.ell)))
        checks.append(_flag(f"certificate-reverify ell={b.ell}", b.certificate.verify()))
    reports = theorem2_mesh_reports(
        bc,
        count=params["mesh-count"],
        seed=seed,
        k_choices=tuple(range(1, params["k-max"] + 1)),
        heights=tuple(range(1, params["h-max"] + 1)),
    )
    checks.append(_violations(reports))
    if params["export"]:
        bc.to_json(params["export"])
    artifacts = {
        "blocks": [
            {"ell": b.ell, "nu": b.nu, "size": b.size, "cap_bound": b.cap_bound}
            for b in bc.blocks
        ],
        "meshes_checked": len(reports),
    }
    return checks, artifacts


def _run_theorem3(params, seed, pool):
    from .spread import (
        PREFIX_ENUM_CAP,
        build_theorem3_prefix,
        pick_independent_subset,
        theorem3_mesh_reports,
        v_p_size,
        well_spread_check,
    )

    # the schedule is checked on the (h, k) grid that the meshes sample
    grid_h, grid_k = range(1, params["h-max"] + 1), range(1, params["k-max"] + 1)
    system = build_theorem3_prefix(
        w=params["w"], J=params["blocks"], seed=seed, grid_h=grid_h, grid_k=grid_k
    )
    checks = [Check(f"4*ell<p j={b.j}", float(4 * b.ell), "<", float(b.p)) for b in system.blocks]
    checks.append(_flag("beta-growth-distinctness", system.structurally_well_spread()))
    for b in system.blocks:
        basis = system.block_basis(b.j)
        # deepest prefix enumerable at the block's own prime; blocks whose
        # prime already exceeds the cap are enumerated at q = 37 instead
        depth = 0
        while b.p ** (depth + 1) <= PREFIX_ENUM_CAP and depth < len(basis):
            depth += 1
        if depth >= 1:
            ok = well_spread_check(basis[:depth], b.p, cap=PREFIX_ENUM_CAP)
            checks.append(_flag(f"well-spread-prefix j={b.j} q=p_j depth={depth}", ok))
        ok = well_spread_check(basis[:3], 37, cap=PREFIX_ENUM_CAP)
        checks.append(_flag(f"well-spread-prefix j={b.j} q=37 depth=3", ok))
    for b in system.blocks:
        for p_small in (3, 5):
            for size in (2, 4):
                got = v_p_size(pick_independent_subset(b, size), p_small)
                checks.append(Check(f"spread-identity j={b.j} p={p_small} size={size}",
                                    float(got), "==", float(p_small**size)))
    reports = theorem3_mesh_reports(system, count=params["mesh-count"], seed=seed)
    checks.append(_violations(reports))
    if params["export"]:
        system.to_json(params["export"])
    artifacts = {
        "schedule": {
            "ell": list(system.schedule.ells),
            "nu": list(system.schedule.nus),
            "p": list(system.schedule.ps),
        },
        "conditions_checked": len(system.conditions),
        "meshes_checked": len(reports),
    }
    return checks, artifacts


def _run_analyticity(params, seed, pool):
    import numpy as np

    from .spectral import FlatnessFailure, analyticity_witness, fwht, sample_flat_lambda

    nu, ell, budget = params["nu"], params["ell"], params["max-retries"]
    if params["rho"] > nu:
        raise ConfigError(f"--rho {params['rho']} exceeds --nu {nu}")
    rho = None if params["rho"] == -1 else params["rho"]
    try:
        sample = sample_flat_lambda(nu, ell, seed=seed, max_retries=budget, rho=rho)
    except FlatnessFailure as exc:  # an exhausted retry budget is a failed check
        # no flat sample within the budget: it needs at least budget + 1 draws
        checks = [Check("flat-sample-retries", float(budget + 1), "<=", float(budget))]
        return checks, {"search_error": str(exc)}
    report = analyticity_witness(sample)

    checks = [
        Check("flat-sample-retries", float(sample.retries_used), "<=", float(budget)),
        Check("spectrum-flatness", sample.sup_offpeak, "<=", sample.flatness_threshold),
        Check("lower-bound-vs-target", report.lower_bound, ">=", report.target),
        Check("lower-bound-vs-chain", report.lower_bound, ">=", report.chain_bound - 1e-9),
    ]
    if params["csv"]:
        import csv as _csv

        mags = np.abs(fwht(sample.mask.astype(np.float64)))  # the sample keeps no spectrum
        top = np.argsort(mags)[::-1][: params["top"]]
        with open(params["csv"], "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["mask", "magnitude"])
            for y in top:
                writer.writerow([int(y), float(mags[y])])
    artifacts = {"witness": report.to_dict()}
    return checks, artifacts, {"counters": sample.counters()}


def _run_appendix(params, seed, pool):
    import numpy as np

    from .tails import (
        DomainError,
        binomial_subgaussian_spec,
        binomial_tail_exact,
        check_mgf_inequality,
        concavity_margin,
        difference_tail_check,
        subgaussian_tail_bound,
    )

    alpha_grid = np.linspace(0.01, 0.99, params["alpha-points"])
    checks = []
    violation = check_mgf_inequality(alpha_grid, params["u-points"])
    checks.append(Check("mgf-inequality-max-violation", violation, "<=", 1e-12))
    concavity = concavity_margin(alpha_grid, params["u-points"])
    checks.append(Check("concavity-quadratic-max", concavity, "<=", 1e-12))

    tail = binomial_tail_exact(1024, 0.25, 128)
    bound = 2 * math.exp(-1024 * 0.25 / 32)
    checks.append(Check("half-mean-deviation N=1024", tail, "<=", bound))

    for N in (10, 50, 200, 1024):
        for alpha in (0.1, 0.25, 0.3, 0.5):
            spec = binomial_subgaussian_spec(N, alpha)
            for lam in (0.5, 1.0, 2.0, 4.0):
                one, two, ok = subgaussian_tail_bound(lam, spec)
                if not ok:
                    continue
                t = 2 * lam * math.sqrt(N * alpha * (1 - alpha))
                tail = binomial_tail_exact(N, alpha, t)
                checks.append(Check(f"binomial-tail N={N} a={alpha} lam={lam}", tail, "<=", two))
    for N in (100, 400, 2000):
        for alpha in (0.1, 0.3, 0.5):
            for lam in (0.5, 1.0, 2.0):
                try:
                    r = difference_tail_check(N, alpha, lam)
                except DomainError:  # lam outside the window: no claim to check
                    continue
                checks.append(Check(f"difference-tail N={N} a={alpha} lam={lam}", r.tail, "<=",
                                    r.bound))
    return checks, {"grid": {"alpha_points": params["alpha-points"], "u_points": params["u-points"]}}


_HANDLERS = {
    "verify-qi": _run_verify_qi,
    "theorem1": _run_theorem1,
    "mesh-report": _run_mesh_report,
    "select": _run_select,
    "theorem2": _run_theorem2,
    "theorem3": _run_theorem3,
    "analyticity-demo": _run_analyticity,
    "appendix-check": _run_appendix,
}


def run(config: ExperimentConfig) -> Report:
    """Dispatch to the owning module and assemble the report."""
    pool = Parallelism(config.threads)
    t0 = time.perf_counter()
    checks, artifacts, *meta = _HANDLERS[config.subcommand](config.params, config.seed, pool)
    return Report(
        config=config,
        checks=tuple(checks),
        artifacts=artifacts,
        runtime_seconds=time.perf_counter() - t0,
        meta=meta[0] if meta else {},
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        report = run(config)
        text = report.to_json()
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ConfigError, MemoryError, OSError) as exc:
        # a value no run can use, an exceeded cap (ResourceCapError is a
        # MemoryError), an unreadable input or unwritable report: bad usage
        print(f"sidonlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except Exception:
        # a bug (InternalError, a library assertion, any other exception),
        # not a finding: exit 1 would read as a failed check
        traceback.print_exc()
        return _INTERNAL_EXIT
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""sidonlab benchmark: real CLI invocations, run one at a time by one process.

    python3 perfbench/run.py --workload integer --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run it from the root of a source checkout; the program is taken from
``src/``.  One pass runs the workload's command list once, each command in
a fresh interpreter.  ``--trace 0`` times passes until ``--seconds`` have
gone by (at least one) and reports the end-to-end metrics as medians over
passes.  ``--trace 1`` runs one plain pass and one pass under
``trace_cli.py`` and reports the per-layer metrics.  Every invocation is
checked: exit status, ``all_passed``, the workload's own check, at the
default seed the SHA-256 of the report without ``meta``, and in a traced
run that the traced report hashes like the plain one.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACE_CLI = HERE / "trace_cli.py"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
SETUP_REPS = 3           # set-up passes per run, at least; setup_s is their median
SETUP_MIN_S = 10         # ... and as many more as fit in this many seconds
CALL_TIMEOUT_S = 150     # a hung invocation is killed and counted as failed
SETUP_CODE = "import sys; from sidonlab.cli import parse_config; parse_config(sys.argv[1:])"
LAYERS = ("cli", "core", "construction", "verify", "mesh", "selection", "growth",
          "blocks", "spread", "spectral", "tails", "rng", "parallel")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "passed_frac": "ratio",
}

PER_LAYER = [
    "verify.verify_qi_exhaustive.calls", "verify.verify_qi_exhaustive.s",
    "verify.verify_qi_exhaustive.points", "verify.verify_qi_exhaustive.dependent",
    "verify.verify_qi_structural.s",
    "construction.build_matrix.s", "construction.embed_theorem1.s",
    "construction.witness_counts.s",
    "mesh.mesh_count.fp.calls", "mesh.mesh_count.fp.s",
    "mesh.mesh_count.int.calls", "mesh.mesh_count.int.s", "mesh.mesh_count.cells",
    "mesh.check_mesh_condition.s", "mesh.random_meshes.s",
    "selection.sample_lambda.calls", "selection.sample_lambda.s",
    "selection.sample_lambda.points", "selection.estimate_tied_probability.s",
    "selection.lemma_search.pointwise.s", "selection.lemma_search.direct.s",
    "selection.lemma_search.attempts", "selection.lemma_search.accept_ratio",
    "blocks.build_theorem2_prefix.s", "blocks.theorem2_mesh_reports.s",
    "blocks.pisier_ratio.s",
    "spread.build_theorem3_prefix.s", "spread.well_spread_check.s", "spread.v_p_size.s",
    "spread.theorem3_mesh_reports.s",
    "spectral.fwht.calls", "spectral.fwht.float.s", "spectral.fwht.complex.s",
    "spectral.fwht.bytes_computed", "spectral.sample_flat_lambda.s",
    "spectral.sample_flat_lambda.retries", "spectral.analyticity_witness.s",
    "tails.check_mgf_inequality.s", "tails.difference_tail_check.s",
    "core.is_prime.calls", "core.fp_rank.calls", "core.fp_rank.s",
    "rng.stream.calls",
    "parallel.map.calls", "parallel.map.items", "parallel.map.s",
    *[f"import.sidonlab.{m}.s" for m in LAYERS],
    "trace.overhead_frac",
]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes_computed"):
        return "bytes"
    if name.endswith((".accept_ratio", ".overhead_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what a correct run of it looks like."""

    label: str
    argv: list[str]
    expect_exit: int = 0
    check: Optional[Callable[[dict], bool]] = None


def _write_json(name: str, data) -> str:
    path = WORK / name
    path.write_text(json.dumps(data))
    return str(path.relative_to(ROOT))


def integer_calls(seed: int) -> list[Call]:
    data = gen.integer_inputs(seed)
    qi = _write_json("qi_points.json", {"points": data["qi_points"]})
    dep = _write_json("dependent_points.json", {"points": data["dependent_points"]})
    meshes = _write_json("meshes.json", data["mesh_file"])
    common = ["--seed", str(seed), "--threads", "1"]
    dep_points, counts = data["dependent_points"], data["mesh_counts"]
    return [
        Call("theorem1", ["theorem1", *common]),
        Call("theorem3", ["theorem3", *common]),
        Call("verify-qi:independent", ["verify-qi", "--input", qi, *common],
             check=lambda r: r["artifacts"]["witness"] is None
             and r["artifacts"]["n"] == gen.QI_POINTS),
        Call("verify-qi:dependent", ["verify-qi", "--input", dep, *common], expect_exit=1,
             check=lambda r: gen.witness_ok(dep_points, r["artifacts"]["witness"])),
        Call("mesh-report", ["mesh-report", "--input", meshes, *common],
             check=lambda r: [m["count"] for m in r["artifacts"]["reports"]] == counts),
    ]


def finite_field_calls(seed: int) -> list[Call]:
    common = ["--seed", str(seed), "--threads", "2"]
    return [Call("select", ["select", *common]), Call("theorem2", ["theorem2", *common])]


def spectral_calls(seed: int) -> list[Call]:
    demos = [Call(f"analyticity-demo:{i}",
                  ["analyticity-demo", "--seed", str(seed + i), "--threads", "1"])
             for i in range(3)]
    return demos + [Call("appendix-check", ["appendix-check", "--seed", str(seed),
                                            "--threads", "1"])]


WORKLOADS = {
    "integer": integer_calls,
    "finite-field": finite_field_calls,
    "spectral": spectral_calls,
}


# ---------------------------------------------------------------------------
# running and checking invocations
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment, minus settings that would change what is
    measured: the thread default and disabled bytecode caching."""
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("SIDONLAB_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def report_hash(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "meta"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    cpu_s: float
    rss_mib: float
    report_hash: Optional[str]
    error: Optional[str]      # why the invocation counts as failed


def run_call(call: Call, cmd: list[str], pin: Optional[str]) -> Outcome:
    """Run one invocation to completion and judge its output."""
    out_path = WORK / "report.json"
    with open(out_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, None, None)
    try:
        report = json.loads(out_path.read_text())
    except ValueError:
        report = None
    if not isinstance(report, dict):
        outcome.error = f"exit {proc.returncode}, no JSON report"
        return outcome
    outcome.report_hash = report_hash(report)
    try:
        checked = call.check is None or call.check(report)
    except (KeyError, TypeError):
        checked = False
    if proc.returncode != call.expect_exit:
        outcome.error = f"exit {proc.returncode}, expected {call.expect_exit}"
    elif report.get("all_passed") is not (call.expect_exit == 0):
        outcome.error = f"all_passed is {report.get('all_passed')}"
    elif not checked:
        outcome.error = "independent check failed"
    elif pin is not None and outcome.report_hash != pin:
        outcome.error = f"report hash {outcome.report_hash} differs from the pinned {pin}"
    return outcome


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    call_wall_s: list = field(default_factory=list)
    hashes: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_pass(calls: list[Call], pins: dict, traced: bool = False) -> tuple[Pass, dict]:
    """Run every call once, in order; return the pass and, if traced, the
    summed per-function totals of its processes."""
    result, totals = Pass(), {}
    totals_path = WORK / "totals.json"
    start = time.perf_counter()
    for call in calls:
        if traced:
            cmd = [sys.executable, str(TRACE_CLI), str(totals_path), *call.argv]
        else:
            cmd = [sys.executable, "-m", "sidonlab.cli", *call.argv]
        call_start = time.perf_counter()
        outcome = run_call(call, cmd, pins.get(call.label))
        result.call_wall_s.append(time.perf_counter() - call_start)
        result.cpu_s += outcome.cpu_s
        result.peak_rss_mib = max(result.peak_rss_mib, outcome.rss_mib)
        result.hashes.append(outcome.report_hash)
        result.errors.append(outcome.error)
        if traced and totals_path.exists():
            for key, value in json.loads(totals_path.read_text()).items():
                totals[key] = totals.get(key, 0) + value
            totals_path.unlink()
    result.wall_s = time.perf_counter() - start
    return result, totals


def setup_seconds(calls: list[Call]) -> float:
    """Wall time of fresh interpreters that import the CLI and parse each
    call's arguments without running a handler, summed over the pass."""
    total = 0.0
    for call in calls:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *call.argv], cwd=ROOT,
                       env=child_env(), check=True, stdout=subprocess.DEVNULL)
        total += time.perf_counter() - start
    return total


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _is_sidonlab(module: str) -> bool:
    return module == "sidonlab" or module.startswith("sidonlab.")


def import_times(calls: list[Call]) -> tuple[dict[str, int], dict[str, list[int]]]:
    """`python -X importtime` of the set-up interpreters, summed over the pass.

    Returns (layer, raw).  layer[module] is a sidonlab module's own import
    time plus that of the third-party modules it imported first, in us; a
    nested sidonlab module keeps its own share.  raw[module] is
    [self us, cumulative us] as printed.
    """
    layer: dict[str, int] = {}
    raw: dict[str, list[int]] = {}
    for call in calls:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE,
                               *call.argv], cwd=ROOT, env=child_env(), check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        pending: list[tuple[int, int]] = []  # (depth, us not yet owned by a sidonlab module)
        for match in _IMPORTTIME.finditer(proc.stderr):
            own, cumulative = int(match.group(1)), int(match.group(2))
            depth, module = len(match.group(3)), match.group(4)
            entry = raw.setdefault(module, [0, 0])
            entry[0] += own
            entry[1] += cumulative
            while pending and pending[-1][0] > depth:  # children print before parents
                own += pending.pop()[1]
            if _is_sidonlab(module):
                layer[module] = layer.get(module, 0) + own
                own = 0
            pending.append((depth, own))
    return layer, raw


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def environment() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    record: dict


def _count_failures(label: str, calls: list[Call], passes: list[Pass]) -> int:
    failed = 0
    for p in passes:
        for call, error in zip(calls, p.errors):
            if error is not None:
                failed += 1
                print(f"FAILED {label} {call.label}: {error}", file=sys.stderr)
    return failed


def measure(calls: list[Call], pins: dict, seconds: float) -> Result:
    setup_runs: list[float] = []
    while len(setup_runs) < SETUP_REPS or sum(setup_runs) < SETUP_MIN_S:
        setup_runs.append(setup_seconds(calls))
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(calls, pins)[0])
    attempted = len(calls) * len(passes)
    failed = _count_failures("pass", calls, passes)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mib": statistics.median(p.peak_rss_mib for p in passes),
        "passed_frac": (attempted - failed) / attempted,
    }
    record = {"passes": len(passes), "setup_runs_s": setup_runs,
              "pass_wall_s": [p.wall_s for p in passes],
              "call_wall_s": [dict(zip((c.label for c in calls), p.call_wall_s))
                              for p in passes],
              "report_sha256": dict(zip((c.label for c in calls), passes[0].hashes))}
    return Result(metrics, attempted, failed, record)


def trace(calls: list[Call], pins: dict) -> Result:
    plain = run_pass(calls, pins)[0]
    traced, totals = run_pass(calls, pins, traced=True)
    failed = _count_failures("plain", calls, [plain]) + _count_failures("traced", calls, [traced])
    for call, a, b in zip(calls, plain.hashes, traced.hashes):
        if a != b:
            failed += 1
            print(f"FAILED traced {call.label}: report hash {b} differs from plain {a}",
                  file=sys.stderr)
    layer_us, raw_us = import_times(calls)
    for layer in LAYERS:
        totals[f"import.sidonlab.{layer}.s"] = layer_us.get(f"sidonlab.{layer}", 0) / 1e6
    searches = totals.get("selection.lemma_search.calls", 0)
    attempts = totals.get("selection.lemma_search.attempts", 0)
    totals["selection.lemma_search.accept_ratio"] = searches / attempts if attempts else 0.0
    totals["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1
    metrics = {name: totals.get(name, 0) for name in PER_LAYER}
    heaviest = {name for name, _ in sorted(raw_us.items(), key=lambda kv: -kv[1][1])[:12]}
    record = {
        "plain_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "report_sha256": dict(zip((c.label for c in calls), plain.hashes)),
        "importtime_us": {name: {"self": s, "cumulative": c}
                          for name, (s, c) in sorted(raw_us.items())
                          if _is_sidonlab(name) or name in heaviest},
        "import_layer_us": layer_us,
    }
    return Result(metrics, 2 * len(calls), failed, record)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Result:
    WORK.mkdir(parents=True, exist_ok=True)
    calls = WORKLOADS[name](seed)
    pins = json.loads(PINS.read_text()).get(name, {}) if seed == DEFAULT_SEED else {}
    result = trace(calls, pins) if traced else measure(calls, pins, seconds)
    result.record = {"workload": name, "seed": seed, **result.record}
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sidonlab" / "cli.py").is_file():
        print(f"perfbench: no sidonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    metrics = {}
    for name, result in results.items():
        print("record " + json.dumps(result.record, sort_keys=True))
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in result.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
            print(f"{name:13s} {metric:44s} {value:14.6g} {unit_of(metric)}")
        print(f"{name:13s} {'failed_frac':44s} {result.failed / result.attempted:14.6g} "
              f"ratio  ({result.failed} of {result.attempted} invocations)")
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

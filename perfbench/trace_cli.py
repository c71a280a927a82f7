"""Run one sidonlab CLI invocation with timers on the functions that the
benchmark's per-layer metrics name, then write the totals as JSON.

    PYTHONPATH=src python3 perfbench/trace_cli.py TOTALS.json SUBCOMMAND [FLAGS...]

The wrappers are installed from here, not inside the program.  Each one is
bound wherever a sidonlab module references the function, including names
brought in with ``from ... import``.  Times are self times: a wrapper
subtracts the time its wrapped callees spent on the same thread.  A call to
a function that is already running on the thread (``mesh_count`` falling
back to itself) is folded into the outer call.  ``Parallelism.map`` runs
its items on worker threads when it has more than one, so its self time
then includes the wait for them.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mesh_count(args, kwargs, result):
    from sidonlab.core import FpVector

    mesh = _arg(args, kwargs, 1, "mesh")
    route = "fp" if all(isinstance(b, FpVector) for b in mesh.basis) else "int"
    return route, {"cells": mesh.domain_size()}


def _fwht(args, kwargs, result):
    n = result.shape[0]
    route = "complex" if result.dtype.kind == "c" else "float"
    return route, {"bytes_computed": n * result.itemsize * 2 * int(math.log2(n))}


def _lemma_search(args, kwargs, result):
    route = "direct" if result.mode == "direct" else "pointwise"
    return route, {"attempts": result.trial_found + 1}


def _verify_qi(args, kwargs, result):
    elements = _arg(args, kwargs, 0, "elements")
    return None, {"points": len(elements), "dependent": int(not result[0])}


# (module, attribute, metric prefix, what to record from a finished call)
TIMED = [
    ("verify", "verify_qi_exhaustive", "verify.verify_qi_exhaustive", _verify_qi),
    ("verify", "verify_qi_structural", "verify.verify_qi_structural", None),
    ("construction", "build_matrix", "construction.build_matrix", None),
    ("construction", "embed_theorem1", "construction.embed_theorem1", None),
    ("construction", "witness_counts", "construction.witness_counts", None),
    ("mesh", "mesh_count", "mesh.mesh_count", _mesh_count),
    ("mesh", "check_mesh_condition", "mesh.check_mesh_condition", None),
    ("mesh", "random_meshes", "mesh.random_meshes", None),
    ("selection", "sample_lambda", "selection.sample_lambda",
     lambda a, k, r: (None, {"points": len(r)})),
    ("selection", "estimate_tied_probability", "selection.estimate_tied_probability", None),
    ("selection", "lemma_search", "selection.lemma_search", _lemma_search),
    ("blocks", "build_theorem2_prefix", "blocks.build_theorem2_prefix", None),
    ("blocks", "theorem2_mesh_reports", "blocks.theorem2_mesh_reports", None),
    ("blocks", "pisier_ratio", "blocks.pisier_ratio", None),
    ("spread", "build_theorem3_prefix", "spread.build_theorem3_prefix", None),
    ("spread", "well_spread_check", "spread.well_spread_check", None),
    ("spread", "v_p_size", "spread.v_p_size", None),
    ("spread", "theorem3_mesh_reports", "spread.theorem3_mesh_reports", None),
    ("spectral", "fwht", "spectral.fwht", _fwht),
    ("spectral", "sample_flat_lambda", "spectral.sample_flat_lambda",
     lambda a, k, r: (None, {"retries": r.retries_used})),
    ("spectral", "analyticity_witness", "spectral.analyticity_witness", None),
    ("tails", "check_mgf_inequality", "tails.check_mgf_inequality", None),
    ("tails", "difference_tail_check", "tails.difference_tail_check", None),
    ("core", "fp_rank", "core.fp_rank", None),
    ("parallel", "Parallelism.map", "parallel.map",
     lambda a, k, r: (None, {"items": operator.length_hint(r)})),
]

# Called too often to time without distorting their callers: counted only.
COUNTED = [
    ("core", "is_prime", "core.is_prime"),
    ("rng", "stream", "rng.stream"),
]


class Tracer:
    """Per-metric totals shared by every thread of the traced process."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _add(self, items) -> None:
        with self._lock:
            for key, value in items:
                self.totals[key] += value

    def timed(self, prefix, fn, after):
        local = self._local

        def wrapper(*args, **kwargs):
            if not hasattr(local, "active"):
                local.active, local.stack = set(), []
            if prefix in local.active:
                return fn(*args, **kwargs)
            local.active.add(prefix)
            local.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                own = elapsed - local.stack.pop()
                if local.stack:
                    local.stack[-1] += elapsed
                local.active.discard(prefix)
                self._add(((prefix + ".calls", 1), (prefix + ".s", own)))
            if after is not None:
                route, counts = after(args, kwargs, result)
                items = [(f"{prefix}.{k}", v) for k, v in counts.items()]
                if route is not None:
                    items += [(f"{prefix}.{route}.calls", 1), (f"{prefix}.{route}.s", own)]
                self._add(items)
            return result

        return wrapper

    def counted(self, prefix, fn):
        key = prefix + ".calls"

        def wrapper(*args, **kwargs):
            self._add(((key, 1),))
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace each listed function in every sidonlab module that holds it."""
    import importlib

    import sidonlab.cli  # noqa: F401  (imports every sidonlab module)

    modules = [m for name, m in sys.modules.items()
               if name == "sidonlab" or name.startswith("sidonlab.")]

    def replace(mod_name, attr, make):
        owner = importlib.import_module(f"sidonlab.{mod_name}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, name, make(getattr(cls, name)))
            return
        original = getattr(owner, name)
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    for mod_name, attr, prefix, after in TIMED:
        replace(mod_name, attr, lambda fn: tracer.timed(prefix, fn, after))
    for mod_name, attr, prefix in COUNTED:
        replace(mod_name, attr, lambda fn: tracer.counted(prefix, fn))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from sidonlab.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.totals, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

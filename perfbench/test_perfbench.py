"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
from trace_cli import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_generator_is_deterministic_per_seed(seed):
    assert gen.integer_inputs(seed) == gen.integer_inputs(seed)


def test_generator_depends_on_the_seed():
    assert gen.integer_inputs(1)["qi_points"] != gen.integer_inputs(2)["qi_points"]


def test_generated_sets_have_the_promised_shape():
    data = gen.integer_inputs(3)
    for points in (sorted(data["qi_points"]), data["mesh_file"]["lambda"]):
        assert all(x > 5 * sum(points[:i]) for i, x in enumerate(points))
    dep = data["dependent_points"]
    assert len(dep) == gen.DEP_POINTS and all(0 < x < gen.DEP_BOUND for x in dep)
    # pigeonhole: more subsets than possible subset sums
    assert 2 ** len(dep) > len(dep) * gen.DEP_BOUND
    meshes = data["mesh_file"]["meshes"]
    lam = data["mesh_file"]["lambda"]
    assert len(meshes) == len(data["mesh_counts"]) == gen.MESH_COUNT
    digit = [m for m in meshes if gen.digit_route_applies(m["basis"], m["height"])]
    assert all(set(m["basis"]) <= set(lam) for m in digit)
    assert len(digit) >= gen.MESH_COUNT // 2


def test_witness_check_rejects_wrong_witnesses():
    points = [3, 5, 8, 13]
    assert gen.witness_ok(points, [1, 1, -1, 0])
    assert gen.witness_ok(points, [-1, -1, 1, 0])
    assert not gen.witness_ok(points, [1, -1, 1, 0])      # sum is 6
    assert not gen.witness_ok(points, [0, 0, 0, 0])       # zero vector
    assert not gen.witness_ok(points, [1, 1, -1])         # wrong length
    assert not gen.witness_ok(points, [2, 0, 0, 0, 0])    # wrong length and entry
    assert not gen.witness_ok([1, 2, 4], [2, -1, 0])      # entry outside {-1, 0, 1}
    assert not gen.witness_ok(points, [True, True, -1, 0])
    assert not gen.witness_ok(points, None)


def test_box_count_on_hand_sized_meshes():
    # basis {1, 2}, height 1: sums are -3..3
    assert gen.box_count([1, 2, 3, 10], [1, 2], 1) == 3
    # basis {3, 10}, height 1: sums 0, ±3, ±7, ±10, ±13
    assert gen.box_count([1, 3, 7, 10, 13, 14], [3, 10], 1) == 4
    # height 2 adds ±6, ±20, ±4, ±16, ±17, ±23, ±26 ...
    assert gen.box_count([4, 6, 16, 26, 27], [3, 10], 2) == 4


def test_digit_route_condition():
    assert gen.digit_route_applies([1, 10, 100], 2)
    assert not gen.digit_route_applies([1, 4], 2)     # 2 * 2 * 1 >= 4
    assert not gen.digit_route_applies([5, 5], 1)     # not distinct
    assert not gen.digit_route_applies([-1, 10], 1)


def test_metric_names_and_the_benchmark_file_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END) and layer == run.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        assert metric["unit"] == run.unit_of(metric["name"])
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_excludes_wrapped_callees_and_folds_recursion():
    tracer = Tracer()

    def child():
        time.sleep(0.05)

    def parent(depth):
        time.sleep(0.02)
        child()
        if depth:
            parent(depth - 1)

    child = tracer.timed("child", child, None)
    parent = tracer.timed("parent", parent, None)
    parent(1)
    totals = tracer.totals
    assert totals["parent.calls"] == 1 and totals["child.calls"] == 2
    assert 0.04 <= totals["parent.s"] < 0.09
    assert totals["child.s"] >= 0.1

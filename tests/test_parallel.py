import json

import pytest

from sidonlab.core import ConfigError
from sidonlab.parallel import THREADS_MAX, Parallelism


def test_serial_and_threaded_maps_agree():
    items = list(range(50))
    serial = list(Parallelism(1).map(lambda x: x * x, items))
    threaded = list(Parallelism(4).map(lambda x: x * x, items))
    assert serial == threaded == [x * x for x in items]


def test_chunked_maps_keep_input_order():
    # item counts not a multiple of the threads, and fewer items than threads
    for threads in (2, 3, 4, 8):
        for n in (0, 1, 2, 3, 5, 7, 10, 11):
            assert list(Parallelism(threads).map(lambda x: -x, range(n))) == [-x for x in range(n)]


def test_pool_takes_a_positive_count():
    assert Parallelism(3).threads == 3
    for bad in (0, -2):
        with pytest.raises(ValueError):
            Parallelism(bad)


def test_threaded_cli_report_matches_serial():
    from sidonlab.cli import parse_config, run

    base = ["select", "--trials", "120", "--ell", "1", "--seed", "5"]
    serial = run(parse_config(base)).to_dict()
    threaded = run(parse_config(base + ["--threads", "4"])).to_dict()
    for report in (serial, threaded):
        report.pop("meta")
        report["provenance"].pop("threads")
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)


def test_threads_above_the_ceiling_are_refused_before_any_work(tmp_path):
    # only parse_config sees these values: no pool of that size is started
    from sidonlab.cli import parse_config

    assert parse_config(["select", "--threads", str(THREADS_MAX)]).threads == THREADS_MAX
    for bad in (THREADS_MAX + 1, 10**6):
        with pytest.raises(ConfigError, match=f"--threads must be <= {THREADS_MAX}"):
            parse_config(["select", "--threads", str(bad)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads={THREADS_MAX + 1}\n")
    with pytest.raises(ConfigError, match="--threads must be <="):
        parse_config(["theorem1", "--config", str(cfg)])


def test_threads_below_one_are_refused():
    from sidonlab.cli import main

    assert main(["theorem1", "--threads", "0"]) == 2

import json

from sidonlab.parallel import ENV_VAR, Parallelism, default_threads


def test_serial_and_threaded_maps_agree():
    items = list(range(50))
    serial = list(Parallelism(1).map(lambda x: x * x, items))
    threaded = list(Parallelism(4).map(lambda x: x * x, items))
    assert serial == threaded == [x * x for x in items]


def test_env_var_fallback(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "3")
    assert default_threads() == 3
    assert Parallelism(None).threads == 3
    for junk in ("junk", "²", "0", "-2", "+2", "2.0", "1_0"):  # '²'.isdigit() is True
        monkeypatch.setenv(ENV_VAR, junk)
        assert default_threads() == 1


def test_threaded_cli_report_matches_serial():
    from sidonlab.cli import parse_config, run

    base = ["select", "--trials", "120", "--ell", "1", "--seed", "5"]
    serial = run(parse_config(base)).to_dict()
    threaded = run(parse_config(base + ["--threads", "4"])).to_dict()
    for report in (serial, threaded):
        report.pop("meta")
        report["provenance"].pop("threads")
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)


def test_threads_zero_is_resolved_by_the_pool_alone(monkeypatch):
    import sidonlab.cli
    from sidonlab.cli import parse_config, run

    seen = []

    def handler(params, seed, pool):
        seen.append(pool.threads)
        return [], {}

    monkeypatch.setitem(sidonlab.cli._HANDLERS, "theorem1", handler)
    monkeypatch.setenv(ENV_VAR, "2")
    config = parse_config(["theorem1", "--threads", "0"])
    assert config.threads == 0  # left for Parallelism to resolve
    run(config)
    assert seen == [2]

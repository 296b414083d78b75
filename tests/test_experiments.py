"""Experiment harness tests: config resolution, runs, output files, CLI."""

from __future__ import annotations

import csv
import gc
import json
from dataclasses import replace

import pytest

from nebcast.errors import ConfigurationError
from nebcast.experiments import cli
from nebcast.experiments.cli import main
from nebcast.experiments.config import (
    PROFILES,
    SCENARIOS,
    ScenarioConfig,
    build_config,
    config_as_dict,
    load_config_file,
    parse_set_overrides,
)
from nebcast.experiments import runner, scenarios
from nebcast.experiments.runner import DISTURBANCES, RunSpec, execute_run
from nebcast.experiments.scenarios import (
    CSV_HEADER,
    _bundle,
    _percentile,
    emit_results,
    run_scenario,
)


def _tiny_audit_config(n: int = 8, seed: int = 1) -> ScenarioConfig:
    return build_config(scenario="faultfree_audit", overrides={"n_nodes": n, "seed": seed})


def test_percentile_nearest_rank():
    values = [10, 20, 30, 40]
    assert _percentile(values, 50) == 20
    assert _percentile(values, 90) == 40
    assert _percentile(values, 99) == 40
    assert _percentile([7], 50) == 7
    assert _percentile([], 50) is None


def test_build_config_applies_scenario_defaults():
    cfg = build_config(scenario="latency")
    assert cfg.betas == (1, 2, 3)
    assert cfg.interval_ms == 2
    assert cfg.repeats == 1
    assert cfg.disturbance == "none"
    cfg = build_config(scenario="coverage_offline")
    assert cfg.disturbance == "churn_once"
    assert cfg.betas == (1, 2, 3, 4)
    cfg = build_config(scenario="coverage_refuse")
    assert cfg.disturbance == "refuse_half"


def test_build_config_profile_and_override_order():
    cfg = build_config(scenario="coverage_offline", profile="large_smoke")
    assert (cfg.n_nodes, cfg.repeats, cfg.rounds_per_node) == (1000, 1, 1)
    assert cfg.betas == (2,)
    cfg = build_config(
        scenario="coverage_offline",
        profile="large_smoke",
        overrides={"n_nodes": "300"},
    )
    assert cfg.n_nodes == 300  # --set wins over the profile
    assert "large" in PROFILES and "desk" in PROFILES


def test_build_config_requires_scenario():
    with pytest.raises(ConfigurationError):
        build_config()
    with pytest.raises(ConfigurationError):
        build_config(scenario="warp_drive")
    with pytest.raises(ConfigurationError):
        build_config(scenario="latency", profile="huge")


def test_config_validation_messages_name_the_field():
    cases = [
        ("n_nodes", {"n_nodes": "1"}),
        ("address_bits", {"address_bits": "0"}),
        ("address_bits", {"address_bits": "161"}),
        # more nodes than the width has ids
        ("n_nodes", {"n_nodes": "17", "address_bits": "4"}),
        ("bucket_capacity", {"bucket_capacity": "6"}),
        ("data_msg_bytes", {"data_msg_bytes": "-1"}),
        ("confirm_msg_bytes", {"confirm_msg_bytes": "-1"}),
        ("betas", {"betas": "0,1"}),
        ("interval_ms", {"interval_ms": "0"}),
        ("repeats", {"repeats": "0"}),
        ("variants", {"variants": "baseline,evil"}),
        ("disturbance", {"disturbance": "meteor"}),
    ]
    for field, overrides in cases:
        with pytest.raises(ConfigurationError) as err:
            build_config(scenario="coverage_offline", overrides=overrides)
        assert field in str(err.value)


def test_scenario_disturbance_pairing_is_enforced():
    rejected = [
        ("latency", "churn_once"),
        ("coverage_refuse", "churn_once"),
        ("coverage_offline", "none"),
        # gossip never reads refuses_relay, so a refuse_half cell would be mislabelled
        ("gossip_sweep", "refuse_half"),
        ("gossip_sweep", "churn_periodic"),
        # the audit's invariants hold only on a fault-free network
        ("faultfree_audit", "churn_once"),
    ]
    for scenario, disturbance in rejected:
        with pytest.raises(ConfigurationError) as err:
            build_config(scenario=scenario, overrides={"disturbance": disturbance})
        assert "disturbance" in str(err.value)


def test_run_spec_rejects_unknown_disturbance_and_idle_period():
    # the benchmark and the tests build RunSpecs directly, past
    # ScenarioConfig's checks; a misspelled disturbance used to run
    # fault-free, and a churn_periodic period below 1 μs would never
    # advance the loop that schedules the disturbances (so no run here)
    base = dict(n_nodes=16, variant="baseline", redundancy=1, rounds_per_node=1,
                interval_us=50_000, seed=1)
    with pytest.raises(ConfigurationError) as err:
        RunSpec(**base, disturbance="churn_perodic")
    assert "churn_perodic" in str(err.value)
    for period in (0, -1):
        with pytest.raises(ConfigurationError) as err:
            RunSpec(**base, disturbance="churn_periodic", disturbance_period_us=period)
        assert "disturbance_period_us" in str(err.value)
    for disturbance in DISTURBANCES:
        RunSpec(**base, disturbance=disturbance)
    # only periodic churn reads the period
    RunSpec(**base, disturbance="churn_once", disturbance_period_us=0)
    # the engine's protocol check runs when the spec is built, before
    # any bootstrap
    for key, value in (("variant", "flood"), ("redundancy", 0), ("redundancy", -2)):
        with pytest.raises(ConfigurationError) as err:
            RunSpec(**{**base, key: value})
        assert key in str(err.value)
    for variant in ("baseline", "ne", "gossip"):
        RunSpec(**{**base, "variant": variant})


def test_run_spec_rejects_an_empty_or_backward_schedule():
    # a negative interval launched broadcasts before the churn at 0, and
    # no rounds, no broadcasts or a negative horizon ran with no records
    base = dict(n_nodes=16, variant="ne", redundancy=2, rounds_per_node=1,
                interval_us=50_000, seed=1)
    bad = [
        ("interval_us", -50_000), ("interval_us", 0), ("rounds_per_node", 0),
        ("total_broadcasts", 0), ("total_broadcasts", -3), ("horizon_us", -5),
        # the last of 16 launches would be past the engine's "never"
        ("interval_us", 1 << 62),
    ]
    for key, value in bad:
        with pytest.raises(ConfigurationError) as err:
            RunSpec(**{**base, key: value})
        assert key in str(err.value)
    RunSpec(**{**base, "interval_us": 1, "total_broadcasts": 1, "horizon_us": 0})
    RunSpec(**{**base, "interval_us": (1 << 62) - 1, "total_broadcasts": 2})
    with pytest.raises(ConfigurationError, match="interval_us"):
        RunSpec(**{**base, "interval_us": 1 << 61, "total_broadcasts": 3})


def test_configs_check_the_network_sizes_when_built():
    # RunSpec and ScenarioConfig take the sizes and their checks from
    # NetworkConfig, so a bad size fails before execute_run starts
    base = dict(n_nodes=16, variant="ne", redundancy=2, rounds_per_node=1,
                interval_us=50_000, seed=1)
    bad = [
        ("address_bits", 0), ("address_bits", 161), ("bucket_capacity", 6),
        ("data_msg_bytes", -1), ("n_nodes", 0),
    ]
    for key, value in bad:
        with pytest.raises(ConfigurationError) as err:
            RunSpec(**{**base, key: value})
        assert key in str(err.value)
    # a replaced config is checked again
    with pytest.raises(ConfigurationError) as err:
        replace(build_config(scenario="latency"), repeats=0)
    assert "repeats" in str(err.value)


def test_execute_run_leaves_the_collector_as_it_found_it(monkeypatch):
    spec = RunSpec(n_nodes=8, variant="ne", redundancy=2, rounds_per_node=1, interval_us=1000, seed=1)
    seen = []
    bootstrap = runner.bootstrap_topology

    def watched_bootstrap(*args, **kwargs):
        seen.append(gc.isenabled())
        return bootstrap(*args, **kwargs)

    monkeypatch.setattr(runner, "bootstrap_topology", watched_bootstrap)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            execute_run(spec)
            assert gc.isenabled() is enabled
        # the pause already covers the bootstrap
        assert seen == [False, False]

        def failing_bootstrap(*args, **kwargs):
            raise ConfigurationError("no overlay")

        monkeypatch.setattr(runner, "bootstrap_topology", failing_bootstrap)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ConfigurationError, match="no overlay"):
                execute_run(spec)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_grid_keys_reject_repeated_entries(tmp_path, capsys):
    # a repeated entry would run the same cell twice, with CSV rows that
    # cannot be told apart
    for field, repeated in (("betas", "1,1"), ("fanouts", "2,3,2"), ("variants", "ne,ne")):
        with pytest.raises(ConfigurationError) as err:
            build_config(scenario="coverage_offline", overrides={field: repeated})
        assert field in str(err.value)
    code = main(
        [
            "simulate",
            "--scenario",
            "latency",
            "--set",
            "network.n_nodes=16",
            "--set",
            "broadcast.betas=1,1",
            "--set",
            "experiment.variants=ne,ne",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_parse_set_overrides():
    flat = parse_set_overrides(["network.n_nodes=50", "seed=9", "broadcast.betas=1,2"])
    assert flat == {"n_nodes": "50", "seed": "9", "betas": "1,2"}
    with pytest.raises(ConfigurationError):
        parse_set_overrides(["n_nodes"])
    with pytest.raises(ConfigurationError):
        parse_set_overrides(["broadcast.n_nodes=50"])  # wrong section
    with pytest.raises(ConfigurationError):
        parse_set_overrides(["network.mtu=1500"])


def test_config_file_round_trip(tmp_path):
    cfg = build_config(
        scenario="coverage_offline",
        overrides={"n_nodes": "64", "repeats": "2", "betas": "1,2", "seed": "5"},
    )
    path = tmp_path / "scenario.yaml"
    import yaml

    path.write_text(yaml.safe_dump(config_as_dict(cfg)), encoding="utf-8")
    loaded = build_config(file_values=load_config_file(path))
    assert loaded == cfg


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scenario: latency\nrouting:\n  mtu: 9000\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config_file(path)
    path.write_text("scenario: latency\nnetwork:\n  mtu: 9000\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config_file(path)
    with pytest.raises(ConfigurationError):
        load_config_file(tmp_path / "missing.yaml")


def test_config_file_reads_an_empty_section_as_no_keys(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "scenario: latency\nnetwork:\n  # n_nodes: 500\nbroadcast:\nexperiment:\n  repeats: 2\n",
        encoding="utf-8",
    )
    assert load_config_file(path) == {"scenario": "latency", "repeats": 2}


@pytest.mark.parametrize("body", ["- a", "[]", "0", "false", "''"])
def test_config_file_must_hold_a_mapping_at_the_top_level(tmp_path, capsys, body):
    path = tmp_path / "bad.yaml"
    path.write_text(f"{body}\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="config file must hold a mapping at the top level"):
        load_config_file(path)
    out_dir = tmp_path / "results"
    argv = ["simulate", "--config", str(path), "--scenario", "faultfree_audit",
            "--set", "network.n_nodes=4", "--out", str(out_dir)]
    assert main(argv) == 2
    assert "config file must hold a mapping at the top level" in capsys.readouterr().err
    assert not out_dir.exists()
    # only a null document, an empty or comment-only file, reads as no keys
    path.write_text("# nothing set\n", encoding="utf-8")
    assert load_config_file(path) == {}
    path.write_text("", encoding="utf-8")
    assert load_config_file(path) == {}


@pytest.mark.parametrize("body", ["network: 64", "network: [n_nodes]", "experiment: churn_once"])
def test_config_file_rejects_a_section_that_is_not_a_mapping(tmp_path, body):
    path = tmp_path / "bad.yaml"
    path.write_text(f"scenario: latency\n{body}\n", encoding="utf-8")
    section = body.split(":")[0]
    with pytest.raises(ConfigurationError, match=f"config section {section} must be a mapping"):
        load_config_file(path)


@pytest.mark.parametrize(
    "section,line,field",
    [
        ("network", "n_nodes: 64.99", "n_nodes"),
        ("broadcast", "interval_ms: 2.5", "interval_ms"),
        ("experiment", "repeats: true", "repeats"),
        ("broadcast", "betas: [1.9, 2]", "betas"),
        ("broadcast", "fanouts: [2, true]", "fanouts"),
        ("experiment", "horizon_s: 2.5", "horizon_s"),
        ("experiment", "horizon_s: true", "horizon_s"),
    ],
)
def test_config_file_rejects_truncated_numbers(tmp_path, section, line, field):
    # YAML numbers and booleans must not be cut down to integers
    path = tmp_path / "bad.yaml"
    path.write_text(f"scenario: coverage_offline\n{section}:\n  {line}\n", encoding="utf-8")
    with pytest.raises(ConfigurationError) as err:
        build_config(file_values=load_config_file(path))
    assert field in str(err.value)


def test_config_file_accepts_whole_numbers(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(
        "scenario: coverage_offline\nnetwork:\n  n_nodes: 64.0\n"
        "broadcast:\n  betas: [1, 2.0]\nexperiment:\n  horizon_s: 30.0\n",
        encoding="utf-8",
    )
    cfg = build_config(file_values=load_config_file(path))
    assert (cfg.n_nodes, cfg.betas, cfg.horizon_s) == (64, (1, 2), 30)
    assert isinstance(cfg.n_nodes, int) and isinstance(cfg.horizon_s, int)


def test_emit_results_empty_bundle_writes_header_only(tmp_path):
    cfg = _tiny_audit_config()
    bundle = _bundle(cfg, [], [])
    csv_path, json_path = emit_results(bundle, tmp_path / "out")
    assert csv_path.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["cells"] == []
    assert doc["config"]["scenario"] == "faultfree_audit"


def test_faultfree_audit_bundle_checks_pass():
    bundle = run_scenario(_tiny_audit_config(n=8))
    assert bundle["checks"], "audit must emit its checklist"
    for check in bundle["checks"]:
        assert check["passed"], check
    # 8 nodes, one broadcast per node per variant: 7 transmissions each
    for cell in bundle["cells"]:
        broadcasts = cell["broadcasts_per_repeat"] * cell["repeats"]
        assert cell["transmissions"]["data"] == 7 * broadcasts
        assert cell["coverage_pct"] == 100.0


def test_scenario_rows_and_csv_shape(tmp_path):
    cfg = build_config(
        scenario="latency",
        overrides={"n_nodes": "8", "rounds_per_node": "1", "betas": "1", "seed": "3"},
    )
    bundle = run_scenario(cfg)
    csv_path, json_path = emit_results(bundle, tmp_path / "out")
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_HEADER)
    body = rows[1:]
    assert len(body) == 8 * 2  # 8 broadcasts for each of the two variants
    for row in body:
        assert row[2] in ("baseline", "ne")
        assert row[3] == "1"
        assert row[5] in ("true", "false")
        if row[5] == "true":
            assert int(row[4]) >= 0
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert "rows" not in doc
    assert len(doc["cells"]) == 2


def test_emit_results_byte_identical_across_reruns(tmp_path):
    cfg = _tiny_audit_config(n=16, seed=4)
    first = emit_results(run_scenario(cfg), tmp_path / "a")
    second = emit_results(run_scenario(cfg), tmp_path / "b")
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_gossip_sweep_includes_flooding_cell():
    cfg = build_config(
        scenario="gossip_sweep",
        overrides={
            "n_nodes": "30",
            "fanouts": "1,2",
            "repeats": "2",
            "flood_check_broadcasts": "5",
            "seed": "2",
        },
    )
    bundle = run_scenario(cfg)
    assert len(bundle["cells"]) == 3
    flood = bundle["cells"][-1]
    assert flood.get("flooding") is True
    assert flood["coverage_pct"] == 100.0
    sweep = [cell["coverage_pct"] for cell in bundle["cells"][:-1]]
    assert sweep[0] <= sweep[1]


def test_gossip_sweep_rejects_the_flooding_cells_fanout():
    # the flooding cell runs at fanout n_nodes - 1 and keys its rows by it,
    # so a sweep cell of that fanout would write rows under the same key
    overrides = {"n_nodes": "10", "fanouts": "1,9"}
    with pytest.raises(ConfigurationError) as err:
        build_config(scenario="gossip_sweep", overrides=overrides)
    assert "fanouts" in str(err.value) and "flood_check_broadcasts" in str(err.value)
    # the default fanouts hold n_nodes - 1 at these sizes
    for n in (2, 3, 4, 5, 7, 9):
        with pytest.raises(ConfigurationError):
            build_config(scenario="gossip_sweep", overrides={"n_nodes": str(n)})
    build_config(scenario="gossip_sweep", overrides={**overrides, "flood_check_broadcasts": "0"})
    build_config(scenario="gossip_sweep", overrides={"n_nodes": "10", "fanouts": "1,8"})
    build_config(scenario="gossip_sweep", overrides={"n_nodes": "8"})
    # no other scenario runs a flooding cell
    build_config(scenario="faultfree_audit", overrides=overrides)


def test_cli_audit_exits_zero(capsys):
    assert main(["audit", "--n", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


def _fail_first_audit_check(monkeypatch) -> None:
    audit_checks = scenarios._audit_checks

    def failing(cfg, runs):
        checks = audit_checks(cfg, runs)
        checks[0]["passed"] = False
        return checks

    monkeypatch.setattr(scenarios, "_audit_checks", failing)


def test_cli_audit_reports_failed_checks(capsys, monkeypatch):
    _fail_first_audit_check(monkeypatch)
    assert main(["audit", "--n", "8", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] all broadcasts complete [baseline beta=1]" in captured.out
    assert "all 7 checks passed" not in captured.out
    assert "error: 1 of 7 audit checks failed" in captured.err


def test_cli_simulate_reports_failed_audit_checks(tmp_path, capsys, monkeypatch):
    args = ["simulate", "--scenario", "faultfree_audit", "--set", "network.n_nodes=8"]
    with monkeypatch.context() as patch:
        _fail_first_audit_check(patch)
        assert main([*args, "--out", str(tmp_path / "forced")]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] all broadcasts complete [baseline beta=1]" in captured.out
    assert "error: 1 of 7 audit checks failed" in captured.err


def test_cli_simulate_rejects_a_horizon_for_the_audit(tmp_path, capsys):
    # a run cut at a horizon cannot meet the audit's delivery invariants
    args = ["simulate", "--scenario", "faultfree_audit", "--set", "network.n_nodes=8"]
    code = main([*args, "--set", "experiment.horizon_s=1", "--out", str(tmp_path / "cut")])
    assert code == 2
    captured = capsys.readouterr()
    assert "configuration error: horizon_s" in captured.err
    assert "audit checks failed" not in captured.err and not (tmp_path / "cut").exists()


def test_cli_simulate_rejects_a_launch_past_the_engine_clock(tmp_path, capsys):
    # the second of four launches at 10^19 us lay past the engine's
    # "never", so every cell kept only its first broadcast and the run
    # reported a horizon it did not have
    args = ["simulate", "--scenario", "latency", "--set", "network.n_nodes=4",
            "--set", "broadcast.rounds_per_node=1"]
    out = tmp_path / "late"
    code = main([*args, "--set", "broadcast.interval_ms=10000000000000000", "--out", str(out)])
    assert code == 2
    assert "configuration error: interval_ms" in capsys.readouterr().err
    assert not out.exists()
    # the last of the four launches just before 2**62 us is accepted
    limit_ms = ((1 << 62) - 1) // 3000
    four = {"n_nodes": 4, "rounds_per_node": 1, "fanouts": "1"}
    build_config(scenario="latency", overrides={**four, "interval_ms": limit_ms})
    with pytest.raises(ConfigurationError, match="interval_ms"):
        build_config(scenario="latency", overrides={**four, "interval_ms": limit_ms + 1})
    # the gossip sweep's flooding cell launches flood_check_broadcasts (20) times
    with pytest.raises(ConfigurationError, match="interval_ms"):
        build_config(scenario="gossip_sweep", overrides={**four, "interval_ms": limit_ms})


def test_cli_simulate_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(
        [
            "simulate",
            "--scenario",
            "faultfree_audit",
            "--set",
            "network.n_nodes=8",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "broadcasts.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_simulate_with_config_file_and_override(tmp_path, capsys):
    config_path = tmp_path / "run.yaml"
    config_path.write_text(
        "scenario: gossip_sweep\n"
        "network:\n  n_nodes: 30\n"
        "broadcast:\n  fanouts: [2]\n"
        "experiment:\n  repeats: 1\n  flood_check_broadcasts: 0\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "results"
    code = main(
        [
            "simulate",
            "--config",
            str(config_path),
            "--set",
            "seed=4",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 4
    assert doc["config"]["network"]["n_nodes"] == 30
    capsys.readouterr()


def test_cli_rejects_bad_configuration(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--scenario",
            "latency",
            "--set",
            "experiment.disturbance=churn_once",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    code = main(
        [
            "simulate",
            "--scenario",
            "gossip_sweep",
            "--set",
            "network.n_nodes=8",
            "--set",
            "experiment.disturbance=refuse_half",
            "--out",
            str(tmp_path / "y"),
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_cli_reports_unwritable_output(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory", encoding="utf-8")

    def no_run(cfg):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    code = main(
        [
            "simulate",
            "--scenario",
            "faultfree_audit",
            "--set",
            "network.n_nodes=8",
            "--out",
            str(blocker),
        ]
    )
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_simulate_reports_truncation(tmp_path, capsys):
    # 64 launches 50 ms apart run to 3.15 s, past a 2 s horizon
    out_dir = tmp_path / "results"
    code = main(
        [
            "simulate",
            "--scenario",
            "coverage_offline",
            "--set",
            "network.n_nodes=64",
            "--set",
            "broadcast.rounds_per_node=1",
            "--set",
            "broadcast.betas=1",
            "--set",
            "experiment.repeats=1",
            "--set",
            "experiment.disturbance=churn_periodic",
            "--set",
            "experiment.disturbance_period_s=1",
            "--set",
            "experiment.horizon_s=2",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 3
    printed = capsys.readouterr()
    assert "hit the horizon" in printed.err
    # with nodes offline no broadcast completes, so no cell has a median latency
    assert "baseline beta=1: coverage 11.1816% p50 n/a (41 incomplete)" in printed.out
    assert "None" not in printed.out
    doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert [cell["truncated"] for cell in doc["cells"]] == [True, True]
    assert [cell["latency"]["p50_us"] for cell in doc["cells"]] == [None, None]


def test_cli_audit_catches_config_errors(capsys):
    assert main(["audit", "--n", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_scenario_rejects_unknown():
    # a config naming an unknown scenario cannot be built, so none reaches run_scenario
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig(scenario="mystery")
    assert "mystery" in str(err.value)
    with pytest.raises(ConfigurationError) as err:
        replace(_tiny_audit_config(), scenario="mystery")
    assert "mystery" in str(err.value)

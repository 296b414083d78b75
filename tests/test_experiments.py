"""Experiment harness tests: config resolution, runs, output files, CLI."""

from __future__ import annotations

import csv
import json

import pytest

from nebcast.errors import ConfigurationError
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
from nebcast.experiments.scenarios import (
    CSV_HEADER,
    _bundle,
    _percentile,
    emit_results,
    run_faultfree_audit,
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
    cases = {
        "n_nodes": "1",
        "bucket_capacity": "6",
        "betas": "0,1",
        "interval_ms": "0",
        "repeats": "0",
        "variants": "baseline,evil",
        "disturbance": "meteor",
    }
    for field, bad in cases.items():
        with pytest.raises(ConfigurationError) as err:
            build_config(scenario="coverage_offline", overrides={field: bad})
        assert field in str(err.value)


def test_scenario_disturbance_pairing_is_enforced():
    with pytest.raises(ConfigurationError):
        build_config(scenario="latency", overrides={"disturbance": "churn_once"})
    with pytest.raises(ConfigurationError):
        build_config(scenario="coverage_refuse", overrides={"disturbance": "churn_once"})
    with pytest.raises(ConfigurationError):
        build_config(scenario="coverage_offline", overrides={"disturbance": "none"})


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
    bundle = run_faultfree_audit(_tiny_audit_config(n=8))
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
    first = emit_results(run_faultfree_audit(cfg), tmp_path / "a")
    second = emit_results(run_faultfree_audit(cfg), tmp_path / "b")
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


def test_cli_audit_exits_zero(capsys):
    assert main(["audit", "--n", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


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


def test_cli_reports_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory", encoding="utf-8")
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


def test_cli_audit_catches_config_errors(capsys):
    assert main(["audit", "--n", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_scenario_rejects_unknown():
    cfg = _tiny_audit_config()
    object.__setattr__(cfg, "scenario", "mystery")
    with pytest.raises(ConfigurationError):
        run_scenario(cfg)

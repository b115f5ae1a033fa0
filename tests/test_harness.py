import json
from fractions import Fraction
from pathlib import Path

import pytest

from geoblock.cli import main
from geoblock.errors import ConfigError
from geoblock.harness import (
    ExperimentConfig,
    cmd_block,
    cmd_count,
    cmd_recursion_check,
    cmd_report,
    cmd_verify,
    format_sig,
    parse_t_grid,
)

F = Fraction


def flat_config(**overrides):
    raw = {
        "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
        "pairs": [[["0", "0"], ["1/2", "0"]], [["0", "0"], ["1/2", "1/2"]]],
        "t_grid": ["2/5", "1", "2"],
        "seed": 42,
        "sampler": {"count": 4, "denominator": 8},
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def write_config(tmp_path, **overrides):
    raw = {
        "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
        "pairs": [[["0", "0"], ["1/2", "0"]]],
        "t_grid": ["2/5", "1"],
        "seed": 42,
        "sampler": {"count": 4, "denominator": 8},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_t_grid_forms(self):
        assert parse_t_grid("1:3:1") == [F(1), F(2), F(3)]
        assert parse_t_grid(["1/2", "1", 2]) == [F(1, 2), F(1), F(2)]
        assert parse_t_grid({"start": "1", "stop": "2", "step": "1/2"}) == [
            F(1),
            F(3, 2),
            F(2),
        ]

    def test_t_grid_errors(self):
        with pytest.raises(ConfigError):
            parse_t_grid("3:1:1")
        with pytest.raises(ConfigError):
            parse_t_grid(["2", "1"])
        with pytest.raises(ConfigError):
            parse_t_grid("1:2")

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"geometry": {"kind": "billiard"}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"t_grid": ["1"]})

    def test_float_rational_rejected(self):
        # JSON floats are not exact rationals: "1/2" is, 0.5 is not
        with pytest.raises(ConfigError, match="float"):
            flat_config(t_grid=[0.5, "1"])
        with pytest.raises(ConfigError, match="float"):
            flat_config(pairs=[[["0", "0"], [0.5, "0"]]])
        with pytest.raises(ConfigError, match="float"):
            flat_config(threshold_t_max=2.5)
        # base points are complex coordinates and stay floats
        flat_config(base_points=[[0.03, 0.97], [0.03, 0.97]])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="'treshold_t_max'"):
            flat_config(treshold_t_max="2")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="'sampler'.*'cout'"):
            flat_config(sampler={"cout": 8})
        with pytest.raises(ConfigError, match="'geometry'"):
            flat_config(geometry={"kind": "torus", "basis": ["1", "0", "0", "1"], "bases": []})

    def test_shipped_configs_load(self):
        for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
            ExperimentConfig.from_file(path)

    def test_format_sig(self):
        assert format_sig(0.4) == "0.4"
        assert format_sig(2.0) == "2"
        assert format_sig(1 / 3) == "0.333333333333"


class TestCount:
    def test_example_rows(self, tmp_path):
        cfg = flat_config(pairs=[[["0", "0"], ["1/2", "0"]]], t_grid=["2/5", "1"])
        assert cmd_count(cfg, tmp_path) == 0
        lines = (tmp_path / "count.csv").read_text().strip().splitlines()
        assert lines[0] == "pair,x,y,t,n,m,status"
        assert lines[1] == '0,"(0,0)","(1/2,0)",0.4,0,0,exact'
        assert lines[2] == '0,"(0,0)","(1/2,0)",1,2,2,exact'

    def test_empty_grid_header_only(self, tmp_path):
        cfg = flat_config(t_grid=[])
        cfg.t_grid = []
        assert cmd_count(cfg, tmp_path) == 0
        assert (tmp_path / "count.csv").read_text() == "pair,x,y,t,n,m,status\n"

    def test_fuchsian_rows_flagged(self, tmp_path):
        raw = {
            "geometry": {"kind": "fuchsian", "preset": "octagon_genus2"},
            "t_grid": ["1", "2", "3", "4"],
            "seed": 42,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cmd_count(cfg, tmp_path) == 0
        lines = (tmp_path / "count.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(ln.endswith(("certified", "heuristic")) for ln in lines[1:])

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for workers, sub in ((1, "w1"), (2, "w2"), (8, "w8")):
            cfg = flat_config()
            cfg.workers = workers
            out = tmp_path / sub
            cmd_count(cfg, out)
            outs.append((out / "count.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestBlock:
    def test_rows_and_midpoint_bound(self, tmp_path):
        cfg = flat_config()
        assert cmd_block(cfg, tmp_path) == 0
        lines = (tmp_path / "block.csv").read_text().strip().splitlines()
        assert lines[0] == "pair,x,y,t,s,optimal,midpoint_upper"
        row = lines[2].split(",")
        assert row[-3:] == ["2", "1", "4"]  # s=2, optimal, the 4 midpoint classes

    def test_fuchsian_rejected(self, tmp_path):
        raw = {
            "geometry": {"kind": "fuchsian", "preset": "octagon_genus2"},
            "t_grid": ["1"],
        }
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            cmd_block(cfg, tmp_path)


class TestVerify:
    def test_all_pass_on_torus_suite(self, tmp_path):
        cfg = flat_config(t_grid=["1", "2"], verify={"recursion": True, "recursion_t_max": "1"})
        code = cmd_verify(cfg, tmp_path)
        data = json.loads((tmp_path / "verify.json").read_text())
        assert code == 0
        assert data["summary"]["hard_failures"] == 0
        names = {c["name"] for c in data["checks"]}
        assert {"chain-lower", "chain-upper", "count-envelope"} <= names
        assert any(n.startswith("recursion:") for n in names)
        assert data["seed"] == 42

    def test_guard_skips_small_t(self, tmp_path):
        cfg = flat_config(t_grid=["2/5", "1"])
        cmd_verify(cfg, tmp_path)
        data = json.loads((tmp_path / "verify.json").read_text())
        skipped = [
            c for c in data["checks"] if c["name"] == "count-envelope" and c["pass"] is None
        ]
        assert skipped
        assert all("skipped" in c["caveat"] for c in skipped)

    def test_sampled_rows_carry_caveat(self, tmp_path):
        cfg = flat_config(t_grid=["1"])
        cmd_verify(cfg, tmp_path)
        data = json.loads((tmp_path / "verify.json").read_text())
        soft = [c for c in data["checks"] if c["caveat"] == "sampled-sup"]
        assert soft and all(not c["hard"] for c in soft)

    def test_every_row_has_context_and_law(self, tmp_path):
        cfg = flat_config(t_grid=["1"])
        cmd_verify(cfg, tmp_path)
        data = json.loads((tmp_path / "verify.json").read_text())
        for c in data["checks"]:
            assert c["law"]
            assert {"pair", "t", "seed"} <= set(c["context"])


class TestRecursionCheck:
    def test_report_written(self, tmp_path):
        cfg = flat_config(pairs=[[["0", "0"], ["1/2", "0"]]], t_grid=["1"])
        assert cmd_recursion_check(cfg, tmp_path) == 0
        data = json.loads((tmp_path / "recursion.json").read_text())
        rep = data["reports"][0]["report"]
        assert rep["kappa"] == 2
        assert all(c["pass"] for c in rep["checks"])


class TestReport:
    def test_flat_verdict(self, tmp_path):
        cfg = flat_config(
            pairs=[[["0", "0"], ["0", "0"]]],
            t_grid=[str(t) for t in range(5, 101, 5)],
        )
        assert cmd_report(cfg, tmp_path) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["h_est"] is not None and data["h_est"] <= 0.05
        assert data["threshold_max"] <= 4
        assert data["verdict"].startswith("consistent")

    def test_partial_on_single_t(self, tmp_path):
        cfg = flat_config(t_grid=["1"])
        cmd_report(cfg, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["h_est"] is None
        assert data["verdict"] == "partial"

    def test_fuchsian_report(self, tmp_path):
        raw = {
            "geometry": {"kind": "fuchsian", "preset": "octagon_genus2"},
            "t_grid": [str(3 + k * 0.25) for k in range(17)],
            "base_points": [[0.03, 0.97], [0.03, 0.97]],
            "seed": 42,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cmd_report(cfg, tmp_path) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert 0.8 <= data["rate_of_counts"] <= 1.2
        assert data["lower_bound_rate"] > 0
        assert data["first_certified_t_exceeding_1"] is not None
        assert data["verdict"].startswith("consistent")


class TestCli:
    def test_count_via_cli(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["count", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "count.csv").exists()

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["count", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert main(["count", "--out", str(tmp_path / "o2")]) == 2

    def test_seed_and_grid_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["verify", "--config", str(cfg_path), "--seed", "7", "--t-grid", "1:1:1",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "verify.json").read_text())
        assert data["seed"] == 7
        assert {c["context"]["t"] for c in data["checks"]} == {1.0}

    def test_pairs_file_override(self, tmp_path):
        cfg_path = write_config(tmp_path)
        pairs_path = tmp_path / "pairs.json"
        pairs_path.write_text(json.dumps([[["0", "0"], ["1/4", "1/4"]]]))
        out = tmp_path / "out"
        assert main(["count", "--config", str(cfg_path), "--pairs", str(pairs_path),
                     "--out", str(out)]) == 0
        text = (out / "count.csv").read_text()
        assert "(1/4,1/4)" in text

    def test_transform_roundtrip(self, tmp_path):
        src = tmp_path / "series.csv"
        rows = ["t,value"] + [f"{t},{t}" for t in [0.5, 1, 2, 4, 8, 16]]
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "transformed.csv"
        assert main(["transform", "--in", str(src), "--out", str(out), "--delta", "1"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        data = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert data[8.0] == pytest.approx(64.0, rel=1e-9)

    def test_count_entropy_roundtrip(self, tmp_path):
        # count.csv quotes its points and has one row per (pair, t); entropy
        # takes the largest n per t.  The two pairs are translates, so the
        # series is the benchmark's count, whose polynomial exponent is 2.0056
        # (n_t ~ pi t^2 / covolume on a flat torus).
        cfg_path = write_config(
            tmp_path,
            geometry={"kind": "torus", "basis": ["1", "0", "1/3", "5/4"]},
            pairs=[[["0", "0"], ["1/2", "1/2"]], [["1/4", "1/4"], ["3/4", "3/4"]]],
            t_grid="1:16:1/2",
        )
        out = tmp_path / "out"
        assert main(["count", "--config", str(cfg_path), "--out", str(out)]) == 0
        fit_path = tmp_path / "fit.json"
        assert main(["entropy", "--mode", "polynomial", "--in", str(out / "count.csv"),
                     "--out", str(fit_path)]) == 0
        fit = json.loads(fit_path.read_text())
        assert fit["kind"] == "polynomial"
        assert fit["parameter"] == pytest.approx(2.0056, abs=1e-4)

    def test_entropy_cli(self, tmp_path):
        import math

        src = tmp_path / "counts.csv"
        rows = ["t,count,certified"] + [f"{t},{math.exp(t):.6f},1" for t in range(1, 30)]
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rate.json"
        assert main(["entropy", "--in", str(src), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "exponential"
        assert abs(data["parameter"] - 1.0) < 0.01

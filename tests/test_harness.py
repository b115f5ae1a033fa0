import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import geoblock.blocker as blocker
import geoblock.harness as harness
from geoblock.blocker import PairSampler, recursion_harness
from geoblock.cli import _build_parser, main
from geoblock.errors import ConfigError
from geoblock.flatspace import RationalPoint, connecting_family, load_space
from geoblock.growth import format_sig
from geoblock.harness import (
    ExperimentConfig,
    cmd_block,
    cmd_count,
    cmd_recursion_check,
    cmd_report,
    cmd_verify,
    parse_t_grid,
)
from helpers import family_of, joining_of
from oracles import sq_length

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


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
        with pytest.raises(ConfigError, match="nonempty"):
            parse_t_grid([])

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
        with pytest.raises(ConfigError, match="'workers'"):
            flat_config(workers=2)
        # the solver's budgets are module constants
        with pytest.raises(ConfigError, match="unknown config key: 'caps'"):
            flat_config(caps={"max_candidates": 5000, "max_geodesics": 2000})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="'sampler'.*'cout'"):
            flat_config(sampler={"cout": 8})
        with pytest.raises(ConfigError, match="'geometry'"):
            flat_config(geometry={"kind": "torus", "basis": ["1", "0", "0", "1"], "bases": []})

    def test_minimal_config_defaults(self):
        cfg = ExperimentConfig.from_dict({"geometry": {"kind": "billiard"}, "t_grid": "1:2:1"})
        assert vars(cfg) == {
            "geometry": {"kind": "billiard"},
            "t_grid": [F(1), F(2)],
            "pairs": [],
            "seed": 42,
            "sampler_count": 8,
            "sampler_denominator": 8,
            "verify_recursion": False,
            "recursion_t_sq_cap": None,
            "threshold_t_sq_cap": F(16),
            "base_points": (0.03 + 0.97j, 0.03 + 0.97j),
            "max_word_len": 24,
            "out_format": "csv",
        }

    def test_shipped_configs_load(self):
        for path in sorted((ROOT / "configs").glob("*.json")):
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
        # the loader rejects an empty grid; a config emptied in memory still writes the header
        cfg = flat_config()
        cfg.t_grid = []
        assert cmd_count(cfg, tmp_path) == 0
        assert (tmp_path / "count.csv").read_text() == "pair,x,y,t,n,m,status\n"

    @pytest.mark.parametrize("geometry", [
        {"kind": "torus", "basis": ["1", "0", "1/3", "5/4"]},
        {"kind": "billiard"},
    ])
    def test_one_enumeration_matches_fresh_families(self, geometry, monkeypatch):
        rng = random.Random(73)
        # horizontal pairs have segments of rational length, so a grid t can sit on one exactly
        pairs = [[["1/4", "1/2"], ["3/4", "1/2"]], [["1/8", "3/8"], ["7/8", "3/8"]], [["1/4", "1/4"], ["3/4", "3/4"]]]
        while len(pairs) < 5:
            a, b, c, d = (rng.randint(1, 7) for _ in range(4))
            if (a, b) != (c, d):
                pairs.append([[f"{a}/8", f"{b}/8"], [f"{c}/8", f"{d}/8"]])
        space = load_space(geometry)
        exact = set()
        for (x1, y1), (x2, y2) in pairs:
            fam, joining = joining_of(space, RationalPoint.of(x1, y1), RationalPoint.of(x2, y2), 25)
            for a in joining:
                sq = sq_length(fam, a)
                num, den = sq.numerator, sq.denominator
                if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
                    exact.add(F(math.isqrt(num), math.isqrt(den)))
        grids = [
            sorted(set(rng.sample(sorted(exact), 4)) | {F(rng.randint(1, 50), 10) for _ in range(4)}),
            [rng.choice(sorted(exact))],
            [F(7, 3)],
            [],
        ]
        calls = []
        monkeypatch.setattr(harness, "connecting_family", lambda *a: calls.append(a) or connecting_family(*a))
        for grid in grids:
            cfg = flat_config(geometry=geometry, pairs=pairs)
            cfg.t_grid = grid
            calls.clear()
            cells = list(harness._cells(cfg, space))
            assert [(pi, t) for pi, _, _, t, _ in cells] == [(pi, t) for pi in range(len(pairs)) for t in grid]
            assert len(calls) == (len(pairs) if grid else 0)
            for _, x, y, t, family in cells:
                fresh = family_of(space, x, y, t * t)
                assert family.counts_at(t * t) == (fresh.n, fresh.m, len(fresh.sq_lengths[2])), (x, y, t)
                assert family.within(t * t) == fresh, (x, y, t)
        assert any(t in exact for t in grids[0]) and grids[1][0] in exact

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

    def test_sampled_cost_solved_once_per_threshold(self, monkeypatch, tmp_path):
        calls = []
        sampled = harness.blocking_cost_sampled

        def counted(space, t_sq, pairs, families):
            calls.append(t_sq)
            return sampled(space, t_sq, pairs, families=families)

        monkeypatch.setattr(harness, "blocking_cost_sampled", counted)
        cmd_verify(ExperimentConfig.from_file(ROOT / "configs" / "unit_torus.json"), tmp_path)
        # t = 1..4 halved down to delta = 1/2: seven distinct t^2
        expected = [F(16), F(9), F(4), F(9, 4), F(1), F(9, 16), F(1, 4)]
        assert sorted(calls) == sorted(expected)

    def test_every_solved_instance_is_built_by_build_instance(self, monkeypatch, tmp_path):
        # a wrapper around build_instance, as the benchmark's trace installs,
        # sees every instance the value path and the recursion solve
        built, solved = [], []
        build, solve = blocker.build_instance, blocker.solve_exact

        def traced_build(family):
            built.append(build(family))
            return built[-1]

        def traced_solve(instance):
            solved.append(instance)
            return solve(instance)

        monkeypatch.setattr(blocker, "build_instance", traced_build)
        monkeypatch.setattr(blocker, "solve_exact", traced_solve)
        cmd_verify(ExperimentConfig.from_file(ROOT / "configs" / "unit_torus.json"), tmp_path)
        assert solved and sorted(map(id, solved)) == sorted(map(id, built))

    def test_one_midpoint_cover_per_family(self, monkeypatch, tmp_path):
        # the prefix certificate's cover is the one the full solve falls
        # back to, and each recursion level family makes its own once
        families = []
        cover = blocker.midpoint_cover

        def counted(family):
            families.append(family)  # kept alive, so no two share an id
            return cover(family)

        monkeypatch.setattr(blocker, "midpoint_cover", counted)
        cmd_verify(ExperimentConfig.from_file(ROOT / "configs" / "unit_torus.json"), tmp_path)
        assert families and len(set(map(id, families))) == len(families)

    @pytest.mark.parametrize("config", ["unit_torus.json", "billiard.json"])
    def test_sample_drawn_once_per_run(self, monkeypatch, tmp_path, config):
        draws = []
        pairs = PairSampler.pairs

        def counted(self, space):
            draws.append(self)
            return pairs(self, space)

        monkeypatch.setattr(PairSampler, "pairs", counted)
        cmd_verify(ExperimentConfig.from_file(ROOT / "configs" / config), tmp_path)
        assert len(draws) == 1

    def test_sampler_short_of_pairs_is_a_config_error(self, tmp_path, capsys):
        # the billiard's denominator-2 grid has one interior point, (1/2,1/2),
        # and the unit torus's has 4 points, so 12 ordered pairs: each exited
        # 3, as if a cap had run out
        billiard = {"kind": "billiard"}
        for name, extra in (
            ("billiard", {"geometry": billiard, "pairs": [[["1/3", "1/3"], ["2/3", "1/5"]]],
                          "sampler": {"count": 2, "denominator": 2}}),
            ("torus", {"sampler": {"count": 13, "denominator": 2}}),
        ):
            cfg_path = write_config(tmp_path, **extra)
            assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2, name
            err = capsys.readouterr().err
            assert "sampler.count" in err and "sampler.denominator" in err, err
            assert not (tmp_path / name / "verify.json").exists()


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

    def test_one_enumeration_per_pair(self, monkeypatch, tmp_path):
        # the thresholds cut the pair's one family instead of enumerating
        # their own: 3 pairs, so 3 enumerations, and the same report.json
        import geoblock.blocker as blocker

        calls = []

        def counted(*args):
            calls.append(args)
            return connecting_family(*args)

        for module in (harness, blocker):
            monkeypatch.setattr(module, "connecting_family", counted)
        cfg = ExperimentConfig.from_file(ROOT / "configs" / "unit_torus.json")
        assert cmd_report(cfg, tmp_path) == 0
        assert len(calls) == len(cfg.pairs) == 3
        golden = ROOT / "tests" / "golden" / "unit_torus" / "report.json"
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    def test_flat_verdict_short_grid(self, tmp_path):
        # n_t ~ c t^2 has exponential slope about 2/t: 0.066 on t = 2..40,
        # while its growth class is polynomial (degree 2.00)
        cfg = flat_config(
            geometry={"kind": "torus", "basis": ["1", "0", "1/3", "5/4"]},
            pairs=[[["1/4", "1/8"], ["1/2", "1/8"]]],
            t_grid="2:40:2",
            threshold_t_max="1",
        )
        assert cmd_report(cfg, tmp_path) == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["h_est"] > 0.05
        assert data["verdict"].startswith("consistent with zero entropy")

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

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["count", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert main(["count", "--out", str(tmp_path / "o2")]) == 2
        # a config that is not UTF-8 text crashed with a traceback, exit 1
        bad.write_bytes(b'{"seed": "\xff"}')
        capsys.readouterr()
        assert main(["count", "--config", str(bad), "--out", str(tmp_path / "o3")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        octagon = {"geometry": {"kind": "fuchsian", "preset": "octagon_genus2"}, "t_grid": ["3", "4"]}
        # a geometry key the kind does not use ran with exit 0, ignored
        unit_basis = ["1", "0", "0", "1"]
        for name, key, raw in (
            ("billiard_basis", "basis", {"geometry": {"kind": "billiard", "basis": unit_basis},
                                         "pairs": [[["1/3", "1/3"], ["2/3", "1/5"]]], "t_grid": ["1"]}),
            ("torus_preset", "preset", {"geometry": {"kind": "torus", "basis": unit_basis, "preset": "octagon_genus2"},
                                        "pairs": [[["0", "0"], ["1/2", "0"]]], "t_grid": ["1"]}),
            ("fuchsian_basis", "basis", {**octagon, "geometry": {**octagon["geometry"], "basis": unit_basis}}),
            # a string of four characters loaded as the unit torus
            ("string_basis", "basis", {"geometry": {"kind": "torus", "basis": "1001"},
                                       "pairs": [[["0", "0"], ["1/2", "0"]]], "t_grid": ["1"]}),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            assert main(["count", "--config", str(path), "--out", str(tmp_path / name)]) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and f"'{key}'" in err and err.count("\n") == 1
            assert not (tmp_path / name / "count.csv").exists()
        # the systole packing bound is the only uniform count bound
        for name, extra in (
            ("mode", {"orbit": {"bound_mode": "sistole"}}),
            ("rigorous", {"orbit": {"bound_mode": "rigorous"}}),
            ("empirical", {"orbit": {"bound_mode": "empirical"}}),
            ("fmt", {"format": "xml"}),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**octagon, **extra}))
            assert main(["report", "--config", str(path), "--out", str(tmp_path / name)]) == 2
        # malformed numbers and points: each crashed, was coerced or exited 3
        for name, extra in (
            ("base_im", {"base_points": [[0.0, 1.0], [0.0, -1.0]]}),
            ("base_short", {"base_points": [[1]]}),
            ("word_len", {"orbit": {"max_word_len": "ten"}}),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**octagon, **extra}))
            assert main(["count", "--config", str(path), "--out", str(tmp_path / name)]) == 2
        for name, extra in (
            ("seed_str", {"seed": "abc"}),
            ("seed_float", {"seed": 1.5}),
            # the solver's budgets are constants, not config keys
            ("caps", {"caps": {"max_candidates": 5000}}),
            ("count_list", {"sampler": {"count": [1]}}),
            ("recursion_str", {"verify": {"recursion": "no"}}),
            # a negative t was squared into a positive cap; an empty grid loaded
            ("threshold_neg", {"threshold_t_max": "-3"}),
            ("recursion_neg", {"verify": {"recursion": True, "recursion_t_max": "-1"}}),
            ("grid_empty", {"t_grid": []}),
            # pairs that are not a list
            ("pairs_int", {"pairs": 5}),
            ("pairs_null", {"pairs": None}),
            ("denominator", {"geometry": {"kind": "billiard"}, "pairs": [[["1/3", "1/3"], ["2/3", "1/5"]]],
                             "sampler": {"count": 2, "denominator": 1}}),
        ):
            cfg_path = write_config(tmp_path, **extra)
            assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2
        pairs_path = tmp_path / "pairs_int.json"
        pairs_path.write_text("5")
        assert main(["count", "--config", str(write_config(tmp_path)), "--pairs", str(pairs_path),
                     "--out", str(tmp_path / "pairs_file")]) == 2
        # billiard pairs with a point the table cannot take as an endpoint, a
        # wall point or a point off the table, in the config or a --pairs file:
        # each exited 3, as if a cap had run out
        billiard = {"kind": "billiard"}
        for name, pair in (
            ("wall_point", [["0", "1/2"], ["1/2", "1/3"]]),
            ("off_table", [["1/3", "1/3"], ["3/2", "1/2"]]),
            # off the table, though each folds to an interior point
            ("right_of_table", [["1/3", "1/3"], ["5/4", "1/2"]]),
            ("left_of_table", [["-1/4", "1/2"], ["1/2", "1/3"]]),
        ):
            cfg_path = write_config(tmp_path, geometry=billiard, pairs=[pair])
            for command in ("count", "block"):
                assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2
        pairs_path.write_text(json.dumps([[["0", "1/2"], ["1/2", "1/3"]]]))
        cfg_path = write_config(tmp_path, geometry=billiard, pairs=[[["1/3", "1/3"], ["2/3", "1/5"]]])
        assert main(["count", "--config", str(cfg_path), "--pairs", str(pairs_path),
                     "--out", str(tmp_path / "wall_pairs_file")]) == 2
        # preset files that are not JSON, lack the generators or the systole,
        # or hold a three-number row
        preset = json.loads((resources.files("geoblock.presets") / "octagon_genus2.json").read_text())
        for name, text in (
            ("preset_text", "{not json"),
            ("preset_no_generators", json.dumps({k: v for k, v in preset.items() if k != "generators"})),
            ("preset_no_systole", json.dumps({k: v for k, v in preset.items() if k != "systole"})),
            ("preset_short_row", json.dumps({**preset, "generators": [[2, 0, 0], *preset["generators"][1:]]})),
        ):
            preset_path = tmp_path / f"{name}.json"
            preset_path.write_text(text)
            cfg_path = tmp_path / f"{name}_config.json"
            cfg_path.write_text(json.dumps({**octagon, "geometry": {"kind": "fuchsian", "preset": str(preset_path)}}))
            for command in ("count", "report"):
                assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2

    def test_wrong_preset_centre_exit_2(self, tmp_path):
        # the octagon's generators pair the sides of the Dirichlet domain at
        # i; about 2 + i or 0.5 + i their bisectors bound no compact polygon
        preset = json.loads((resources.files("geoblock.presets") / "octagon_genus2.json").read_text())
        for name, centre in (("far", [2.0, 1.0]), ("near", [0.5, 1.0])):
            preset_path = tmp_path / f"{name}.json"
            preset_path.write_text(json.dumps({**preset, "centre": centre}))
            cfg_path = tmp_path / f"{name}_config.json"
            cfg_path.write_text(json.dumps({"geometry": {"kind": "fuchsian", "preset": str(preset_path)}, "t_grid": ["3", "4"]}))
            assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2
            assert not (tmp_path / name / "count.csv").exists()

    @pytest.mark.parametrize("reader", ["config", "pairs", "preset"])
    def test_json_the_decoder_refuses_exit_2(self, tmp_path, capsys, reader):
        # arrays nested 200,000 deep raised RecursionError, and an integer of
        # 5,001 digits ValueError past the decoder's digit limit: each crashed
        # with a traceback and exit 1, the code of a failed check
        config, bad, octagon = write_config(tmp_path), tmp_path / "bad.json", tmp_path / "octagon.json"
        octagon.write_text(json.dumps({"geometry": {"kind": "fuchsian", "preset": str(bad)}, "t_grid": ["3"]}))
        argv = {
            "config": ["--config", str(bad)],
            "pairs": ["--config", str(config), "--pairs", str(bad)],
            "preset": ["--config", str(octagon)],
        }[reader]
        # the long count is below 1 too, for a decoder with no digit limit
        long_int = config.read_text().replace('"count": 4', '"count": -' + "9" * 5001)
        for text in ("[" * 200_000 + "]" * 200_000, long_int):
            bad.write_text(text)
            capsys.readouterr()
            assert main(["count", *argv, "--out", str(tmp_path / "out")]) == 2, text[:20]
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    def test_huge_t_refused_exit_3(self, tmp_path, capsys):
        # the enumeration box of t = 10^400 is refused before it is walked
        cfg_path = write_config(tmp_path, t_grid=["1e400"])
        assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "budget exceeded: t = 1.000e+400 needs a box of about 4.000e+800 points, " \
                      "over the limit 1000000\n"
        assert not (tmp_path / "o" / "count.csv").exists()

    def test_long_t_refused_at_parse_exit_2(self, tmp_path, capsys):
        # parsing 1e3000000 alone took seconds before the box budget saw it,
        # and a grid of 10^12 points would allocate without bound; each is
        # refused before it is built
        for grid, message in (
            (["1e3000000"], "t value '1e3000000' has more than 1000 digits"),
            (["1E+1000"], "t value '1E+1000' has more than 1000 digits"),
            (["1/" + "9" * 1001], "has more than 1000 digits"),
            ([10**1000], "has more than 1000 digits"),
            ("1:1e12:1", "t grid '1:1e12:1' has more than 10000 points"),
            ({"start": "1", "stop": "10001", "step": "1"}, "has more than 10000 points"),
        ):
            cfg_path = write_config(tmp_path, t_grid=grid)
            start = time.perf_counter()
            assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2, grid
            assert time.perf_counter() - start < 1.0, grid
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and message in err and err.count("\n") == 1
            assert not (tmp_path / "o" / "count.csv").exists()
        cfg_path = write_config(tmp_path, threshold_t_max="1e3000000")
        assert main(["block", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        # the largest values and grids still parse
        assert parse_t_grid(["1/" + "9" * 1000, "1e999"]) == [F(1, 10**1000 - 1), F(10**999)]
        assert len(parse_t_grid({"start": "1", "stop": "10000", "step": "1"})) == 10000
        assert parse_t_grid(["1e-999"]) == [F(1, 10**999)]

    @pytest.mark.parametrize("overrides, pairs_file, key", [
        ({"geometry": {"kind": "torus", "basis": [True, "0", "0", True]}}, None, "geometry.basis"),
        ({"geometry": {"kind": "torus", "basis": ["1e3000000", "0", "0", "1"]}}, None, "geometry.basis"),
        ({"pairs": [[["0", False], ["1/2", "0"]]]}, None, "pairs"),
        ({"pairs": [[["1e3000000", "0"], ["1/2", "0"]]]}, None, "pairs"),
        ({}, [[["0", "0"], [True, "0"]]], "pairs"),
        ({}, [[["0", "0"], ["1/" + "9" * 1001, "0"]]], "pairs"),
        ({"t_grid": [True, 2]}, None, "t_grid"),
        ({"threshold_t_max": True}, None, "threshold_t_max"),
        ({"verify": {"recursion": True, "recursion_t_max": False}}, None, "verify.recursion_t_max"),
    ], ids=["basis-bool", "basis-long", "pairs-bool", "pairs-long", "pairs-file-bool", "pairs-file-long",
            "t-grid-bool", "threshold-bool", "recursion-t-max-bool"])
    def test_every_config_rational_parsed_strictly(self, tmp_path, capsys, overrides, pairs_file, key):
        # a JSON bool is not the rational 1 or 0, and a number over the
        # digit bound is refused before it is built, wherever a config or a
        # --pairs file gives an exact rational: exit 2, naming the key
        argv = ["count", "--config", str(write_config(tmp_path, **overrides)), "--out", str(tmp_path / "o")]
        if pairs_file is not None:
            (tmp_path / "pairs.json").write_text(json.dumps(pairs_file))
            argv += ["--pairs", str(tmp_path / "pairs.json")]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_deep_search_ends_certified(self, tmp_path):
        # this cell's branch and bound ran for minutes, and then into the
        # search budget over a root bound of 14; the weights bound meets the
        # optimum 15, so the search ends at its first cover of that size
        cfg_path = write_config(tmp_path, geometry={"kind": "billiard"},
                                pairs=[[["1/6", "2/3"], ["1/10", "7/10"]]], t_grid="7/2:7/2:1")
        out = tmp_path / "out"
        assert main(["block", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, row = (out / "block.csv").read_text().splitlines()
        assert header == "pair,x,y,t,s,optimal,midpoint_upper"
        assert row == '0,"(1/6,2/3)","(1/10,7/10)",3.5,15,1,'

    def test_parser_built_once_per_process(self, tmp_path, capsys):
        # main builds the parser on its first call only; commands run through
        # the cached parser write what they write with a freshly built one
        series = tmp_path / "series.csv"
        series.write_text("t,value\n" + "".join(f"{t},{3 ** t}\n" for t in range(1, 21)))
        config = str(ROOT / "configs" / "unit_torus.json")

        def runs(tag, fresh):
            out = []
            for argv in (["count", "--config", config, "--out", str(tmp_path / tag / "count")],
                         ["entropy", "--in", str(series)],
                         ["block", "--config", config, "--t-grid", "1,2", "--out", str(tmp_path / tag / "block")],
                         ["transform", "--in", str(series), "--out", str(tmp_path / tag / "t.csv")]):
                if fresh:
                    _build_parser.cache_clear()
                out.append((main(argv), *capsys.readouterr()))
            files = sorted((tmp_path / tag).rglob("*.*"))
            return out, [(f.relative_to(tmp_path / tag), f.read_bytes()) for f in files]

        _build_parser.cache_clear()
        cached = runs("cached", fresh=False)
        assert _build_parser.cache_info().misses == 1
        assert cached == runs("fresh", fresh=True)
        assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0] and cached[0][1][1].startswith("{")
        assert len(cached[1]) == 3

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--config", str(cfg_path), "--workers", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

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
        # a single value is a one-element comma list
        one = tmp_path / "one"
        assert main(["verify", "--config", str(cfg_path), "--seed", "7", "--t-grid", "1", "--out", str(one)]) == 0
        assert (one / "verify.json").read_bytes() == (out / "verify.json").read_bytes()
        # an empty override is an empty grid, not the config's grid
        empty = tmp_path / "empty"
        assert main(["verify", "--config", str(cfg_path), "--t-grid", "", "--out", str(empty)]) == 2
        assert not empty.exists()

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

    @pytest.mark.parametrize("argv,text", [
        pytest.param(["transform"], "t,value\n1,abc\n", id="transform-bad-cell"),
        pytest.param(["entropy"], "t,value\n1,abc\n", id="entropy-bad-cell"),
        pytest.param(["transform"], "t,value\n1,1\n2\n", id="transform-short-row"),
        pytest.param(["entropy"], "t,value\n1,1\n2\n", id="entropy-short-row"),
        pytest.param(["transform"], None, id="transform-missing-file"),
        pytest.param(["entropy"], None, id="entropy-missing-file"),
        pytest.param(["transform"], "t,value\n1,1\ninf,2\n", id="transform-t-inf"),
        pytest.param(["entropy"], "t,value\n1,1\ninf,2\n", id="entropy-t-inf"),
        pytest.param(["transform"], "t,value\n1,1\nnan,2\n", id="transform-t-nan"),
        pytest.param(["entropy"], "t,n\n1,1\n2,nan\n", id="entropy-n-nan"),
        pytest.param(["transform", "--delta", "0"], "t,value\n1,1\n", id="delta-zero"),
        pytest.param(["transform", "--delta", "nan"], "t,value\n1,1\n", id="delta-nan"),
        pytest.param(["entropy", "--window", "0"], "t,value\n1,1\n", id="window-zero"),
        pytest.param(["entropy", "--window", "1.5"], "t,value\n1,1\n", id="window-above-one"),
        # each crashed with a traceback, exit 1
        pytest.param(["transform"], b"t,value\n1,\xff\n", id="transform-not-utf8"),
        pytest.param(["entropy"], b"t,value\n1,\xff\n", id="entropy-not-utf8"),
        # too few samples to fit exited 3, as if a cap had run out
        pytest.param(["entropy"], "t,value\n1,2\n2,4\n", id="entropy-too-few-samples"),
        # every row skipped: the error named the empty series, not --delta
        pytest.param(["transform", "--delta", "0.5"], "t,value\n" + "".join(f"{t},{t}\n" for t in range(1, 11)),
                     id="transform-delta-below-every-row"),
    ])
    def test_series_input_errors_exit_2(self, tmp_path, capsys, argv, text):
        # a bad cell, a short row, a missing file, a non-finite number, text
        # that is not UTF-8, too few samples to fit or an option outside its
        # domain: one line on stderr, exit 2
        src = tmp_path / "in.csv"
        if isinstance(text, bytes):
            src.write_bytes(text)
        elif text is not None:
            src.write_text(text)
        assert main([*argv, "--in", str(src), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        if argv[1:] == ["--delta", "0.5"]:
            assert "--delta" in err

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


# run in a fresh interpreter: after each step, record its exit code and
# whether numpy is loaded
_NUMPY_PROBE = """
import json, sys
runs, record = json.loads(sys.argv[1]), sys.argv[2]
steps = []
import geoblock
steps.append(["import geoblock", None, "numpy" in sys.modules])
import geoblock.cli
steps.append(["import geoblock.cli", None, "numpy" in sys.modules])
for argv in runs:
    steps.append([argv[0], geoblock.cli.main(argv), "numpy" in sys.modules])
open(record, "w").write(json.dumps(steps))
"""


def translation_class(x, y):
    """Two keys' common denominator D and y - x mod D, as (c1, c2, D)."""
    den = math.lcm(x[2], y[2])
    return tuple((b * (den // y[2]) - a * (den // x[2])) % den for a, b in zip(x[:2], y[:2])) + (den,)


@pytest.mark.parametrize("config", ["unit_torus.json", "billiard.json"])
def test_every_flat_command_enumerates_each_pair_once(monkeypatch, tmp_path, config):
    # the cells read one family per pair, at the grid's largest t, and so
    # do verify's sampled pairs; the near pairs of the sampled cost enumerate
    # their own pairs, and no (x, y, t^2) is enumerated twice.  A billiard
    # recursion level enumerates each of its pairs as itself; a torus level
    # enumerates each translation class once
    calls = []
    recursions = []  # per recursion_harness call: its report (None if it raised) and the calls made inside it

    def counted(space, x, y, t_sq):
        calls.append((x, y, Fraction(t_sq)))
        return connecting_family(space, x, y, t_sq)

    def recorded(family):
        start, inside = len(calls), [None, []]
        recursions.append(inside)
        try:
            inside[0] = recursion_harness(family)
            return inside[0]
        finally:
            inside[1] = calls[start:]

    for module in (harness, blocker):
        monkeypatch.setattr(module, "connecting_family", counted)
    monkeypatch.setattr(harness, "recursion_harness", recorded)
    path = ROOT / "configs" / config
    cfg = ExperimentConfig.from_file(path)
    space = load_space(cfg.geometry)
    for command in ("count", "block", "verify", "recursion-check", "report"):
        calls.clear()
        main([command, "--config", str(path), "--out", str(tmp_path / command)])
        assert calls, command
        repeated = [call for call, n in Counter(calls).items() if n > 1]
        assert not repeated, (command, repeated)
        if command == "block":
            assert calls == [(space.key(x), space.key(y), cfg.t_grid[-1] ** 2) for x, y in cfg.pairs]
        if command == "verify":
            for p, q in PairSampler(cfg.seed, cfg.sampler_count, cfg.sampler_denominator).pairs(space):
                assert [t_sq for x, y, t_sq in calls if (x, y) == (space.key(p), space.key(q))] == [cfg.t_grid[-1] ** 2]
    reports = [report for report, _ in recursions if report is not None]
    assert reports
    for report, inside in recursions:
        if len(space.group) == 1:
            classes = Counter((translation_class(x, y), t_sq) for x, y, t_sq in inside)
            assert max(classes.values(), default=1) == 1, classes
        elif report is not None:
            assert inside == [(x, y, lv.t_sq) for lv in report.levels[1:] for x, y in lv.pairs]
    if len(space.group) == 1:
        # the torus levels do hold pairs that share a class
        level_pairs = sum(len(lv.pairs) for report in reports for lv in report.levels[1:])
        assert level_pairs > sum(len(inside) for _, inside in recursions)


def test_flat_commands_never_import_numpy(tmp_path):
    # count, block, verify and recursion-check on the flat configs, and
    # transform, run without numpy; the billiard recursion-check exits 3 (a
    # wall blocking point), so only the modules are asserted
    series = tmp_path / "series.csv"
    series.write_text("t,value\n" + "".join(f"{t},{2 * t}\n" for t in range(1, 9)))
    runs = [
        [command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path / config)]
        for config in ("unit_torus", "billiard")
        for command in ("count", "block", "verify", "recursion-check")
    ]
    runs.append(["transform", "--in", str(series), "--out", str(tmp_path / "transformed.csv")])
    # last, a fuchsian count: it loads numpy, so the probe can see it
    octagon = tmp_path / "octagon"
    runs.append(["count", "--config", str(ROOT / "configs" / "octagon.json"), "--out", str(octagon)])
    record = tmp_path / "steps.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs), str(record)],
                   env=env, check=True, capture_output=True)
    *flat, fuchsian = json.loads(record.read_text())
    assert len(flat) == len(runs) + 1
    for step, code, numpy_loaded in flat:
        assert not numpy_loaded, f"{step} (exit {code}) loaded numpy"
    assert fuchsian == ["count", 0, True]
    assert (octagon / "count.csv").read_bytes() == (ROOT / "tests" / "golden" / "octagon" / "count.csv").read_bytes()

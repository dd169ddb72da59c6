import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epsent
from epsent import cli, selftest, sweep
from epsent.cli import dispatch
from epsent.config import SCHEMA, ConfigError, RunConfig, load_config

# A non-default value for every config key.  Its sweep flag is the key with
# dashes, except --cells for n_list.
NON_DEFAULT = {
    "map": "tent",
    "lambda": 3.5,
    "noise_mode": "output",
    "boundary": "clamp",
    "sigma": [0.2, 0.3],
    "n_list": [5, 7],
    "length": 5000,
    "burn_in": 10,
    "seed": 9,
    "workers": 2,
    "algorithm": "castore",
    "p_samples": 50,
    "delta": 0.1,
    "max_block": 4,
    "miller_madow": True,
    "out_csv": "other.csv",
    "out_plot": "other.dat",
}

# A value of the wrong type for every config key.
WRONG_TYPE = {
    "map": 3,
    "lambda": "4",
    "noise_mode": ["output"],
    "boundary": 1,
    "sigma": 0.5,
    "n_list": [2, 2.5],
    "length": "abc",
    "burn_in": True,
    "seed": 1.5,
    "workers": 1.5,
    "algorithm": 0,
    "p_samples": "100",
    "delta": False,
    "max_block": 4.0,
    "miller_madow": 1,
    "out_csv": 5,
    "out_plot": ["plot.dat"],
}


class TestConfigLoading:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"map": "logistic", "lambda": 4, "sigma": [0.01], "n_list": [2], "length": 100_000}
            )
        )
        cfg = load_config(str(path))
        assert cfg.sigma == (0.01,)
        assert cfg.n_list == (2,)
        assert cfg.length == 100_000
        assert cfg.burn_in == 1000
        assert cfg.noise_mode == "dynamical"
        assert cfg.algorithm == "lz78"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma": [0.5], "length": 5000}))
        cfg = load_config(str(path), {"sigma": [0.02]})
        assert cfg.sigma == (0.02,)
        assert cfg.length == 5000

    def test_lambda_out_of_range_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 5}))
        with pytest.raises(ConfigError, match="lambda"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigmaa": [0.1]}))
        with pytest.raises(ConfigError, match="sigmaa"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/config.json")

    def test_validation_bounds(self):
        with pytest.raises(ConfigError, match="length"):
            RunConfig(length=100)
        with pytest.raises(ConfigError, match="n_list"):
            RunConfig(n_list=(1,))
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig(sigma=(-0.1,))
        with pytest.raises(ConfigError, match="n_list"):
            RunConfig(n_list=(2, 70_000))
        with pytest.raises(ConfigError, match="length"):
            RunConfig(length=2**24 + 1)
        # block counts never index the 250^8 > 2^62 word space
        RunConfig(n_list=(2, 250), max_block=8)
        RunConfig(n_list=(2, 250), max_block=62)
        with pytest.raises(ConfigError, match="max_block"):
            RunConfig(max_block=63)
        with pytest.raises(ConfigError, match="max_block"):
            RunConfig(max_block=1)


class TestConfigSchema:
    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_sweep_flag_and_key_set_the_field(self, key, tmp_path, monkeypatch):
        assert SCHEMA.keys() == NON_DEFAULT.keys()
        value = NON_DEFAULT[key]
        flag = {"n_list": "--cells"}.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, list):
            argv = [arg for v in value for arg in (flag, str(v))]
        elif value is True:
            argv = [flag]
        else:
            argv = [flag, str(value)]
        seen = []
        monkeypatch.setattr(cli, "run_grid", lambda cfg: seen.append(cfg) or [])
        monkeypatch.chdir(tmp_path)
        assert dispatch(["sweep", *argv]) == 0

        name = SCHEMA[key].name
        expected = tuple(value) if isinstance(value, list) else value
        assert expected != getattr(RunConfig(), name)
        assert getattr(seen[0], name) == expected
        assert getattr(load_config(None, {key: value}), name) == expected

    @pytest.mark.parametrize("key", sorted(WRONG_TYPE))
    def test_wrong_value_type_names_the_key(self, key):
        assert SCHEMA.keys() == WRONG_TYPE.keys()
        with pytest.raises(ConfigError, match=f"^{key}: expected "):
            load_config(None, {key: WRONG_TYPE[key]})

    def test_int_is_accepted_as_float(self):
        cfg = load_config(None, {"lambda": 3, "sigma": [1, 0.5], "delta": 1})
        assert (cfg.lam, cfg.sigma, cfg.delta) == (3.0, (1.0, 0.5), 1.0)
        assert all(type(v) is float for v in (cfg.lam, *cfg.sigma, cfg.delta))

    @pytest.mark.parametrize("key", ["map", "noise_mode", "boundary", "algorithm"])
    def test_choice_fields_reject_unknown_values(self, key):
        assert SCHEMA[key].metadata["choices"]
        with pytest.raises(ConfigError, match=f"{key}: must be one of"):
            load_config(None, {key: "bogus"})


# (key, value) pairs that a config refuses, each at one edge of its range
OUT_OF_RANGE = [
    ("sigma", [-1e-9]), ("sigma", []),
    ("n_list", [1]), ("n_list", [65536]), ("n_list", []),
    ("length", 999), ("length", 2**24 + 1),
    ("burn_in", -1), ("burn_in", 2**24 + 1), ("workers", 0),
    ("p_samples", 0), ("p_samples", 2**24 + 1), ("delta", 0.0),
    ("max_block", 1), ("max_block", 63),
    ("lambda", 0.0), ("lambda", 4.000001),
    # non-finite floats, which pass every comparison or fail it silently
    ("sigma", [math.nan]), ("sigma", [math.inf]), ("delta", math.nan), ("delta", math.inf),
    ("lambda", math.nan), ("lambda", math.inf), ("lambda", -math.inf),
    ("workers", 65),
    # seeds.mix keeps the low 64 bits: -1 would run as 2**64 - 1, and 2**64 + 5 as 5
    ("seed", -1), ("seed", 2**64), ("seed", 2**64 + 5),
]

# flag/key values that a config keeps, each at one edge of its range
IN_RANGE = [
    {"sigma": [0.0]}, {"n_list": [2]}, {"n_list": [65535]},
    {"length": 1000}, {"length": 2**24},
    {"burn_in": 0}, {"burn_in": 2**24}, {"workers": 1}, {"p_samples": 1}, {"p_samples": 2**24},
    {"max_block": 2}, {"max_block": 62}, {"max_block": None},
    {"lambda": 4.0}, {"lambda": 5.0, "map": "tent"}, {"workers": 64},
    {"seed": 0}, {"seed": 2**64 - 1},
]


class TestConfigRanges:
    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_config(None, {key: value})

    @pytest.mark.parametrize("values", IN_RANGE)
    def test_edge_of_range_is_kept(self, values):
        cfg = load_config(None, values)
        for key, value in values.items():
            expected = tuple(value) if isinstance(value, list) else value
            assert getattr(cfg, SCHEMA[key].name) == expected

    def file_then_flags(self, tmp_path, data, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return load_config(str(path), flags)

    def test_replaced_file_value_is_still_type_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="^workers: expected int"):
            self.file_then_flags(tmp_path, {"workers": "two"}, {"workers": 2})

    def test_replaced_file_value_is_not_range_checked(self, tmp_path):
        assert self.file_then_flags(tmp_path, {"workers": 0}, {"workers": 2}).workers == 2

    def test_lambda_rule_reads_the_merged_map(self, tmp_path):
        cfg = self.file_then_flags(tmp_path, {"lambda": 5}, {"map": "tent"})
        assert (cfg.map, cfg.lam) == ("tent", 5.0)

    @pytest.mark.parametrize(
        "key, flags",
        [
            ("sigma", ["--sigma", "nan"]),
            ("sigma", ["--sigma", "inf"]),
            ("delta", ["--delta", "inf"]),
            ("burn_in", ["--burn-in", str(2**24 + 1)]),
            ("p_samples", ["--p-samples", str(2**24 + 1)]),
            # a refused worker count starts no process
            ("workers", ["--workers", "65"]),
            ("seed", ["--seed", "-1"]),
            ("seed", ["--seed", str(2**64 + 5)]),
        ],
    )
    def test_refusal_exits_2_before_any_orbit(self, monkeypatch, capsys, key, flags):
        monkeypatch.setattr(cli, "run_grid", lambda cfg: pytest.fail("the sweep ran"))
        assert dispatch(["sweep", *flags]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")

    def test_nan_in_config_file_exits_2(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"delta": NaN}')
        monkeypatch.setattr(cli, "run_grid", lambda cfg: pytest.fail("the sweep ran"))
        assert dispatch(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: delta: must be finite")


def run_sweep(cwd, *flags):
    """``epsent sweep`` in a child process, so that its warnings reach stderr."""
    src = str(Path(epsent.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "epsent", "sweep", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=300, env={"PYTHONPATH": src},
    )


class TestSweepCommand:
    def test_small_sweep_writes_outputs(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        plot_path = tmp_path / "out.dat"
        code = dispatch(
            [
                "sweep",
                "--sigma", "0.05",
                "--cells", "2",
                "--cells", "4",
                "--length", "2000",
                "--p-samples", "2000",
                "--seed", "7",
                "--out-csv", str(csv_path),
                "--out-plot", str(plot_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.05,0.5,2,2000,")
        assert plot_path.read_text().startswith("# sigma = 0.05")

    def test_invalid_lambda_exits_2(self, capsys):
        code = dispatch(["sweep", "--lambda", "5", "--length", "2000"])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_cell_count_beyond_stream_header_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = dispatch(
            ["sweep", "--cells", "2", "--cells", "70000", "--length", "2000",
             "--out-csv", str(csv_path)]
        )
        assert code == 2
        assert "n_list" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_max_block_over_62_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = dispatch(
            ["sweep", "--max-block", "63", "--cells", "2", "--length", "2000",
             "--out-csv", str(csv_path)]
        )
        assert code == 2
        assert "max_block" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_max_block_8_at_250_cells_sweeps(self):
        # 250^8 > 2^62 words, but the ladder only numbers the observed ones
        config = RunConfig(sigma=(0.1,), n_list=(2, 250), length=2000, p_samples=500, max_block=8)
        cells = sweep.run_grid(config)
        assert [point.n_cells for point in cells] == [2, 250]
        for point in cells:
            assert 0.0 <= point.block_rate <= np.log2(point.n_cells)

    def test_sampled_sweep_writes_no_warning(self, tmp_path):
        # the SMALL grid of test_sweep.py: its default depths are all sampled
        proc = run_sweep(
            tmp_path, "--sigma", "0.1", "--sigma", "0.01", "--cells", "2", "--cells", "4",
            "--cells", "8", "--length", "20000", "--p-samples", "4000",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "wrote sweep.csv\n"

    def test_deep_max_block_warns_and_sweeps(self, tmp_path):
        # the companion stops where its words turn distinct (depth 9 and 8),
        # while each cell's 40-block rate warns on stderr
        proc = run_sweep(
            tmp_path, "--length", "100000", "--cells", "2", "--cells", "4", "--sigma", "0.1",
            "--max-block", "40", "--p-samples", "1000",
        )
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3
        for n in (2, 4):
            assert f"length 100000 below recommended 4998050 for 40-blocks over {n} symbols" in (
                proc.stderr
            )

    def test_failing_cell_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        estimate_p = sweep.estimate_p

        def fails_at_four_cells(spec, part, *args):
            if part.n_cells == 4:
                raise ValueError("injected")
            return estimate_p(spec, part, *args)

        monkeypatch.setattr(sweep, "estimate_p", fails_at_four_cells)
        csv_path = tmp_path / "out.csv"
        code = dispatch(
            ["sweep", "--sigma", "0.05", "--cells", "2", "--cells", "4",
             "--length", "2000", "--p-samples", "500", "--out-csv", str(csv_path)]
        )
        assert code == 1
        assert not csv_path.exists()
        assert "sigma=0.05 n_cells=4" in capsys.readouterr().err

    def test_failing_companion_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        refine_cylinders = sweep.refine_cylinders

        def fails_at_four_cells(spec, part, depth):
            if part.n_cells == 4:
                raise ValueError("injected")
            return refine_cylinders(spec, part, depth)

        monkeypatch.setattr(sweep, "refine_cylinders", fails_at_four_cells)
        csv_path = tmp_path / "out.csv"
        code = dispatch(
            ["sweep", "--sigma", "0.05", "--cells", "2", "--cells", "4",
             "--length", "2000", "--p-samples", "500", "--out-csv", str(csv_path)]
        )
        assert code == 1
        assert not csv_path.exists()
        assert "noise-free companion n_cells=4" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"sigma": 0.5}', '{"workers": 1.5}'])
    def test_wrong_config_value_type_exits_2(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = dispatch(["sweep", "--config", str(path)])
        assert code == 2
        assert json.loads(text).popitem()[0] in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        code = dispatch(["sweep", "--config", str(path)])
        assert code == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--out-csv", "same.txt", "--out-plot", "./same.txt"],
            ["--out-plot", "sweep.csv"],
            ["--out-csv", "same.txt", "--out-plot", "link/same.txt"],
        ],
        ids=["both_set", "default_csv", "through_symlink"],
    )
    def test_plot_path_that_is_the_csv_path_exits_2(self, flags, tmp_path, monkeypatch, capsys):
        # the plot, written second, would leave no CSV
        monkeypatch.setattr(cli, "run_grid", lambda cfg: pytest.fail("the sweep ran"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        assert dispatch(["sweep", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: out_plot: ") and "out_csv" in err
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--out-csv", "missing/x.csv"], "out_csv: no directory 'missing' for 'missing/x.csv'"),
            (
                ["--out-csv", "x.csv", "--out-plot", "missing/x.dat"],
                "out_plot: no directory 'missing' for 'missing/x.dat'",
            ),
            (["--out-csv", "sub"], "out_csv: 'sub' is a directory"),
            (["--out-csv", "x.csv", "--out-plot", "sub/"], "out_plot: 'sub/' is a directory"),
            # the default CSV path is checked too
            ([], "out_csv: 'sweep.csv' is a directory"),
        ],
        ids=["csv_missing_dir", "plot_missing_dir", "csv_is_dir", "plot_is_dir", "default_csv_is_dir"],
    )
    def test_unwritable_output_path_exits_2_before_the_sweep(
        self, flags, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_grid", lambda cfg: pytest.fail("the sweep ran"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sweep.csv").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert dispatch(["sweep", *flags]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestSimulateCommand:
    def test_orbit_dump(self, tmp_path):
        out = tmp_path / "orbit.txt"
        code = dispatch(
            ["simulate", "--map", "doubling", "--x0", "0.3", "--length", "3", "--out", str(out)]
        )
        assert code == 0
        values = [float(line) for line in out.read_text().splitlines()]
        assert values == pytest.approx([0.3, 0.6, 0.2], abs=1e-12)

    def test_burned_in_orbit_stays_inside(self, tmp_path):
        out = tmp_path / "orbit.txt"
        code = dispatch(
            [
                "simulate",
                "--noise-mode", "dynamical",
                "--sigma", "0.2",
                "--length", "500",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        values = [float(line) for line in out.read_text().splitlines()]
        assert len(values) == 500
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma", "nan"], "sigma: must be finite, got nan"),
            (["--sigma", "inf"], "sigma: must be finite, got inf"),
            (["--sigma", "-0.1"], "sigma: must be >= 0, got -0.1"),
            (["--lambda", "nan"], "lambda: must be finite, got nan"),
            (["--lambda", "5"], "lambda: logistic parameter must be in (0, 4], got 5.0"),
            (["--x0", "0.3", "--sigma", "nan"], "sigma: must be finite, got nan"),
            # the orbit's size follows the sweep's limits too
            (["--burn-in", str(2**24 + 1)], "burn_in: must be in [0, 16777216], got 16777217"),
            (["--burn-in", "-1"], "burn_in: must be in [0, 16777216], got -1"),
            (["--length", str(2**24 + 1)], "length: must be in [1, 16777216], got 16777217"),
            (["--x0", "0.3", "--length", str(2**24 + 1)], "length: must be in [1, 16777216], got 16777217"),
            # seeds.mix keeps the low 64 bits: these would run as 2**64 - 1 and as 5
            (["--seed", "-1"], f"seed: must be in [0, {2**64 - 1}], got -1"),
            (
                ["--x0", "0.3", "--seed", str(2**64 + 5)],
                f"seed: must be in [0, {2**64 - 1}], got {2**64 + 5}",
            ),
            # generate_orbit would refuse these with exit 1
            (["--x0", "1.5"], "x0: must be in [0, 1], got 1.5"),
            (["--x0", "-0.1"], "x0: must be in [0, 1], got -0.1"),
            (["--x0", "nan"], "x0: must be in [0, 1], got nan"),
            # generate_orbit and sample_invariant_orbit would refuse these with exit 1
            (["--length", "0"], "length: must be in [1, 16777216], got 0"),
            (["--x0", "0.3", "--length", "-5"], "length: must be in [1, 16777216], got -5"),
        ],
    )
    def test_bad_sigma_or_lambda_exits_2_before_any_orbit(self, tmp_path, monkeypatch, capsys, flags, message):
        for name in ("generate_orbit", "sample_invariant_orbit"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("an orbit was built"))
        out = tmp_path / "orbit.txt"
        assert dispatch(["simulate", "--noise-mode", "dynamical", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_boundary_defaults_to_reflect_like_sweep(self, tmp_path):
        argv = ["simulate", "--noise-mode", "dynamical", "--sigma", "0.5", "--seed", "3",
                "--length", "2000"]
        default, reflect = tmp_path / "default.txt", tmp_path / "reflect.txt"
        assert dispatch([*argv, "--out", str(default)]) == 0
        assert dispatch([*argv, "--boundary", "reflect", "--out", str(reflect)]) == 0
        assert default.read_bytes() == reflect.read_bytes()


# the texts of test_symbol_file_read_as_int_reads_it that int() reads but a
# symbol file may not hold, and the first token of each that is not an
# unsigned decimal, named by its bytes
NOT_DECIMAL = {
    "+5 -0 0012 -7": "'+5'",
    "1_0 3 \u0663": "'1_0'",
    "4\xa05 6": r"'4\xc2\xa05'",
    "7\x1c8": r"'7\x1c8'",
}


class TestCompressionCommands:
    def test_round_trip_through_files(self, tmp_path):
        rng = np.random.default_rng(11)
        symbols = rng.integers(0, 8, size=5000)
        src = tmp_path / "in.txt"
        src.write_text("\n".join(map(str, symbols.tolist())))
        packed = tmp_path / "out.bin"
        restored = tmp_path / "back.txt"

        assert dispatch(["compress", "--cells", "8", str(src), str(packed)]) == 0
        assert packed.read_bytes()[:4] == b"EPSC"
        assert dispatch(["decompress", str(packed), str(restored)]) == 0
        assert [int(x) for x in restored.read_text().split()] == symbols.tolist()

    def test_castore_round_trip(self, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("0 1 0 0 1 1 0 1")
        packed = tmp_path / "out.bin"
        restored = tmp_path / "back.txt"
        assert dispatch(["compress", "--cells", "2", "--algorithm", "castore", str(src), str(packed)]) == 0
        assert dispatch(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_text().split() == ["0", "1", "0", "0", "1", "1", "0", "1"]

    def test_corrupt_stream_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\x00" * 20)
        out = tmp_path / "out.txt"
        assert dispatch(["decompress", str(bad), str(out)]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", ["1", "70000"])
    def test_alphabet_beyond_stream_header_exits_2(self, tmp_path, monkeypatch, capsys, cells):
        monkeypatch.setattr(cli, "_read_symbols", lambda path: pytest.fail("the input was read"))
        packed = tmp_path / "out.bin"
        assert dispatch(["compress", "--cells", cells, str(tmp_path / "in.txt"), str(packed)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: n_list: must be in [2, 65535], got {cells}\n"
        )
        assert not packed.exists()

    def test_missing_input_exits_1(self, tmp_path):
        assert dispatch(["compress", "--cells", "2", str(tmp_path / "nope.txt"), str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "token, message",
        [
            ("0x1", "'0x1'"),
            ("4294967296", "4294967296"),
            ("1.5", "error: symbol '1.5' is not an unsigned decimal"),
            ("1-2", "error: symbol '1-2' is not an unsigned decimal"),
            # numpy's reader clamps this to 2**63 - 1; the message keeps the token as written
            ("99999999999999999999", "error: symbol 99999999999999999999 out of bounds for int32"),
            ("5", "error: symbol 5 out of alphabet range [0, 2)"),
        ],
    )
    def test_bad_token_exits_1(self, tmp_path, capsys, token, message):
        src = tmp_path / "in.txt"
        src.write_text(f"0 1\n1 {token} 0\n")
        packed = tmp_path / "out.bin"
        assert dispatch(["compress", "--cells", "2", str(src), str(packed)]) == 1
        assert message in capsys.readouterr().err
        assert not packed.exists()

    def test_non_ascii_byte_exits_1(self, tmp_path, capsys):
        # not UTF-8 either: the reader names the byte, not a decoding error
        src = tmp_path / "in.txt"
        src.write_bytes(b"0 1\n\xff 0\n")
        assert dispatch(["compress", "--cells", "2", str(src), str(tmp_path / "out.bin")]) == 1
        assert capsys.readouterr().err == "error: symbol '\\xff' is not an unsigned decimal\n"

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_bad_token_across_read_chunks_is_named_whole(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_TEXT_CHUNK", chunk)
        src = tmp_path / "in.txt"
        src.write_text("12 3456.789 0")
        with pytest.raises(ValueError, match=r"^symbol '3456\.789' is not an unsigned decimal$"):
            cli._read_symbols(str(src))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 18])
    def test_symbol_file_parsed_across_read_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_TEXT_CHUNK", chunk)
        text = " 12 0\n\n3\t45  6\r\n7 \n 890 1"
        src = tmp_path / "in.txt"
        src.write_text(text)
        symbols = cli._read_symbols(str(src))
        assert symbols.dtype == np.int32
        assert symbols.tolist() == [int(tok) for tok in text.split()]

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 18])
    @pytest.mark.parametrize(
        "text",
        [
            "+5 -0 0012 -7",  # signs and leading zeros
            "1_0 3 \u0663",  # int() reads an underscore and an Arabic-Indic three
            "4\xa05 6",  # a no-break space separates for str.split
            "7\x1c8",  # so does a file separator
            "9" + " " * 8 + "\n\t 10",  # whitespace-only read chunks; numpy reads "  " as [0]
            "  \n\t  ",
            "\v1\f2\r3",
        ],
    )
    def test_symbol_file_read_as_int_reads_it(self, tmp_path, monkeypatch, capsys, chunk, text):
        # texts on which numpy's C reader and int() disagree or need care: the
        # whitespace texts read as int() reads them, the others exit 1 naming
        # their first token that is not an unsigned decimal, as bytes
        monkeypatch.setattr(cli, "_TEXT_CHUNK", chunk)
        src = tmp_path / "in.txt"
        src.write_text(text)
        if text in NOT_DECIMAL:
            packed = tmp_path / "out.bin"
            assert dispatch(["compress", "--cells", "2", str(src), str(packed)]) == 1
            assert capsys.readouterr().err == (
                f"error: symbol {NOT_DECIMAL[text]} is not an unsigned decimal\n"
            )
            assert not packed.exists()
            return
        symbols = cli._read_symbols(str(src))
        assert symbols.dtype == np.int32
        assert symbols.tolist() == [int(tok) for tok in text.split()]

    @pytest.mark.parametrize("chunk", [3, 1 << 18])
    @pytest.mark.parametrize("length", [0, 1, 1000])
    def test_decompressed_file_is_one_symbol_per_line(self, tmp_path, monkeypatch, chunk, length):
        monkeypatch.setattr(cli, "_TEXT_CHUNK", chunk)
        symbols = np.random.default_rng(length).integers(0, 300, size=length)
        stream, _ = epsent.compressor.castore_encode(symbols, alphabet_size=300)
        packed = tmp_path / "in.bin"
        packed.write_bytes(stream)
        restored = tmp_path / "out.txt"
        assert dispatch(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == "".join(f"{s}\n" for s in symbols.tolist()).encode()


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_command_still_parses_its_own_flags(self):
        args = cli.build_parser().parse_args(["sweep", "--sigma", "0.1", "--sigma", "0.2"])
        assert args.sigma == [0.1, 0.2]
        # a repeatable flag's list is the parse's own, not kept by the parser
        assert cli.build_parser().parse_args(["sweep"]).sigma is None


class TestDetectCommand:
    def test_detect_on_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = dispatch(
            [
                "sweep",
                "--sigma", "0.1",
                "--cells", "2", "--cells", "4", "--cells", "8", "--cells", "16",
                "--length", "2000",
                "--p-samples", "1000",
                "--out-csv", str(csv_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert dispatch(["detect", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "sigma=0.1" in out
        assert "status=" in out

    @pytest.mark.parametrize("flag", ["--flat-slope", "--noise-slope"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_slope_exits_2(self, tmp_path, capsys, flag, value):
        # a nan threshold would pass silently as status=undetermined
        path = tmp_path / "sweep.csv"
        path.write_text("sigma,eps,compression_rate_bits,cond_entropy_bits\n0.1,0.5,1,1\n")
        assert dispatch(["detect", str(path), f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {flag}: must be finite, got {float(value)!r}\n"
        assert captured.out == ""

    GOOD_BLOCK = [("0.5", "1", "1"), ("0.25", "1", "1"), ("0.125", "1", "1"), ("0.0625", "1", "1")]

    @pytest.mark.parametrize(
        "row, value, named",
        [
            (1, ("0.5", "1", "1"), "eps 0.5 repeats"),
            (1, ("0", "1", "1"), "eps 0.0 must be finite and > 0"),
            (1, ("-0.25", "1", "1"), "eps -0.25 must be finite and > 0"),
            (1, ("nan", "1", "1"), "eps nan must be finite and > 0"),
            (1, ("inf", "1", "1"), "eps inf must be finite and > 0"),
            (1, ("0.25", "nan", "1"), "rate nan at eps 0.25 is not finite"),
            (2, ("0.125", "1", "-inf"), "plateau value -inf at eps 0.125 is not finite"),
        ],
        ids=["repeat", "zero", "negative", "nan", "inf", "nan_rate", "inf_plateau"],
    )
    def test_unreadable_curve_exits_1_before_printing(self, tmp_path, capsys, row, value, named):
        # sigma=0.2 is read, and would be printed, before the bad sigma=0.1
        bad = list(self.GOOD_BLOCK)
        bad[row] = value
        lines = ["sigma,eps,compression_rate_bits,cond_entropy_bits"]
        lines += [",".join(("0.2", *r)) for r in self.GOOD_BLOCK]
        lines += [",".join(("0.1", *r)) for r in bad]
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        assert dispatch(["detect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sigma=0.1: {named}\n"

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_exits_1(self, tmp_path, capsys, sigma):
        lines = ["sigma,eps,compression_rate_bits,cond_entropy_bits"]
        lines += [",".join(("0.2", *r)) for r in self.GOOD_BLOCK]
        lines += [",".join((sigma, *r)) for r in self.GOOD_BLOCK]
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        assert dispatch(["detect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sigma {float(sigma)!r} is not finite\n"

    def write_csv(self, tmp_path, rows):
        """A detect CSV whose sigma=0.2 curve is good, then ``rows``."""
        lines = ["sigma,eps,compression_rate_bits,cond_entropy_bits"]
        lines += [",".join(("0.2", *r)) for r in self.GOOD_BLOCK] + rows
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_negative_sigma_exits_1(self, tmp_path, capsys):
        # RunConfig refuses a negative sigma; detect used to read it as undetermined
        path = self.write_csv(tmp_path, [",".join(("-0.1", *r)) for r in self.GOOD_BLOCK])
        assert dispatch(["detect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sigma -0.1 must be >= 0\n"

    def test_negative_zero_sigma_is_read(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, [",".join(("-0.0", *r)) for r in self.GOOD_BLOCK])
        assert dispatch(["detect", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("sigma=0 status=")

    @pytest.mark.parametrize(
        "zeros", [("-0.0", "0.0"), ("0.0", "-0.0")], ids=["minus_first", "plus_first"]
    )
    def test_signed_zero_sigmas_are_one_curve(self, tmp_path, capsys, zeros):
        # the first two rows spell sigma one way, the last two the other way
        rows = [",".join((zeros[i // 2], *r)) for i, r in enumerate(self.GOOD_BLOCK)]
        assert dispatch(["detect", str(self.write_csv(tmp_path, rows))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sigma=0.2 status=")
        assert lines[1].startswith("sigma=0 status=")

    def test_csv_without_rows_exits_1(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("sigma,eps,compression_rate_bits,cond_entropy_bits\n")
        assert dispatch(["detect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: no rows\n"

    @pytest.mark.parametrize(
        "row, named",
        [
            ("0.1,abc,1,1", "column eps: 'abc' is not a number"),
            ("0.1,0.5", "column compression_rate_bits: no value"),
            ("0.1,0.5,1,", "column cond_entropy_bits: '' is not a number"),
            ("x,0.5,1,1", "column sigma: 'x' is not a number"),
        ],
        ids=["text", "short_row", "empty_field", "text_sigma"],
    )
    def test_unreadable_value_names_line_and_column(self, tmp_path, capsys, row, named):
        # the bad row is line 6: the header and sigma=0.2's four rows come first
        path = self.write_csv(tmp_path, [row])
        assert dispatch(["detect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} line 6, {named}\n"

    def test_detect_rejects_foreign_csv(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        assert dispatch(["detect", str(path)]) == 1
        assert "no sigma column" in capsys.readouterr().err
        # each column detect reads is named when it is the one missing
        columns = ["sigma", "eps", "compression_rate_bits", "cond_entropy_bits"]
        for missing in columns:
            kept = [c for c in columns if c != missing]
            path.write_text(",".join(kept) + "\n" + ",".join("1" for _ in kept) + "\n")
            assert dispatch(["detect", str(path)]) == 1
            assert f"no {missing} column" in capsys.readouterr().err


class TestSelftest:
    @pytest.mark.parametrize("oracle", [fn for _, fn in selftest.ORACLES],
                             ids=[name for name, _ in selftest.ORACLES])
    def test_oracle(self, oracle):
        oracle()

    def test_all_oracles_pass(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_oracles_still_check_under_optimize(self):
        # python -O strips assert statements; the oracles must fail anyway
        script = (
            "import sys\n"
            "from epsent import bounds, cli\n"
            "bounds.output_noise_upper = lambda *args: 0.0\n"
            "sys.exit(cli.dispatch(['selftest']))\n"
        )
        src = str(Path(epsent.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=300, env={"PYTHONPATH": src},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "bound arithmetic" in proc.stdout
        assert "11/12 checks passed" in proc.stdout

import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import warnings
from collections import Counter

import pytest

import epsent.sweep
from epsent.cli import dispatch
from epsent.config import RunConfig
from epsent.dynamics import MapSpec, NoiseSpec, sample_invariant_orbit
from epsent.estimators import choose_n0, default_max_block
from epsent.partition import Partition, encode, refine_cylinders
from epsent.seeds import companion_seed, orbit_seed, probe_seed
from epsent.sweep import (
    CSV_COLUMNS,
    companion_stats,
    curves_to_rows,
    detect_sigma,
    emit_csv,
    emit_plot_data,
    run_grid,
)

SMALL = RunConfig(
    sigma=(0.1, 0.01),
    n_list=(2, 4, 8),
    length=20_000,
    p_samples=4000,
    workers=1,
)

TENT_SMALL = dataclasses.replace(SMALL, map="tent", noise_mode="output", algorithm="castore")

# sha256 of each grid's CSV.  The other determinism tests compare runs with
# each other, so only these catch a byte drift that every run shares; a
# change that moves them changes the sweep's output and must say why.
CSV_SHA256 = {
    "logistic": "40c9b70071d228e13686cc1035ae2b1e6e369f38a1b4614882024f41d57930d8",
    "tent": "000da354cba534abda94476cfabd28a7769f9c3e3480f39715cefc0a4e94d931",
    "headline": "380e83efb28e3c07b0a20f56d70dfdb3ea12dd9ce3c51b64793b5eba329e7970",
}
# sha256 of the headline grid's gnuplot data, written from the same cells
HEADLINE_PLOT_SHA256 = "b3020b0942e891aca478b3c1e5cafbc392f70669ece74685e81efddf52beef6f"


def csv_sha256(cells, tmp_path) -> str:
    path = tmp_path / "grid.csv"
    emit_csv(cells, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_cells():
    return run_grid(SMALL)


# the shipped grid warns that its finest partitions are undersampled
@pytest.fixture(scope="module")
def headline_csv(tmp_path_factory):
    """The benchmark's headline workload: the default grid at 50,000 symbols on 1 worker.

    Its gnuplot data sits beside it, as ``grid.dat``."""
    path = tmp_path_factory.mktemp("headline") / "grid.csv"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "length 50000 below recommended")
        cells = run_grid(RunConfig(length=50_000, workers=1))
    emit_csv(cells, str(path))
    emit_plot_data(cells, str(path.with_suffix(".dat")))
    return path


# `epsent detect` on the headline CSV
HEADLINE_DETECT = (
    "sigma=0.5 status=noise_only eps2=0.25 eps1=nan\n"
    "sigma=0.1 status=detected eps2=0.0833333 eps1=0.333333 sigma_estimate=0.166667\n"
    "sigma=0.02 status=detected eps2=0.03125 eps1=0.125 sigma_estimate=0.0625\n"
    "sigma=0.01 status=detected eps2=0.015625 eps1=0.125 sigma_estimate=0.0441942\n"
    "sigma=0.001 status=undetermined eps2=0.004 eps1=0.004\n"
)


def one_series(eps, rate):
    """(eps, rate, plateau value) rows in which one series judges both edges."""
    return [(e, rate(e), rate(e)) for e in eps]


def flat(*eps):
    return one_series(eps, lambda e: 1.0)


class TestDetectSigma:
    def dense_grid(self):
        return [2 ** (-k / 4) for k in range(2, 40)]

    def test_knee_curve_detected_at_half(self):
        det = detect_sigma(one_series(self.dense_grid(), lambda e: max(1.0, -math.log2(e))))
        assert det.status == "detected"
        assert det.eps2 < det.eps1
        assert det.sigma_estimate == pytest.approx(0.5, rel=0.35)

    def test_flat_curve(self):
        det = detect_sigma(flat(*self.dense_grid()))
        assert det.status == "plateau_only"
        assert math.isnan(det.eps2)

    def test_pure_noise_curve(self):
        det = detect_sigma(one_series(self.dense_grid(), lambda e: -math.log2(e)))
        assert det.status == "noise_only"
        assert math.isnan(det.eps1)

    def test_too_few_points(self):
        det = detect_sigma(flat(0.5, 0.25, 0.125))
        assert det.status == "undetermined"

    def test_neither_edge_is_undetermined(self):
        # a slope of 1/2 everywhere: too steep to be flat, too shallow for noise
        det = detect_sigma(one_series([2.0**-k for k in range(1, 6)], lambda e: -0.5 * math.log2(e)))
        assert det.status == "undetermined"
        assert math.isnan(det.eps1) and math.isnan(det.eps2)

    def test_plateau_values_judge_the_flat_edge(self):
        # only the plateau values are flat before the knee (the rate alone
        # reads noise_only); rows unsorted
        rows = [
            (e, max(1.0, -math.log2(e)) - 0.2 * math.log2(e), max(1.0, -math.log2(e)))
            for e in self.dense_grid()
        ]
        assert detect_sigma([(e, rate, rate) for e, rate, _ in rows]).status == "noise_only"
        det = detect_sigma(rows[1::2] + rows[::2])
        assert det.status == "detected"
        assert repr(det) == repr(detect_sigma(rows))

    def test_sigma_estimate_nan_unless_detected(self):
        det = detect_sigma(flat(*self.dense_grid()))
        assert math.isnan(det.sigma_estimate)

    @pytest.mark.parametrize(
        "rows, named",
        [
            (flat(0.5, 0.5, 0.25, 0.125), "eps 0.5 repeats"),
            (flat(0.5, 0.0, 0.25, 0.125), "eps 0.0 must be"),
            (flat(0.5, -0.25, 0.125, 0.0625), "eps -0.25 must be"),
            (flat(0.5, math.inf, 0.125, 0.0625), "eps inf must be"),
            (flat(0.5, math.nan, 0.125, 0.0625), "eps nan must be"),
            ([(0.5, 1.0, 1.0), (0.25, math.nan, 1.0), (0.125, 1.0, 1.0)], "rate nan at eps 0.25"),
            ([(0.5, 1.0, 1.0), (0.25, 1.0, -math.inf)], "plateau value -inf at eps 0.25"),
            # a pair (eps, rate) or a wider row is not read as a triple
            pytest.param(
                [(0.5, 1.0, 1.0), (0.25, 1.0), (0.125, 1.0, 1.0)], r"row \(0\.25, 1\.0\) is not",
                id="pair_row",
            ),
            pytest.param(
                [(0.5, 1.0, 1.0, 1.0), (0.25, 1.0, 1.0)], r"row \(0\.5, 1\.0, 1\.0, 1\.0\) is not",
                id="wide_row",
            ),
        ],
    )
    def test_refuses_an_unreadable_curve(self, rows, named):
        # checked before the short-curve shortcut, so a bad value never reads
        # as a status
        with pytest.raises(ValueError, match=named):
            detect_sigma(rows)


class TestCompanionStats:
    def test_logistic_reference_values(self):
        stats = companion_stats(SMALL)
        assert len(stats) == 3
        # the refined partition is finer than its N-cell partition
        for n, (_, eps_n0) in zip((2, 4, 8), stats):
            assert 0.0 < eps_n0 <= 1.0 / n
        binary, _ = stats[0]
        assert 0.9 <= binary.deepest <= 1.05
        assert binary.n0 >= 1

    @pytest.mark.parametrize(
        "config",
        [SMALL, dataclasses.replace(TENT_SMALL, max_block=3, miller_madow=True, delta=0.01)],
        ids=["logistic", "tent_max_block"],
    )
    def test_hands_over_the_companion_depth_selection(self, config):
        # each partition gets choose_n0's whole selection on the noise-free
        # orbit, depth and cond_entropies included, and its n0 refinement
        spec = MapSpec(config.map, config.lam)
        noise0 = NoiseSpec(
            sigma=0.0, mode="none", boundary=config.boundary, seed=companion_seed(config.seed)
        )
        orbit = sample_invariant_orbit(spec, noise0, config.length, config.burn_in).points
        cells = sorted(config.n_list)
        stats = companion_stats(config)
        assert len(stats) == len(cells)
        for n, (sel, eps_n0) in zip(cells, stats):
            max_block = config.max_block or default_max_block(config.length, n)
            expected = choose_n0(
                encode(orbit, Partition(n)), config.delta, max_depth=max_block - 1,
                miller_madow=config.miller_madow,
            )
            assert sel == expected
            assert eps_n0 == refine_cylinders(spec, Partition(n), expected.n0).min_diameter


class TestRunGrid:
    def test_shape_and_ordering(self, small_cells):
        # CSV order: sigma descending, then eps descending (N ascending)
        assert [(p.sigma, p.n_cells) for p in small_cells] == [
            (sigma, n) for sigma in (0.1, 0.01) for n in (2, 4, 8)
        ]
        eps = [p.eps for p in small_cells[:3]]
        assert eps == sorted(eps, reverse=True)
        assert {p.orbit_len for p in small_cells} == {SMALL.length}

    def test_rates_within_cap(self, small_cells):
        for p in small_cells:
            ceiling = 1.15 * math.log2(1.0 / p.eps) + 0.45
            assert 0.0 <= p.compression_rate <= ceiling

    def test_pure_noise_and_kifer_columns_monotone(self, small_cells):
        for sigma in SMALL.sigma:
            cells = [p for p in small_cells if p.sigma == sigma]
            pure = [p.bounds.pure_noise_line for p in cells]
            kifer = [p.bounds.kifer_lower for p in cells]
            assert pure == sorted(pure)
            assert kifer == sorted(kifer)

    def test_reflect_kifer_uses_folded_density(self, small_cells):
        # reflection folds up to two preimages onto a point, so K = 1/sigma
        assert SMALL.boundary == "reflect"
        for p in small_cells:
            expected = -math.log2(p.eps) + math.log2(p.sigma)
            assert p.bounds.kifer_lower == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["output", "dynamical"])
    def test_noise_free_cells_keep_the_configured_mode(self, mode):
        # sigma = 0: h_eps under output noise, h_eps plus the gap under dynamical
        config = dataclasses.replace(
            SMALL, noise_mode=mode, sigma=(0.0,), n_list=(2, 4), length=2000
        )
        sels = {n: sel for n, (sel, _) in zip((2, 4), companion_stats(config))}
        assert any(sel.gap > 0.0 for sel in sels.values())
        for p in run_grid(config):
            sel = sels[p.n_cells]
            gap = sel.gap if mode == "dynamical" else 0.0
            assert p.bounds.upper_bound == sel.deepest + gap

    def test_rerun_is_identical(self, small_cells, tmp_path):
        again = run_grid(SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_cells, str(a))
        emit_csv(again, str(b))
        assert a.read_bytes() == b.read_bytes()

    # SMALL has 3 partitions: 2 workers do not divide them, 5 exceed them
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_worker_count_does_not_change_bytes(self, small_cells, tmp_path, workers):
        parallel = run_grid(dataclasses.replace(SMALL, workers=workers))
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(small_cells, str(a))
        emit_csv(parallel, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_logistic_csv_bytes_pinned(self, small_cells, tmp_path):
        assert csv_sha256(small_cells, tmp_path) == CSV_SHA256["logistic"]

    def test_tent_output_castore_csv_bytes_pinned(self, tmp_path):
        assert csv_sha256(run_grid(TENT_SMALL), tmp_path) == CSV_SHA256["tent"]

    def test_headline_csv_bytes_pinned(self, headline_csv):
        assert hashlib.sha256(headline_csv.read_bytes()).hexdigest() == CSV_SHA256["headline"]

    def test_headline_plot_bytes_pinned(self, headline_csv):
        plot = headline_csv.with_suffix(".dat").read_bytes()
        assert hashlib.sha256(plot).hexdigest() == HEADLINE_PLOT_SHA256

    def test_detect_on_headline_csv_pinned(self, headline_csv, capsys):
        # the refusals of `epsent detect` leave a sweep's own CSV readable
        assert dispatch(["detect", str(headline_csv)]) == 0
        assert capsys.readouterr().out == HEADLINE_DETECT

    def test_input_order_does_not_matter(self, small_cells, tmp_path):
        shuffled = dataclasses.replace(SMALL, sigma=(0.01, 0.1), n_list=(8, 2, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_cells, str(a))
        emit_csv(run_grid(shuffled), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_signed_zero_sigma_reads_as_zero(self, tmp_path, monkeypatch):
        # -0.0 == 0.0, so the first one given used to name the grid's one sigma
        monkeypatch.chdir(tmp_path)
        outputs = []
        for i, sigmas in enumerate([("0.0", "-0.0"), ("-0.0", "0.0"), ("-0.0",)]):
            argv = ["sweep", "--cells", "2", "--cells", "4", "--length", "2000"]
            argv += [arg for s in sigmas for arg in ("--sigma", s)]
            assert dispatch([*argv, "--out-csv", f"{i}.csv", "--out-plot", f"{i}.dat"]) == 0
            outputs.append(tuple((tmp_path / f"{i}.{ext}").read_text() for ext in ("csv", "dat")))
        assert outputs == [outputs[0]] * 3
        csv_text, plot_text = outputs[0]
        assert [row.split(",")[0] for row in csv_text.splitlines()[1:]] == ["0", "0"]
        assert plot_text.startswith("# sigma = 0\n")


def sigma_builds(config, si):
    """(seed, length, burn_in) of sigma ``si``'s orbit and of its probe's orbit."""
    return [
        (orbit_seed(config.seed, si), config.length, config.burn_in),
        (probe_seed(config.seed, si), config.p_samples, config.burn_in),
    ]


class TestSharedOrbit:
    """Every orbit a sweep draws, the probes' included, goes through one name."""

    def test_one_orbit_per_sigma(self, monkeypatch):
        calls = []
        generate = epsent.sweep.sample_invariant_orbit

        def recording(spec, noise, length, burn_in=1000):
            calls.append((noise.seed, length, burn_in))
            return generate(spec, noise, length, burn_in)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        config = dataclasses.replace(SMALL, burn_in=700)
        run_grid(config)
        assert calls == [(companion_seed(config.seed), config.length, config.burn_in)] + [
            build for si in range(len(config.sigma)) for build in sigma_builds(config, si)
        ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the recording orbit builder only when forked",
    )
    @pytest.mark.parametrize("workers", [2, 5])
    def test_each_sigma_orbit_built_once_per_slice(self, monkeypatch, tmp_path, workers):
        log = tmp_path / "builds.txt"
        generate = epsent.sweep.sample_invariant_orbit

        def recording(spec, noise, length, burn_in=1000):
            with open(log, "a") as fh:
                fh.write(f"{noise.seed} {length} {burn_in}\n")
            return generate(spec, noise, length, burn_in)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        config = dataclasses.replace(SMALL, workers=workers)
        run_grid(config)
        slices = min(workers, len(config.n_list))
        builds = Counter(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert builds == {
            (companion_seed(config.seed), config.length, config.burn_in): 1,
            **{
                build: slices
                for si in range(len(config.sigma))
                for build in sigma_builds(config, si)
            },
        }


def probe_points(config, si):
    """The orbit points whose images are sigma ``si``'s mismatch probe."""
    noise = NoiseSpec(
        sigma=config.sigma[si], mode=config.noise_mode, boundary=config.boundary,
        seed=probe_seed(config.seed, si),
    )
    spec = MapSpec(config.map, config.lam)
    return sample_invariant_orbit(spec, noise.feedback, config.p_samples, config.burn_in).points


class TestSharedProbe:
    """Each sigma maps one probe orbit, and only its own, to the images f(x)."""

    def test_one_probe_per_sigma(self, monkeypatch):
        builds, mapped = {}, []
        generate, iterate = epsent.sweep.sample_invariant_orbit, epsent.sweep.iterate_map_array

        def recording_build(spec, noise, length, burn_in=1000):
            orbit = generate(spec, noise, length, burn_in)
            builds[id(orbit.points)] = (noise, length, burn_in)
            return orbit

        def recording_map(spec, x):
            mapped.append(builds[id(x)])
            return iterate(spec, x)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording_build)
        monkeypatch.setattr(epsent.sweep, "iterate_map_array", recording_map)
        # the probe takes all of dynamical noise and none of output noise
        for config in (SMALL, TENT_SMALL):
            config = dataclasses.replace(config, burn_in=700)
            mapped.clear()
            run_grid(config)
            assert mapped == [
                (
                    NoiseSpec(
                        sigma=sigma, mode=config.noise_mode, boundary=config.boundary,
                        seed=probe_seed(config.seed, si),
                    ).feedback,
                    config.p_samples,
                    config.burn_in,
                )
                for si, sigma in enumerate(config.sigma)
            ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the recording probe mapper only when forked",
    )
    @pytest.mark.parametrize("workers", [2, 5])
    def test_each_sigma_probe_built_once_per_slice(self, monkeypatch, tmp_path, workers):
        log = tmp_path / "probes.txt"
        iterate = epsent.sweep.iterate_map_array

        def recording(spec, x):
            with open(log, "a") as fh:
                fh.write(hashlib.sha256(x.tobytes()).hexdigest() + "\n")
            return iterate(spec, x)

        monkeypatch.setattr(epsent.sweep, "iterate_map_array", recording)
        config = dataclasses.replace(SMALL, workers=workers)
        run_grid(config)
        slices = min(workers, len(config.n_list))
        assert Counter(log.read_text().split()) == {
            hashlib.sha256(probe_points(config, si).tobytes()).hexdigest(): slices
            for si in range(len(config.sigma))
        }


class TestWorkerPool:
    @pytest.mark.parametrize("workers, processes", [(2, 2), (4, 4), (64, 6)])
    def test_pool_starts_at_most_one_process_per_task(self, monkeypatch, tmp_path, workers, processes):
        # SMALL's 2 sigmas x min(workers, 3) slices make 6 tasks; a recorder
        # stands in for the pool, so no process starts
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cells = run_grid(dataclasses.replace(SMALL, workers=workers))
        assert sizes == [processes]
        assert csv_sha256(cells, tmp_path) == CSV_SHA256["logistic"]


class TestWarnings:
    def test_undersampling_warnings_name_the_cell(self):
        # 20,000 symbols undersample the 2-words of 250 cells, which both the
        # block rate and the conditional entropy count
        config = dataclasses.replace(SMALL, sigma=(0.1,), n_list=(250,))
        with pytest.warns(UserWarning, match="recommended") as record:
            run_grid(config)
        assert len(record) == 2
        assert {w.filename for w in record} == {epsent.sweep.__file__}


class TestCsvEmission:
    def test_header_and_row_count(self, small_cells, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_cells, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3

    def test_rows_sorted_sigma_desc_eps_desc(self, small_cells):
        rows = curves_to_rows(small_cells)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys, key=lambda t: (-t[0], -t[1]))

    def test_envelope_low_is_kifer_lower_in_every_row(self, small_cells):
        rows = [dict(zip(CSV_COLUMNS, row)) for row in curves_to_rows(small_cells)]
        assert rows and all(row["envelope_low"] == row["kifer_lower"] for row in rows)

    def test_empty_curve_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_unwritable_path(self, small_cells):
        with pytest.raises(OSError):
            emit_csv(small_cells, "/nonexistent-dir/out.csv")


class TestPlotData:
    def test_gnuplot_blocks(self, small_cells, tmp_path):
        path = tmp_path / "plot.dat"
        emit_plot_data(small_cells, str(path))
        text = path.read_text()
        blocks = text.split("\n\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# sigma = 0.1")
        first_line = blocks[0].splitlines()[1]
        eps, rate = first_line.split()
        assert float(eps) == 0.5
        assert float(rate) > 0.0

    def test_writers_keep_the_given_order(self, small_cells, tmp_path):
        backwards = small_cells[::-1]
        assert curves_to_rows(backwards) == curves_to_rows(small_cells)[::-1]
        path = tmp_path / "plot.dat"
        emit_plot_data(backwards, str(path))
        blocks = path.read_text().split("\n\n\n")
        assert [b.splitlines()[0] for b in blocks] == ["# sigma = 0.01", "# sigma = 0.1"]
        eps = [float(line.split()[0]) for line in blocks[0].splitlines()[1:]]
        assert eps == [0.125, 0.25, 0.5]

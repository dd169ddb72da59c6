import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import epsent.sweep
from epsent.cli import dispatch
from epsent.config import RunConfig
from epsent.dynamics import (
    MAP_KINDS,
    MapSpec,
    NoiseSpec,
    apply_boundary_array,
    iterate_map_array,
    sample_invariant_orbit,
    sample_noise,
)
from epsent.estimators import choose_n0, default_max_block
from epsent.partition import Partition, encode, refine_cylinders
from epsent.seeds import companion_seed, orbit_seed
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
    "logistic": "44a5aca654e26fab8bf12b8d039f9b6a2e8b64f7b99ca5e7c216d9198b7d785e",
    "tent": "9101fd134f6c6fcf8401a4cb5cee92545d0f3424c27a68f5084e5dfda7d3966c",
    "headline": "c0802fdf8ba97d433676a2229938b0e45ba7ba9adf0a89612c08746f15f81dfd",
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
            assert 0.0 <= p.compression_rate_bits <= ceiling

    def test_pure_noise_and_kifer_columns_monotone(self, small_cells):
        for sigma in SMALL.sigma:
            cells = [p for p in small_cells if p.sigma == sigma]
            pure = [p.pure_noise_line for p in cells]
            kifer = [p.kifer_lower for p in cells]
            assert pure == sorted(pure)
            assert kifer == sorted(kifer)

    def test_reflect_kifer_uses_folded_density(self, small_cells):
        # reflection folds up to two preimages onto a point, so K = 1/sigma
        assert SMALL.boundary == "reflect"
        for p in small_cells:
            expected = -math.log2(p.eps) + math.log2(p.sigma)
            assert p.kifer_lower == pytest.approx(expected, rel=0, abs=1e-12)

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
            assert p.upper_bound == sel.deepest + gap

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


def probe_reads(config):
    """States of each sigma's orbit that its probe maps: one per transition read."""
    return min(config.p_samples, config.length - 1)


def sigma_build(config, si):
    """(seed, length, burn_in) of sigma ``si``'s one orbit."""
    return (orbit_seed(config.seed, si), config.length, config.burn_in)


class TestSharedOrbit:
    """Every orbit a sweep draws goes through one name, once per sigma and
    slice; the probe is read off that orbit."""

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
            sigma_build(config, si) for si in range(len(config.sigma))
        ]

    @pytest.mark.parametrize("p_samples", [2000, 5000])
    def test_probe_reads_at_most_length_minus_one(self, monkeypatch, p_samples):
        lengths, reads = [], []
        generate, iterate = epsent.sweep.sample_invariant_orbit, epsent.sweep.iterate_map_array

        def recording(spec, noise, length, burn_in=1000):
            lengths.append(length)
            return generate(spec, noise, length, burn_in)

        def recording_map(spec, x):
            reads.append(len(x))
            return iterate(spec, x)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        monkeypatch.setattr(epsent.sweep, "iterate_map_array", recording_map)
        config = RunConfig(sigma=(0.1,), n_list=(2, 4), length=2000, p_samples=p_samples)
        cells = run_grid(config)
        assert (lengths, reads) == ([2000, 2000], [1999])
        for p in cells:
            assert p.p_halfwidth == pytest.approx(1.96 * math.sqrt(p.p_hat * (1 - p.p_hat) / 1999))

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
            **{sigma_build(config, si): slices for si in range(len(config.sigma))},
        }


def sigma_noise(config, si):
    """The noise of sigma ``si``'s orbit, seeded by its orbit seed."""
    return NoiseSpec(
        sigma=config.sigma[si], mode=config.noise_mode, boundary=config.boundary,
        seed=orbit_seed(config.seed, si),
    )


def probe_points(config, si):
    """The orbit states whose images are sigma ``si``'s mismatch probe."""
    spec = MapSpec(config.map, config.lam)
    orbit = sample_invariant_orbit(spec, sigma_noise(config, si), config.length, config.burn_in)
    return orbit.states[: probe_reads(config)]


class TestSharedProbe:
    """Each sigma maps the first states of its own orbit, and nothing else,
    to the images f(z)."""

    def test_one_probe_per_sigma(self, monkeypatch):
        builds, mapped = [], []
        generate, iterate = epsent.sweep.sample_invariant_orbit, epsent.sweep.iterate_map_array

        def recording_build(spec, noise, length, burn_in=1000):
            orbit = generate(spec, noise, length, burn_in)
            builds.append((noise, orbit))
            return orbit

        def recording_map(spec, x):
            # the build whose states x is the start of; kept builds stay allocated
            (noise,) = [
                noise for noise, orbit in builds
                if np.shares_memory(x, orbit.states) and np.array_equal(x, orbit.states[: len(x)])
            ]
            mapped.append((noise, len(x)))
            return iterate(spec, x)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording_build)
        monkeypatch.setattr(epsent.sweep, "iterate_map_array", recording_map)
        for config in (SMALL, TENT_SMALL):
            config = dataclasses.replace(config, burn_in=700)
            mapped.clear()
            run_grid(config)
            assert mapped == [
                (sigma_noise(config, si), probe_reads(config)) for si in range(len(config.sigma))
            ]

    def test_output_states_die_before_the_cells(self, monkeypatch):
        # under output noise the states are a second full-length array
        states, alive = [], []
        generate, cell = epsent.sweep.sample_invariant_orbit, epsent.sweep._cell_task

        def recording_build(spec, noise, length, burn_in=1000):
            orbit = generate(spec, noise, length, burn_in)
            states.append(weakref.ref(orbit.states.base))
            return orbit

        def recording_cell(*args):
            alive.append(states[-1]() is not None)
            return cell(*args)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording_build)
        monkeypatch.setattr(epsent.sweep, "_cell_task", recording_cell)
        run_grid(TENT_SMALL)
        assert alive == [False] * len(TENT_SMALL.sigma) * len(TENT_SMALL.n_list)

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

    @pytest.mark.parametrize("mode", ["dynamical", "output"])
    @pytest.mark.parametrize("boundary", ["clamp", "reflect"])
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_probe_is_the_observed_prefix_or_the_clean_orbit(self, monkeypatch, kind, boundary, mode):
        builds, probes = [], []
        generate, iterate = epsent.sweep.sample_invariant_orbit, epsent.sweep.iterate_map_array

        def recording(spec, noise, length, burn_in=1000):
            orbit = generate(spec, noise, length, burn_in)
            builds.append(orbit.points)
            return orbit

        def recording_map(spec, x):
            probes.append(x)
            return iterate(spec, x)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        monkeypatch.setattr(epsent.sweep, "iterate_map_array", recording_map)
        config = RunConfig(
            map=kind, noise_mode=mode, boundary=boundary, sigma=(0.5, 0.01, 0.001),
            n_list=(2, 8), length=3000, p_samples=1000, burn_in=100,
        )
        run_grid(config)
        spec, reads, part = MapSpec(kind), probe_reads(config), Partition(8)
        # the companion's orbit, then each sigma's observed orbit y; its probe z
        assert (len(builds), len(probes)) == (1 + len(config.sigma), len(config.sigma))
        for si, (y, z) in enumerate(zip(builds[1:], probes)):
            if mode == "dynamical":
                assert np.array_equal(z, y[:reads])
                continue
            noise = sigma_noise(config, si)
            quiet = dataclasses.replace(noise, sigma=0.0, mode="none")
            clean = generate(spec, quiet, config.length, config.burn_in).points
            w = sample_noise(noise, config.burn_in + config.length)[config.burn_in :]
            assert np.array_equal(y, apply_boundary_array(clean + w, boundary))
            assert np.array_equal(z, clean[:reads])
            # so each image's cell is the clean orbit's next cell
            assert np.array_equal(
                encode(iterate_map_array(spec, z), part).symbols,
                encode(clean[1 : reads + 1], part).symbols,
            )


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


@pytest.mark.parametrize(
    "writer, what", [(emit_csv, "CSV"), (emit_plot_data, "plot data")], ids=["csv", "plot"]
)
def test_writer_names_the_path_it_cannot_write(small_cells, tmp_path, writer, what):
    # a path under a regular file cannot be opened for writing
    (tmp_path / "file").write_text("")
    path = str(tmp_path / "file" / "out")
    with pytest.raises(OSError) as refusal:
        writer(small_cells, path)
    assert str(refusal.value).startswith(f"cannot write {what} to {path}: ")
    assert isinstance(refusal.value.__cause__, NotADirectoryError)


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

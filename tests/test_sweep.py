import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
from collections import Counter

import pytest

import epsent.sweep
from epsent.config import RunConfig
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
    "logistic": "40c9b70071d228e13686cc1035ae2b1e6e369f38a1b4614882024f41d57930d8",
    "tent": "000da354cba534abda94476cfabd28a7769f9c3e3480f39715cefc0a4e94d931",
}


def csv_sha256(curves, tmp_path) -> str:
    path = tmp_path / "grid.csv"
    emit_csv(curves, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_curves():
    return run_grid(SMALL)


class TestDetectSigma:
    def dense_grid(self):
        return [2 ** (-k / 4) for k in range(2, 40)]

    def test_knee_curve_detected_at_half(self):
        pairs = [(e, max(1.0, -math.log2(e))) for e in self.dense_grid()]
        det = detect_sigma(pairs)
        assert det.status == "detected"
        assert det.eps2 < det.eps1
        assert det.sigma_estimate == pytest.approx(0.5, rel=0.35)

    def test_flat_curve(self):
        det = detect_sigma([(e, 1.0) for e in self.dense_grid()])
        assert det.status == "plateau_only"
        assert math.isnan(det.eps2)

    def test_pure_noise_curve(self):
        det = detect_sigma([(e, -math.log2(e)) for e in self.dense_grid()])
        assert det.status == "noise_only"
        assert math.isnan(det.eps1)

    def test_too_few_points(self):
        det = detect_sigma([(0.5, 1.0), (0.25, 1.0), (0.125, 1.0)])
        assert det.status == "undetermined"

    def test_sigma_estimate_nan_unless_detected(self):
        det = detect_sigma([(e, 1.0) for e in self.dense_grid()])
        assert math.isnan(det.sigma_estimate)

    @staticmethod
    def triples(curve):
        return [(p.eps, p.compression_rate, p.cond_entropy) for p in curve.points]

    def test_curve_reads_as_its_triples(self, small_curves):
        for curve in small_curves:
            # repr compares the nan edges too
            assert repr(detect_sigma(curve)) == repr(detect_sigma(self.triples(curve)))

    def test_dense_curve_reads_as_its_triples(self, small_curves):
        # only the conditional entropy is flat before the knee (the rate alone
        # reads noise_only); points unsorted
        template = small_curves[0].points[0]
        points = [
            dataclasses.replace(
                template,
                eps=e,
                compression_rate=max(1.0, -math.log2(e)) - 0.2 * math.log2(e),
                cond_entropy=max(1.0, -math.log2(e)),
            )
            for e in self.dense_grid()
        ]
        points = points[1::2] + points[::2]
        curve = epsent.sweep.EntropyCurve(sigma=0.5, points=points, orbit_len=1)
        det = detect_sigma(curve)
        assert det.status == "detected"
        assert repr(det) == repr(detect_sigma(self.triples(curve)))


class TestCompanionStats:
    def test_logistic_reference_values(self):
        stats = companion_stats(SMALL)
        assert [s.n_cells for s in stats] == [2, 4, 8]
        binary = stats[0]
        assert 0.9 <= binary.h_eps <= 1.05
        assert binary.n0 >= 1
        assert binary.eps_n0 <= 0.5


class TestRunGrid:
    def test_shape_and_ordering(self, small_curves):
        assert [c.sigma for c in small_curves] == [0.1, 0.01]
        for curve in small_curves:
            eps = [p.eps for p in curve.points]
            assert eps == sorted(eps, reverse=True)
            assert len(curve.points) == 3
            assert curve.orbit_len == SMALL.length

    def test_rates_within_cap(self, small_curves):
        for curve in small_curves:
            for p in curve.points:
                ceiling = 1.15 * math.log2(1.0 / p.eps) + 0.45
                assert 0.0 <= p.compression_rate <= ceiling

    def test_pure_noise_and_kifer_columns_monotone(self, small_curves):
        for curve in small_curves:
            pure = [p.bounds.pure_noise_line for p in curve.points]
            kifer = [p.bounds.kifer_lower for p in curve.points]
            assert pure == sorted(pure)
            assert kifer == sorted(kifer)

    def test_reflect_kifer_uses_folded_density(self, small_curves):
        # reflection folds up to two preimages onto a point, so K = 1/sigma
        assert SMALL.boundary == "reflect"
        for curve in small_curves:
            for p in curve.points:
                expected = -math.log2(p.eps) + math.log2(curve.sigma)
                assert p.bounds.kifer_lower == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["output", "dynamical"])
    def test_noise_free_cells_keep_the_configured_mode(self, mode):
        # sigma = 0: h_eps under output noise, h_eps plus the gap under dynamical
        config = dataclasses.replace(
            SMALL, noise_mode=mode, sigma=(0.0,), n_list=(2, 4), length=2000
        )
        comps = {c.n_cells: c for c in companion_stats(config)}
        assert any(c.delta_gap > 0.0 for c in comps.values())
        (curve,) = run_grid(config)
        for p in curve.points:
            comp = comps[p.n_cells]
            gap = comp.delta_gap if mode == "dynamical" else 0.0
            assert p.bounds.upper_bound == comp.h_eps + gap

    def test_rerun_is_identical(self, small_curves, tmp_path):
        again = run_grid(SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_curves, str(a))
        emit_csv(again, str(b))
        assert a.read_bytes() == b.read_bytes()

    # SMALL has 3 partitions: 2 workers do not divide them, 5 exceed them
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_worker_count_does_not_change_bytes(self, small_curves, tmp_path, workers):
        parallel = run_grid(dataclasses.replace(SMALL, workers=workers))
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(small_curves, str(a))
        emit_csv(parallel, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_logistic_csv_bytes_pinned(self, small_curves, tmp_path):
        assert csv_sha256(small_curves, tmp_path) == CSV_SHA256["logistic"]

    def test_tent_output_castore_csv_bytes_pinned(self, tmp_path):
        assert csv_sha256(run_grid(TENT_SMALL), tmp_path) == CSV_SHA256["tent"]

    def test_input_order_does_not_matter(self, small_curves, tmp_path):
        shuffled = dataclasses.replace(SMALL, sigma=(0.01, 0.1), n_list=(8, 2, 4))
        curves = run_grid(shuffled)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_curves, str(a))
        emit_csv(curves, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSharedOrbit:
    def test_one_orbit_per_sigma(self, monkeypatch):
        seeds = []
        generate = epsent.sweep.sample_invariant_orbit

        def recording(spec, noise, length, burn_in=1000):
            seeds.append(noise.seed)
            return generate(spec, noise, length, burn_in)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        run_grid(SMALL)
        assert seeds == [companion_seed(SMALL.seed)] + [
            orbit_seed(SMALL.seed, si) for si in range(len(SMALL.sigma))
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
                fh.write(f"{noise.seed}\n")
            return generate(spec, noise, length, burn_in)

        monkeypatch.setattr(epsent.sweep, "sample_invariant_orbit", recording)
        run_grid(dataclasses.replace(SMALL, workers=workers))
        slices = min(workers, len(SMALL.n_list))
        assert Counter(int(line) for line in log.read_text().split()) == {
            companion_seed(SMALL.seed): 1,
            **{orbit_seed(SMALL.seed, si): slices for si in range(len(SMALL.sigma))},
        }


class TestSharedProbe:
    def test_one_probe_per_sigma(self, monkeypatch):
        calls = []
        probe = epsent.sweep.mismatch_probe

        def recording(spec, noise, samples, burn_in):
            calls.append((noise.seed, samples, burn_in))
            return probe(spec, noise, samples, burn_in)

        monkeypatch.setattr(epsent.sweep, "mismatch_probe", recording)
        config = dataclasses.replace(SMALL, burn_in=700)
        run_grid(config)
        assert calls == [
            (orbit_seed(config.seed, si), config.p_samples, config.burn_in)
            for si in range(len(config.sigma))
        ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the recording probe builder only when forked",
    )
    @pytest.mark.parametrize("workers", [2, 5])
    def test_each_sigma_probe_built_once_per_slice(self, monkeypatch, tmp_path, workers):
        log = tmp_path / "probes.txt"
        probe = epsent.sweep.mismatch_probe

        def recording(spec, noise, samples, burn_in):
            with open(log, "a") as fh:
                fh.write(f"{noise.seed}\n")
            return probe(spec, noise, samples, burn_in)

        monkeypatch.setattr(epsent.sweep, "mismatch_probe", recording)
        run_grid(dataclasses.replace(SMALL, workers=workers))
        slices = min(workers, len(SMALL.n_list))
        assert Counter(int(line) for line in log.read_text().split()) == {
            orbit_seed(SMALL.seed, si): slices for si in range(len(SMALL.sigma))
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
        curves = run_grid(dataclasses.replace(SMALL, workers=workers))
        assert sizes == [processes]
        assert csv_sha256(curves, tmp_path) == CSV_SHA256["logistic"]


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
    def test_header_and_row_count(self, small_curves, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_curves, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3

    def test_rows_sorted_sigma_desc_eps_desc(self, small_curves):
        rows = curves_to_rows(small_curves)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys, key=lambda t: (-t[0], -t[1]))

    def test_envelope_low_is_kifer_lower_in_every_row(self, small_curves):
        rows = [dict(zip(CSV_COLUMNS, row)) for row in curves_to_rows(small_curves)]
        assert rows and all(row["envelope_low"] == row["kifer_lower"] for row in rows)

    def test_empty_curve_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_unwritable_path(self, small_curves):
        with pytest.raises(OSError):
            emit_csv(small_curves, "/nonexistent-dir/out.csv")


class TestPlotData:
    def test_gnuplot_blocks(self, small_curves, tmp_path):
        path = tmp_path / "plot.dat"
        emit_plot_data(small_curves, str(path))
        text = path.read_text()
        blocks = text.split("\n\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# sigma = 0.1")
        first_line = blocks[0].splitlines()[1]
        eps, rate = first_line.split()
        assert float(eps) == 0.5
        assert float(rate) > 0.0

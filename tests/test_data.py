import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from robustdiff import data as data_mod
from robustdiff.data import (
    CENTROIDS,
    N_CLASSES,
    Dataset,
    NoiseSpec,
    inject_noise,
    load_dataset,
    make_toy_dataset,
    read_samples,
    save_dataset,
    write_samples,
)


class TestMakeToyDataset:
    def test_counts(self):
        samples = make_toy_dataset(2000, seed=0)
        assert len(samples) == 8000
        for c in range(4):
            assert np.count_nonzero(samples.clean == c) == 2000

    def test_noisy_starts_clean(self):
        samples = make_toy_dataset(10, seed=1)
        assert np.array_equal(samples.noisy, samples.clean)

    def test_same_seed_identical(self):
        a = make_toy_dataset(50, seed=3)
        b = make_toy_dataset(50, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_different_seed_differs(self):
        a = make_toy_dataset(50, seed=3)
        b = make_toy_dataset(50, seed=4)
        assert not np.array_equal(a.points, b.points)

    def test_per_class_mean_near_centroid(self):
        samples = make_toy_dataset(2000, seed=5)
        pts, labels = samples.points, samples.clean
        for c in range(4):
            mean = pts[labels == c].mean(axis=0)
            assert np.all(np.abs(mean - CENTROIDS[c]) < 0.02)

    def test_sigma_data_is_the_layout_std(self):
        samples = make_toy_dataset(2000, seed=0)
        # four blobs at +-2.5 with std 0.375: per-coordinate std just over 2.5
        assert abs(samples.points.std() - data_mod.SIGMA_DATA) < 0.1


class TestSymmetricNoise:
    def test_eta_zero_identity(self):
        samples = make_toy_dataset(100, seed=0)
        noisy = inject_noise(samples, NoiseSpec("symmetric", 0.0, 1))
        assert np.array_equal(noisy.noisy, noisy.clean)

    def test_two_class_eta_one_flips_everything(self):
        # Destinations are every other class of the problem, present or not.
        rng = np.random.default_rng(0)
        labels = np.arange(50) % 2
        samples = Dataset(rng.normal(size=(50, 2)), labels, labels.copy())
        noisy = inject_noise(samples, NoiseSpec("symmetric", 1.0, 2))
        assert np.all(noisy.noisy != noisy.clean)
        assert set(noisy.noisy.tolist()) == set(range(N_CLASSES))

    def test_flip_fraction(self):
        samples = make_toy_dataset(2000, seed=1)
        noisy = inject_noise(samples, NoiseSpec("symmetric", 0.4, 3))
        frac = np.mean(noisy.noisy != noisy.clean)
        assert abs(frac - 0.4) < 0.02

    def test_points_and_clean_labels_untouched(self):
        samples = make_toy_dataset(100, seed=2)
        noisy = inject_noise(samples, NoiseSpec("symmetric", 0.7, 4))
        assert np.array_equal(samples.points, noisy.points)
        assert np.array_equal(samples.clean, noisy.clean)
        assert np.array_equal(samples.noisy, samples.clean)  # the source is not touched

    def test_pure_function_of_seed(self):
        samples = make_toy_dataset(200, seed=0)
        a = inject_noise(samples, NoiseSpec("symmetric", 0.5, 9))
        b = inject_noise(samples, NoiseSpec("symmetric", 0.5, 9))
        assert np.array_equal(a.noisy, b.noisy)

    def test_destination_uniformity_chi_square(self):
        from scipy.stats import chisquare

        samples = make_toy_dataset(25_000, seed=7)  # 100k samples total
        noisy = inject_noise(samples, NoiseSpec("symmetric", 0.5, 8))
        pvals = []
        for src in range(4):
            moved = noisy.noisy[(noisy.clean == src) & (noisy.noisy != src)]
            counts = np.bincount(moved, minlength=4)
            dests = np.array([counts[d] for d in range(4) if d != src])
            pvals.append(chisquare(dests).pvalue)
        assert min(pvals) > 0.01


class TestAsymmetricNoise:
    def test_eta_zero_identity(self):
        samples = make_toy_dataset(100, seed=0)
        noisy = inject_noise(samples, NoiseSpec("asymmetric", 0.0, 1))
        assert np.array_equal(noisy.noisy, noisy.clean)

    def test_eta_one_swaps_pairs(self):
        samples = make_toy_dataset(100, seed=0)
        pair = {0: 1, 1: 0, 2: 3, 3: 2}
        noisy = inject_noise(samples, NoiseSpec("asymmetric", 1.0, 1))
        assert np.array_equal(noisy.noisy, [pair[c] for c in noisy.clean])

    def test_per_class_flip_fraction(self):
        samples = make_toy_dataset(2000, seed=1)
        noisy = inject_noise(samples, NoiseSpec("asymmetric", 0.4, 5))
        for c in range(4):
            rows = noisy.clean == c
            frac = np.mean(noisy.noisy[rows] != noisy.clean[rows])
            assert abs(frac - 0.4) < 0.03

    def test_flips_stay_within_pairs(self):
        samples = make_toy_dataset(500, seed=2)
        noisy = inject_noise(samples, NoiseSpec("asymmetric", 0.6, 6))
        pair = data_mod.PAIR_MAP
        paired = np.array([pair[c] for c in noisy.clean])
        assert np.all((noisy.noisy == noisy.clean) | (noisy.noisy == paired))


class TestNoiseSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("weird", 0.2, 0)
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", 1.5, 0)

    def test_dispatch(self):
        samples = make_toy_dataset(100, seed=0)
        sym = inject_noise(samples, NoiseSpec("symmetric", 0.3, 1))
        asym = inject_noise(samples, NoiseSpec("asymmetric", 0.3, 1))
        assert np.any(sym.noisy != sym.clean)
        assert np.any(asym.noisy != asym.clean)


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        samples = make_toy_dataset(25, seed=0)
        samples = inject_noise(samples, NoiseSpec("symmetric", 0.5, 1))
        path = tmp_path / "data.csv"
        save_dataset(path, samples)
        loaded = load_dataset(path)
        assert len(loaded) == len(samples)
        assert np.array_equal(samples.points, loaded.points)
        assert np.array_equal(samples.clean, loaded.clean)
        assert np.array_equal(samples.noisy, loaded.noisy)
        assert (loaded.points.dtype, loaded.clean.dtype, loaded.noisy.dtype) == (
            np.float64, np.int64, np.int64)

    @pytest.mark.parametrize("coords", ["nan,1.0", "1.0,inf", "-inf,-inf"])
    def test_non_finite_coordinates_rejected(self, tmp_path, coords):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2,clean,noisy\n0.5,0.5,0,0\n{coords},0,0\n")
        with pytest.raises(ValueError, match=r"record 1 has non-finite coordinates"):
            load_dataset(path)

    def test_header(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(path, make_toy_dataset(2, seed=0))
        assert path.read_text().splitlines()[0] == "x1,x2,clean,noisy"


class TestDataset:
    def test_rows_must_align(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros(2, np.int64))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 3)), np.zeros(3, np.int64), np.zeros(3, np.int64))

    # SHA-256 of points || clean || noisy for 4 x 2000 points at data seed
    # 1000, noise eta=0.4 at seed 2400. Any change to the RNG calls or their
    # order changes the data every benchmark digest and sweep result rests on.
    @pytest.mark.parametrize("kind, digest", [
        ("symmetric", "b5d5ee26fa31d314127dcef910d18255ee2b500f7eed9a43acb606da19eab49b"),
        ("asymmetric", "32a3d82477bae494bdbd577134d73a1cc894b0ac25580cb4b232dcef362d0aae"),
    ])
    def test_stream_pinned(self, kind, digest):
        ds = inject_noise(make_toy_dataset(2000, 1000), NoiseSpec(kind, 0.4, 2400))
        got = hashlib.sha256(ds.points.tobytes() + ds.clean.tobytes() + ds.noisy.tobytes())
        assert got.hexdigest() == digest

    def test_building_peak_memory(self):
        # Three arrays of 8000 rows take 0.25 MiB.
        tracemalloc.start()
        try:
            inject_noise(make_toy_dataset(2000, 1000), NoiseSpec("symmetric", 0.4, 2400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSampleDump:
    def test_round_trip(self, tmp_path):
        # Every class, with unequal counts, given out of order.
        per_class = {3: np.array([[1.0, 2.0]]), 0: np.array([[0.125, -3.5], [-0.5, 0.25]]),
                     2: np.array([[4.0, -1.0], [0.0, 0.5], [-2.25, 3.0]]),
                     1: np.array([[7.5, -0.75]])}
        path = tmp_path / "samples.csv"
        write_samples(path, per_class)
        assert [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] == [
            "0", "0", "1", "2", "2", "2", "3"]  # the classes in ascending order
        got = read_samples(path)
        assert sorted(got) == [0, 1, 2, 3]
        for c in per_class:
            assert got[c].dtype == np.float64 and np.array_equal(got[c], per_class[c])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_refused_before_opening(self, tmp_path, bad):
        path = tmp_path / "samples.csv"
        with pytest.raises(ValueError, match="non-finite coordinates, not written"):
            write_samples(path, {0: np.array([[0.5, 1.0]]), 1: np.array([[bad, 2.0]])})
        assert not path.exists()

    def test_format_one_record_per_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(path, {2: np.array([[1.5, 2.5]])})
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,class"
        assert lines[1] == "1.5,2.5,2"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "no records"),
            ("1.0,nan,0\n", "record 0 has non-finite coordinates"),
            ("1.0,2.0,0\n1.0,2.0,7\n", "record 1 has class ids 7; expected 0..3"),
            ("1.0,2.0\n", "record 0 has 2 fields, expected 3"),
            ("1.0,2.0,0,1\n", "record 0 has 4 fields, expected 3"),
            ("1.0,abc,0\n", "record 0 has a non-number in '1.0,abc,0'"),
            ("1.0,2.0,1.5\n", "record 0 has a non-number in '1.0,2.0,1.5'"),
            ("1.0,2.0,0\n3.0,4.0,2\n", "no samples of class 1,3"),
        ],
        ids=["header_only", "nan", "class_7", "short", "long", "not_a_number", "fractional_id",
             "missing_class"],
    )
    def test_malformed_file_rejected(self, tmp_path, body, message):
        path = tmp_path / "samples.csv"
        path.write_text("x1,x2,class\n" + body)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_samples(path)

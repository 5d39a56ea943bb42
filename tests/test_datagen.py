import numpy as np
import pytest

from metacausal.datagen import (
    CsvFormatError,
    Dataset,
    Direction,
    MechanismParams,
    class_probabilities,
    generate_dataset,
    random_dataset,
    read_dataset_csv,
    sample_mechanisms,
    write_dataset_csv,
)
from metacausal.stats import B_FLOOR, anderson_darling_laplace


class TestClassProbabilities:
    def test_k4_reference(self):
        assert class_probabilities(4, 0.2) == pytest.approx([0.3, 0.3, 0.2, 0.2])

    def test_single_class(self):
        assert class_probabilities(1, 0.7) == pytest.approx([1.0])

    def test_k3_middle_class(self):
        assert class_probabilities(3, 0.1) == pytest.approx(
            [0.36667, 0.33333, 0.3], abs=1e-5
        )

    def test_sums_to_one(self):
        for k in range(1, 9):
            for d in (0.0, 0.15, 0.5, 0.99):
                assert class_probabilities(k, d).sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_deviation_rejected(self):
        with pytest.raises(ValueError):
            class_probabilities(4, 1.0)
        with pytest.raises(ValueError):
            class_probabilities(4, -0.1)


class TestSampleMechanisms:
    def test_ranges_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            for m in sample_mechanisms(4, rng):
                assert 0.2 <= abs(m.alpha) <= 5.0
                assert -5.0 <= m.beta <= 5.0
                assert 0.1 <= m.b <= 4.0
                assert m.direction in (Direction.XY, Direction.YX)

    def test_mean_slope_magnitude(self):
        rng = np.random.default_rng(1)
        mags = [abs(m.alpha) for _ in range(30_000) for m in sample_mechanisms(1, rng)]
        # Uniform[0.2, 5] has mean 2.6
        assert np.mean(mags) == pytest.approx(2.6, abs=0.05)

    def test_direction_frequencies(self):
        rng = np.random.default_rng(2)
        dirs = [m.direction for _ in range(30_000) for m in sample_mechanisms(1, rng)]
        share = np.mean([d is Direction.XY for d in dirs])
        assert share == pytest.approx(0.5, abs=0.01)


class TestGenerateDataset:
    def test_noiseless_identity_line(self):
        mech = MechanismParams(1.0, 0.0, B_FLOOR, Direction.XY)
        ds = generate_dataset([mech], [1.0], np.random.default_rng(1), 500)
        assert np.max(np.abs(ds.y - ds.x)) < 1e-3

    def test_binomial_class_counts(self):
        ds = random_dataset(2, 0.0, seed=3)
        n1 = int(np.sum(ds.labels == 0))
        # 4 sigma around binomial(1000, 0.5)
        sigma = np.sqrt(1000 * 0.25)
        assert abs(n1 - 500) <= 4 * sigma

    def test_deviated_class_frequencies(self):
        ds = random_dataset(4, 0.2, seed=4)
        probs = np.array([0.3, 0.3, 0.2, 0.2])
        counts = np.bincount(ds.labels, minlength=4)
        m = ds.m
        sigma = np.sqrt(m * probs * (1 - probs))
        assert np.all(np.abs(counts - m * probs) <= 4 * sigma)

    def test_deterministic_given_seed(self):
        a = random_dataset(3, 0.1, seed=9)
        b = random_dataset(3, 0.1, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        assert a.generator == b.generator

    def test_mismatched_probs_rejected(self):
        rng = np.random.default_rng(0)
        mechs = sample_mechanisms(2, rng)
        with pytest.raises(ValueError):
            generate_dataset(mechs, [1.0], rng)

    def test_yx_direction_swaps_roles(self):
        mech = MechanismParams(2.0, 1.0, B_FLOOR, Direction.YX)
        ds = generate_dataset([mech], [1.0], np.random.default_rng(5), 300)
        # x = 2y + 1 on a near-noiseless line
        assert np.max(np.abs(ds.x - (2.0 * ds.y + 1.0))) < 1e-3

    def test_true_residuals_pass_ad(self):
        # residuals under the generating mechanism are exactly Laplace
        passes, total = 0, 0
        for seed in range(20):
            ds = random_dataset(2, 0.0, seed=200 + seed)
            for j, mech in enumerate(ds.generator.mechanisms):
                sel = ds.labels == j
                res = mech.residuals(ds.x[sel], ds.y[sel]) / mech.b
                passes += anderson_darling_laplace(res).passed
                total += 1
        assert passes / total >= 0.9


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = random_dataset(2, 0.1, seed=11)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.allclose(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)
        assert back.generator == ds.generator

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "plain.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.allclose(back.points, ds.points)
        assert back.labels is None

    def test_malformed_rows_report_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\nnot-a-number,3\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_row_number(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1.0,2.0\n3.0,{value}\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 3

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,label\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1.0,2.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError):
            read_dataset_csv(path)

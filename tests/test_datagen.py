import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacausal.datagen import (
    CsvFormatError,
    Dataset,
    GeneratorInfo,
    Direction,
    MechanismParams,
    class_probabilities,
    generate_dataset,
    random_dataset,
    read_dataset_csv,
    SidecarFormatError,
    sample_mechanisms,
    write_dataset_csv,
)
from metacausal.stats import B_FLOOR, anderson_darling_laplace

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=50)


def _drawn_dataset(data, points, labelled):
    labels = None
    if labelled:
        labels = data.draw(st.lists(st.integers(0, 9), min_size=len(points), max_size=len(points)))
    return Dataset(np.array(points), labels)


class TestDataset:
    @pytest.mark.parametrize("points", [np.arange(12.0).reshape(4, 3), np.arange(8.0), np.zeros((2, 2, 2))])
    def test_points_must_be_two_columns(self, points):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)") as info:
            Dataset(points)
        assert str(points.shape) in str(info.value)

    def test_empty_two_column_dataset_is_valid(self):
        assert Dataset(np.empty((0, 2))).m == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected_naming_its_row(self, bad):
        points = random_dataset(2, 0.0, seed=5).points.copy()
        points[7, 1] = bad
        x = points[7, 0]
        with pytest.raises(ValueError, match=rf"points must be finite, got \[{x}, {bad}\] in row 7"):
            Dataset(points)

    def test_points_are_read_only(self):
        ds = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="read-only"):
            ds.points[0, 0] = 1.0

    def test_points_are_a_copy_of_the_callers_array(self):
        points = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        ds = Dataset(points)
        assert ds.points is not points and not np.shares_memory(ds.points, points)
        points[0, 0] = 9.0
        assert points.flags.writeable and ds.points[0, 0] == 0.0

    def test_labels_must_match_the_points(self):
        with pytest.raises(ValueError, match="labels must match the number of points"):
            Dataset(np.zeros((3, 2)), labels=[0, 1])


class TestMechanismParams:
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_line_rejected_naming_its_field(self, field, bad):
        values = {"alpha": 1.0, "beta": 0.0, "b": 1.0, field: bad}
        with pytest.raises(ValueError, match=rf"mechanism {field} must be finite, got {bad}"):
            MechanismParams(**values)


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

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError, match="class count must be >= 1, got 0"):
            class_probabilities(0, 0.0)


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

    def test_probs_must_sum_to_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="class probabilities must sum to 1"):
            generate_dataset(sample_mechanisms(2, rng), [0.5, 0.4], rng)

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

    def test_yx_mechanism_round_trip_is_bit_exact(self, tmp_path):
        mechs = (
            MechanismParams(0.1 + 0.2, -1.0 / 3.0, 5e-324, Direction.YX),
            MechanismParams(-4.999999999999999, 1e308, 0.1, Direction.XY),
        )
        ds = Dataset(np.array([[1.0, 2.0]]), generator=GeneratorInfo(mechs, (0.5, 0.5), 3))
        path = tmp_path / "yx.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path).generator.mechanisms
        assert [(m.alpha, m.beta, m.b, m.direction) for m in back] == [
            (m.alpha, m.beta, m.b, m.direction) for m in mechs
        ]
        assert list(mechs[0].to_json_dict()) == ["alpha", "beta", "b", "direction"]
        assert MechanismParams.from_json_dict(mechs[0].to_json_dict()) == mechs[0]

    @pytest.mark.parametrize(
        "sidecar, problem",
        [
            ("{not json", "Expecting property name"),
            ('{"mechanisms": [{"alpha": 1.0, "b": 1.0, "direction": "xy"}], "class_probs": [1.0]}',
             "lacks key 'beta'"),
            ('{"mechanisms": [{"alpha": 1.0, "beta": 0.0, "b": 1.0, "direction": "zz"}], '
             '"class_probs": [1.0]}', "'zz' is not a valid Direction"),
            ('{"mechanisms": []}', "missing key 'class_probs'"),
        ],
    )
    def test_malformed_sidecar_names_its_path(self, tmp_path, sidecar, problem):
        path = tmp_path / "data.csv"
        write_dataset_csv(Dataset(np.array([[1.0, 2.0]])), path)
        (tmp_path / "data.csv.meta.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(SidecarFormatError) as err:
            read_dataset_csv(path)
        assert "data.csv.meta.json" in str(err.value)
        assert problem in str(err.value)

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

    def test_blank_row_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
        assert read_dataset_csv(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text("x,y\n1.0,2.0\n\n3.0,nan\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 4

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

    @settings(max_examples=60, deadline=None)
    @given(points=_POINTS, labelled=st.booleans(), data=st.data())
    def test_drawn_round_trip_is_bit_exact(self, tmp_path_factory, points, labelled, data):
        ds = _drawn_dataset(data, points, labelled)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.points.tobytes() == ds.points.tobytes()
        if labelled:
            assert back.labels.tolist() == ds.labels.tolist()
        else:
            assert back.labels is None

    @settings(max_examples=60, deadline=None)
    @given(
        points=_POINTS,
        labelled=st.booleans(),
        token=st.sampled_from(["nan", "inf", "-inf", "1e999"]),
        data=st.data(),
    )
    def test_drawn_non_finite_token_reports_its_row(
        self, tmp_path_factory, points, labelled, token, data
    ):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dataset_csv(_drawn_dataset(data, points, labelled), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = data.draw(st.integers(1, len(lines) - 1), label="data line")
        fields = lines[index].split(",")
        fields[data.draw(st.integers(0, 1), label="column")] = token
        lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == index + 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1.0,2.0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError):
            read_dataset_csv(path)

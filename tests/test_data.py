"""Toy generators, shifts, and CSV round-trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.config import ConfigError, ShiftSpec
from density_softmax.data import (DataError, LabeledSet, apply_shift,
                                  default_ood_center, load_csv,
                                  make_ood_cluster, make_two_moons,
                                  make_two_ovals, require_fittable, save_csv,
                                  shift_suite)

# The centers of the two moons' unit-radius arcs.
TWO_MOONS_CENTERS = (np.array([0.0, 0.0]), np.array([1.0, 0.5]))


class TestTwoMoons:
    def test_counts_and_balance(self):
        ds = make_two_moons(500, 0.1, seed=0)
        assert ds.n == 1000
        assert (ds.labels == 0).sum() == 500
        assert (ds.labels == 1).sum() == 500

    def test_noiseless_points_sit_on_the_arcs(self):
        ds = make_two_moons(200, 0.0, seed=3)
        for label, center in enumerate(TWO_MOONS_CENTERS):
            pts = ds.features[ds.labels == label]
            radii = np.linalg.norm(pts - center, axis=1)
            assert np.abs(radii - 1.0).max() < 1e-12

    def test_deterministic_per_seed(self):
        a = make_two_moons(50, 0.2, seed=7)
        b = make_two_moons(50, 0.2, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        c = make_two_moons(50, 0.2, seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            make_two_moons(10, -0.1, seed=0)

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            make_two_moons(0, 0.1, seed=0)


class TestTwoOvals:
    def test_counts(self):
        ds = make_two_ovals(500, 2.0, 0.05, seed=0)
        assert ds.n == 1000
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_noiseless_collapses_to_point_masses(self):
        ds = make_two_ovals(20, 3.0, 0.0, seed=0)
        for label, cx in ((0, -1.5), (1, 1.5)):
            pts = ds.features[ds.labels == label]
            np.testing.assert_array_equal(pts, np.tile([cx, 0.0], (20, 1)))

    def test_class_means_differ_along_x_by_separation(self):
        sep, sd, n = 2.0, 0.05, 4000
        ds = make_two_ovals(n, sep, sd, seed=1)
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        se = sd / np.sqrt(n)
        assert abs((m1[0] - m0[0]) - sep) < 3 * se * np.sqrt(2)
        se_y = 4.0 * sd / np.sqrt(n)
        assert abs(m1[1] - m0[1]) < 4 * se_y * np.sqrt(2)


class TestOodCluster:
    def test_count_and_domain(self):
        ds = make_ood_cluster(500, (4.0, 4.0), 0.1, seed=0)
        assert ds.n == 500
        assert ds.domain == "ood"
        assert (ds.labels == 0).all()

    def test_zero_spread_collapses_to_center(self):
        ds = make_ood_cluster(10, (2.0, -1.0), 0.0, seed=0)
        np.testing.assert_array_equal(ds.features, np.tile([2.0, -1.0], (10, 1)))

    def test_default_center_is_far_from_training_data(self):
        train = make_two_moons(500, 0.1, seed=0)
        ood = make_ood_cluster(200, default_ood_center(train), 0.1, seed=1)
        diffs = train.features[:, None, :] - ood.features[None, :, :]
        min_dist = np.sqrt((diffs**2).sum(axis=2)).min()
        spans = train.features.max(axis=0) - train.features.min(axis=0)
        diameter = float(np.linalg.norm(spans))
        assert min_dist > diameter / 2.0

    def test_ood_set_rejected_by_fitting_guard(self):
        ood = make_ood_cluster(10, (5.0, 5.0), 0.1, seed=0)
        with pytest.raises(DataError):
            require_fittable(ood)


class TestShifts:
    def setup_method(self):
        self.iid = make_two_moons(100, 0.1, seed=0, domain="iid_test")

    def test_labels_preserved_elementwise(self):
        spec = ShiftSpec()
        shifted = apply_shift(self.iid, spec, 3, seed=5)
        np.testing.assert_array_equal(shifted.labels, self.iid.labels)
        assert shifted.domain == "shifted"
        assert shifted.intensity == 3

    def test_zero_scale_is_identity(self):
        spec = ShiftSpec(scales=(0.0, 0.1, 0.2, 0.3, 0.4))
        shifted = apply_shift(self.iid, spec, 1, seed=5)
        np.testing.assert_array_equal(shifted.features, self.iid.features)

    def test_displacement_grows_with_intensity(self):
        spec = ShiftSpec()
        d1 = apply_shift(self.iid, spec, 1, seed=5)
        d5 = apply_shift(self.iid, spec, 5, seed=5)
        msd1 = np.square(d1.features - self.iid.features).mean()
        msd5 = np.square(d5.features - self.iid.features).mean()
        assert msd5 > msd1

    def test_train_set_rejected(self):
        train = make_two_moons(10, 0.1, seed=0, domain="train")
        with pytest.raises(DataError):
            apply_shift(train, ShiftSpec(), 1, seed=0)

    def test_shift_suite_produces_five_intensities(self):
        suite = shift_suite(self.iid, ShiftSpec(), seed=0)
        assert [s.intensity for s in suite] == [1, 2, 3, 4, 5]
        for s in suite:
            with pytest.raises(DataError):
                require_fittable(s)

    @pytest.mark.parametrize("kind", ["rotation", "translation"])
    def test_other_shift_kinds(self, kind):
        spec = ShiftSpec(kind=kind, scales=(0.1, 0.2, 0.3, 0.4, 0.5))
        shifted = apply_shift(self.iid, spec, 2, seed=9)
        np.testing.assert_array_equal(shifted.labels, self.iid.labels)
        assert not np.array_equal(shifted.features, self.iid.features)

    def test_scales_must_increase(self):
        with pytest.raises(ConfigError):
            ShiftSpec(scales=(0.5, 0.4, 0.3, 0.2, 0.1))


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        ds = make_two_moons(40, 0.15, seed=11)
        path = tmp_path / "moons.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.domain == ds.domain
        assert back.intensity == ds.intensity

    @given(n=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_any_seed(self, tmp_path_factory, n, seed):
        ds = make_two_moons(n, 0.3, seed=seed)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)

    def test_shifted_tag_round_trip(self, tmp_path):
        iid = make_two_moons(20, 0.1, seed=0, domain="iid_test")
        shifted = apply_shift(iid, ShiftSpec(), 4, seed=1)
        path = tmp_path / "s.csv"
        save_csv(shifted, path)
        back = load_csv(path)
        assert back.domain == "shifted"
        assert back.intensity == 4
        assert back.tag == "shifted_4"

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label,domain,intensity\n1.0,oops,0,train,0\n")
        with pytest.raises(DataError, match=":2:"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        """float() reads these cells, and 1e400 overflows to inf; a model
        would refuse the row later, naming neither file nor line."""
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,label,domain,intensity\n1.0,2.0,0,train,0\n"
                        f"0.5,{cell},1,train,0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: non-finite cell "
                                            f"'{re.escape(cell)}'$"):
            load_csv(path)

    def test_negative_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label,domain,intensity\n1.0,2.0,0,train,0\n0.5,0.1,-1,train,0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: negative label -1$"):
            load_csv(path)

    @pytest.mark.parametrize("tags, problem", [
        ("shifted,9", "shifted sets need intensity in 1..5"),
        ("weird,0", "unknown domain 'weird'"),
        ("shifted,x", "non-integer intensity 'x'"),
        ("iid_test,0", "mixed domain/intensity tags in one file (iid_test,0 after train,0)"),
    ], ids=["intensity", "domain", "non_integer", "mixed"])
    def test_invalid_tag_names_line(self, tmp_path, tags, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,label,domain,intensity\n1.0,2.0,0,train,0\n0.5,0.1,1,{tags}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: {re.escape(problem)}$"):
            load_csv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label,domain,intensity\n1.0,2.0,0,train,0\n\n0.5,0.1,-1,train,0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: negative label -1$"):
            load_csv(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x0,x1,label,domain,intensity\n1.0,\xff,0,train,0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no rows"):
            load_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x0,x1,label,domain,intensity\n")
        with pytest.raises(DataError, match=f"^{path}: no data rows$"):
            load_csv(path)

    def test_wrong_cell_count_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x0,x1,label,domain,intensity\n1.0,2.0,0,train\n")
        with pytest.raises(DataError, match=":2:"):
            load_csv(path)


class TestLabeledSetInvariants:
    def test_rejects_nan_features(self):
        with pytest.raises(DataError):
            LabeledSet(np.array([[np.nan, 0.0]]), np.array([0]), "train")

    def test_rejects_mismatched_labels(self):
        with pytest.raises(DataError):
            LabeledSet(np.zeros((3, 2)), np.array([0, 1]), "train")

    def test_rejects_unknown_domain(self):
        with pytest.raises(DataError):
            LabeledSet(np.zeros((1, 2)), np.array([0]), "validation")

    def test_shifted_needs_intensity(self):
        with pytest.raises(DataError):
            LabeledSet(np.zeros((1, 2)), np.array([0]), "shifted")

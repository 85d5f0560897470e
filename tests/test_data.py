"""Datasets and samplers: split coverage, per-rank sampling bounds and
seeding, the distribution-shift reduction, and the CSV round trip."""

from collections import Counter

import numpy as np
import pytest

from ordinalproto import data
from ordinalproto.data import OrdinalDataset, SplitSpec


def _indexed(num_ranks=5, per_rank=10):
    """Rank-major dataset whose single feature is the sample's index."""
    n = num_ranks * per_rank
    labels = np.repeat(np.arange(num_ranks), per_rank)
    return OrdinalDataset(np.arange(n, dtype=np.float64)[:, None], labels, num_ranks)


def _ids(ds):
    return ds.features[:, 0].astype(np.int64)


def _counts(ds):
    return Counter(ds.labels.tolist())


class TestOrdinalDataset:
    @pytest.mark.parametrize(
        "labels, num_ranks, needle",
        [([0, 0], 1, "at least 2 ranks, got 1"), ([0, 3], 3, r"labels must lie in \[0, 3\)")],
    )
    def test_bad_rank_count_or_label_is_rejected(self, labels, num_ranks, needle):
        with pytest.raises(ValueError, match=needle):
            OrdinalDataset(np.zeros((2, 1)), labels, num_ranks)


class TestTrainTestSplit:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.8])
    def test_splits_are_disjoint_and_cover_the_dataset(self, fraction):
        ds = _indexed()
        train, test = data.train_test_split(ds, SplitSpec(fraction, 1.0 - fraction, seed=3))
        train_ids, test_ids = _ids(train), _ids(test)
        assert not set(train_ids) & set(test_ids)
        np.testing.assert_array_equal(np.sort(np.concatenate([train_ids, test_ids])), np.arange(len(ds)))
        assert len(train) == int(len(ds) * fraction)
        np.testing.assert_array_equal(train.labels, ds.labels[train_ids])
        for part in (train, test):
            assert not np.shares_memory(part.features, ds.features)
            assert not np.shares_memory(part.labels, ds.labels)

    def test_fraction_outside_the_open_interval_is_rejected(self):
        with pytest.raises(ValueError, match="train fraction"):
            data.train_test_split(_indexed(), SplitSpec(1.5, -0.5))


class TestFewShot:
    @pytest.mark.parametrize("shots", [1, 3, 10, 25])
    def test_keeps_at_most_shots_per_rank_in_dataset_order(self, shots):
        ds = _indexed(per_rank=10)
        sub = data.few_shot_subsample(ds, shots, seed=4)
        assert _counts(sub) == {rank: min(shots, 10) for rank in range(ds.num_ranks)}
        ids = _ids(sub)
        assert (np.diff(ids) > 0).all()
        np.testing.assert_array_equal(sub.labels, ds.labels[ids])

    def test_is_seed_deterministic(self):
        ds = _indexed()
        first = _ids(data.few_shot_subsample(ds, 3, seed=9))
        np.testing.assert_array_equal(first, _ids(data.few_shot_subsample(ds, 3, seed=9)))
        assert not np.array_equal(first, _ids(data.few_shot_subsample(ds, 3, seed=10)))


class TestDistributionShift:
    @pytest.mark.parametrize(
        "reduce_classes, fraction", [(0, 0.5), (2, 0.5), (3, 0.95), (5, 0.3), (2, 0.05)]
    )
    def test_reduces_exactly_the_chosen_ranks(self, reduce_classes, fraction):
        """floor(0.05 * 10) = 0: a cut that drops nothing keeps every
        sample, in order."""
        ds = _indexed(num_ranks=5, per_rank=10)
        sub = data.distribution_shift_subsample(ds, reduce_classes, fraction, seed=6)
        chosen = np.random.default_rng(6).choice(5, size=reduce_classes, replace=False)
        before, after = _counts(ds), _counts(sub)
        total_dropped = 0
        for rank in range(5):
            dropped = int(np.floor(fraction * before[rank])) if rank in chosen else 0
            assert after[rank] == before[rank] - dropped, rank
            total_dropped += dropped
        assert set(_ids(sub)) <= set(_ids(ds))
        if total_dropped == 0:
            np.testing.assert_array_equal(_ids(sub), _ids(ds))

    def test_reduce_fraction_of_one_is_rejected(self):
        with pytest.raises(ValueError, match="reduce_fraction"):
            data.distribution_shift_subsample(_indexed(), 1, 1.0, seed=0)


def _save_csv(ds, path):
    """The format load_csv reads: header `rank,f0,...,f{d-1}`, one sample
    per line, 17 significant digits so features round-trip exactly."""
    lines = ["rank," + ",".join(f"f{i}" for i in range(ds.input_dim))]
    for label, row in zip(ds.labels, ds.features):
        lines.append(str(int(label)) + "," + ",".join(f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = data.generate_synthetic(4, 3, 5, 0.25, seed=2)
        path = tmp_path / "ds.csv"
        _save_csv(ds, path)
        back = data.load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_ranks == ds.num_ranks

    def test_labels_are_remapped_in_order(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("rank,f0\n7,0.5\n3,1.5\n5,2.5\n3.0,3.5\n")
        ds = data.load_csv(path)
        np.testing.assert_array_equal(ds.labels, [2, 0, 1, 0])
        np.testing.assert_array_equal(ds.features[:, 0], [0.5, 1.5, 2.5, 3.5])
        assert ds.num_ranks == 3

    @pytest.mark.parametrize("cell", ["1.7", "inf", "nan"])
    def test_non_integer_rank_names_line_and_cell(self, tmp_path, cell):
        path = tmp_path / "ds.csv"
        path.write_text(f"rank,f0\n0,0.5\n{cell},1.5\n2,2.5\n")
        with pytest.raises(ValueError, match=f"line 3, column 0: rank '{cell}' is not an integer"):
            data.load_csv(path)

    def test_non_numeric_feature_names_its_column(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("rank,f0,f1\n0,0.5,x\n")
        with pytest.raises(ValueError, match="line 2, column 2: non-numeric cell 'x'"):
            data.load_csv(path)

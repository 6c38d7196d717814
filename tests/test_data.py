"""Dataset plumbing: blob synthesis, IDX parsing against hand-built bytes,
Dirichlet partition properties, and the poisoning transform.

``idx_images_bytes`` and ``idx_labels_bytes`` are the tests' one IDX writer;
``test_cli.py`` imports them."""

import struct

import numpy as np
import pytest

from sybilsim.data import (
    Backdoor,
    LabeledDataset,
    LabelFlip,
    UndefinedScore,
    attack_score,
    attack_segment,
    corner_block_pattern,
    dirichlet_partition,
    load_idx,
    poison_dataset,
    synth_blobs,
)
from sybilsim.numerics import Architecture, Model


def idx_images_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x801, len(labels)) + labels.tobytes()


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 3)), [0], 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 3)), [0, 5], 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(6), [0, 1], 2)

    def test_subset_and_len(self):
        data = LabeledDataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], 2)
        sub = data.subset([2, 0])
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.labels, [0, 0])
        np.testing.assert_array_equal(sub.features[0], [4.0, 5.0])


class TestSynthBlobs:
    def test_two_samples_one_per_label(self):
        data = synth_blobs(classes=2, per_class=1, dim=2, spread=0.1, seed=0)
        assert len(data) == 2
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_grouped_by_class_and_bounded(self):
        data = synth_blobs(classes=3, per_class=5, dim=4, spread=0.2, seed=1)
        np.testing.assert_array_equal(data.labels, np.repeat([0, 1, 2], 5))
        assert data.features.min() >= 0.0
        assert data.features.max() <= 1.0

    def test_deterministic(self):
        a = synth_blobs(4, 3, 5, 0.1, seed=7)
        b = synth_blobs(4, 3, 5, 0.1, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 5, 2, 0.1, seed=0)


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 2, 3), dtype=np.uint8)
        labels = [0, 2, 1, 2, 0]
        ip = tmp_path / "img"
        lp = tmp_path / "lab"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes(labels))
        data = load_idx(ip, lp)
        assert data.features.shape == (5, 6)
        np.testing.assert_allclose(data.features, images.reshape(5, 6) / 255.0)
        np.testing.assert_array_equal(data.labels, labels)
        assert data.n_classes == 3
        assert data.image_shape == data.subset([0, 1]).image_shape == (2, 3)

    def test_bad_magic_names_offset(self, tmp_path):
        ip = tmp_path / "img"
        lp = tmp_path / "lab"
        ip.write_bytes(struct.pack(">IIII", 0xDEAD, 0, 1, 1))
        lp.write_bytes(idx_labels_bytes([]))
        with pytest.raises(ValueError, match="byte 0"):
            load_idx(ip, lp)

    def test_truncated_data(self, tmp_path):
        ip = tmp_path / "img"
        lp = tmp_path / "lab"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 7)
        lp.write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip = tmp_path / "img"
        lp = tmp_path / "lab"
        ip.write_bytes(idx_images_bytes(np.zeros((2, 1, 1), dtype=np.uint8)))
        lp.write_bytes(idx_labels_bytes([0, 1, 0]))
        with pytest.raises(ValueError, match="does not match"):
            load_idx(ip, lp)


class TestDirichletPartition:
    def test_every_sample_exactly_once(self):
        data = synth_blobs(5, 20, 3, 0.1, seed=3)
        parts = dirichlet_partition(data, 7, 0.5, seed=11)
        assert len(parts) == 7
        assert sum(len(p) for p in parts) == len(data)
        # Feature rows across all shares must reassemble the original multiset.
        stacked = np.concatenate([p.features for p in parts if len(p)])
        assert stacked.shape == data.features.shape
        order_a = np.lexsort(stacked.T)
        order_b = np.lexsort(data.features.T)
        np.testing.assert_array_equal(stacked[order_a], data.features[order_b])

    def test_deterministic(self):
        data = synth_blobs(3, 10, 2, 0.1, seed=5)
        a = dirichlet_partition(data, 4, 0.1, seed=9)
        b = dirichlet_partition(data, 4, 0.1, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.features, pb.features)
            np.testing.assert_array_equal(pa.labels, pb.labels)

    def test_low_alpha_concentrates(self):
        """Small alpha should put most of each class on few nodes."""
        data = synth_blobs(4, 100, 2, 0.1, seed=2)
        parts = dirichlet_partition(data, 8, 0.05, seed=1)
        for c in range(4):
            owners = sum(1 for p in parts if (p.labels == c).any())
            assert owners <= 4  # each class lands on at most half the nodes

    def test_single_node_gets_everything(self):
        data = synth_blobs(2, 4, 2, 0.1, seed=0)
        (only,) = dirichlet_partition(data, 1, 1.0, seed=0)
        assert len(only) == len(data)

    def test_rejects_no_nodes_and_non_positive_alpha(self):
        data = synth_blobs(2, 4, 2, 0.1, seed=0)
        with pytest.raises(ValueError, match=r"^node_count must be >= 1$"):
            dirichlet_partition(data, 0, 1.0, 0)
        with pytest.raises(ValueError, match=r"^alpha must be > 0$"):
            dirichlet_partition(data, 2, 0.0, 0)


class TestLabelFlip:
    def test_direct_swap(self):
        data = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3)
        out = poison_dataset(data, LabelFlip(0, 1))
        np.testing.assert_array_equal(out.labels, [1, 0, 2])
        np.testing.assert_array_equal(out.features, data.features)

    def test_absent_classes_noop(self):
        data = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 5)
        out = poison_dataset(data, LabelFlip(3, 4))
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = rng.integers(0, 6, size=15)
            data = LabeledDataset(np.zeros((15, 2)), labels, 6)
            t1, t2 = rng.choice(6, size=2, replace=False)
            flip = LabelFlip(t1, t2)
            twice = poison_dataset(poison_dataset(data, flip), flip)
            np.testing.assert_array_equal(twice.labels, data.labels)

    def test_input_not_mutated(self):
        data = LabeledDataset(np.zeros((2, 2)), [0, 1], 2)
        poison_dataset(data, LabelFlip(0, 1))
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_same_class_rejected(self):
        with pytest.raises(ValueError, match=r"^label-flip targets must differ$"):
            LabelFlip(2, 2)

    def test_class_out_of_range(self):
        data = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3)
        with pytest.raises(ValueError, match=r"^t2 3 out of range for 3 classes$"):
            poison_dataset(data, LabelFlip(0, 3))


class TestBackdoor:
    def test_stamps_and_relabels(self):
        data = LabeledDataset(np.full((3, 4), 0.5), [0, 1, 2], 3)
        out = poison_dataset(data, Backdoor(((0, 1.0), (2, 0.0)), target=1))
        np.testing.assert_array_equal(out.labels, [1, 1, 1])
        np.testing.assert_array_equal(out.features[:, 0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(out.features[:, 2], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.features[:, 1], [0.5, 0.5, 0.5])

    def test_corner_block_pattern_indices(self):
        pattern = corner_block_pattern(image_width=5, size=2, value=0.9)
        assert pattern == ((0, 0.9), (1, 0.9), (5, 0.9), (6, 0.9))

    def test_out_of_range_pattern(self):
        data = LabeledDataset(np.zeros((1, 2)), [0], 2)
        with pytest.raises(ValueError, match=r"^pattern index 5 out of range for dim 2$"):
            poison_dataset(data, Backdoor(((5, 1.0),), target=0))

    def test_target_out_of_range(self):
        data = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3)
        with pytest.raises(ValueError, match=r"^target 3 out of range for 3 classes$"):
            poison_dataset(data, Backdoor(((0, 1.0),), target=3))


class TestPoisonDataset:
    def test_dispatch(self):
        data = LabeledDataset(np.zeros((2, 3)), [0, 1], 2)
        flipped = poison_dataset(data, LabelFlip(0, 1))
        np.testing.assert_array_equal(flipped.labels, [1, 0])
        stamped = poison_dataset(data, Backdoor(((1, 1.0),), 0))
        np.testing.assert_array_equal(stamped.labels, [0, 0])


class TestAttackScore:
    def _constant_model(self, always: int, dim=2, classes=3):
        arch = Architecture(dim, classes)
        params = np.zeros(arch.param_count)
        params[dim * classes + always] = 1.0  # bias picks the winner
        return Model(params, arch)

    def test_always_t2_scores_original_t1_share(self):
        """A model that answers t2 for everything is right exactly on the
        samples that started as t1 (their transformed label is t2)."""
        labels = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        test = LabeledDataset(np.zeros((10, 2)), labels, 3)
        model = self._constant_model(always=1)
        score = attack_score(model, attack_segment(test, LabelFlip(0, 1)))
        # Segment is 7 samples (three 0s, four 1s); the three original 0s
        # carry transformed label 1.
        assert score == pytest.approx(3 / 7)

    def test_label_flip_empty_segment_undefined(self):
        test = LabeledDataset(np.zeros((4, 2)), [2, 2, 2, 2], 3)
        with pytest.raises(UndefinedScore):
            attack_segment(test, LabelFlip(0, 1))

    def test_flip_class_out_of_range_is_not_an_undefined_score(self):
        """The classes are checked before the segment's rows are chosen."""
        test = LabeledDataset(np.zeros((3, 2)), [0, 1, 2], 3)
        with pytest.raises(ValueError, match=r"^t1 3 out of range for 3 classes$"):
            attack_segment(test, LabelFlip(3, 4))

    def test_backdoor_scores_stamped_set(self):
        test = LabeledDataset(np.full((5, 2), 0.5), [0, 1, 2, 0, 1], 3)
        segment = attack_segment(test, Backdoor(((0, 1.0),), 2))
        assert attack_score(self._constant_model(always=2), segment) == 1.0
        assert attack_score(self._constant_model(always=0), segment) == 0.0

    def test_empty_test_set_rejected(self):
        empty = LabeledDataset(np.empty((0, 2)), [], 3)
        with pytest.raises(ValueError):
            attack_segment(empty, LabelFlip(0, 1))

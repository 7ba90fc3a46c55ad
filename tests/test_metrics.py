import json

import numpy as np
import pytest

from ecgscalo.metrics import (challenge_f1, confusion, format_confusion,
                              precision_recall)


class TestConfusion:
    def test_perfect_all_normal(self):
        cm = confusion([0] * 7, [0] * 7)
        assert cm[0, 0] == 7
        assert cm.sum() == 7

    def test_single_off_diagonal(self):
        cm = confusion(preds=[3], labels=[1])  # one AF predicted Noise
        assert cm[1, 3] == 1
        assert cm.sum() == 1

    def test_empty(self):
        assert np.all(confusion([], []) == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])

    @pytest.mark.parametrize("preds,labels,bad", [
        ([-1, 0], [0, -1], "-1"),
        ([0, 4], [0, 1], "4"),
        ([0], [7], "7"),
    ])
    def test_class_outside_range_rejected(self, preds, labels, bad):
        with pytest.raises(ValueError, match=rf"class {bad} is not one of"):
            confusion(preds, labels)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, 100)
        labels = rng.integers(0, 4, 100)
        assert confusion(preds, labels).sum() == 100

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 4, 60)
        labels = rng.integers(0, 4, 60)
        perm = rng.permutation(60)
        np.testing.assert_array_equal(confusion(preds, labels),
                                      confusion(preds[perm], labels[perm]))


class TestPrecisionRecall:
    def test_diagonal_is_perfect(self):
        cm = np.diag([5, 3, 2, 1])
        precision, recall = precision_recall(cm)
        assert precision == [1.0, 1.0, 1.0, 1.0]
        assert recall == [1.0, 1.0, 1.0, 1.0]

    def test_hand_fixture(self):
        # Normal row: 9 right, 1 leaked to Other; Normal column otherwise
        # clean: recall 9/10, precision 9/9
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0], cm[0, 2] = 9, 1
        cm[1, 1] = cm[2, 2] = cm[3, 3] = 5
        precision, recall = precision_recall(cm)
        assert recall[0] == pytest.approx(0.9)
        assert precision[0] == pytest.approx(1.0)

    def test_zero_true_instances_reports_absent(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0] = 10
        precision, recall = precision_recall(cm)
        assert recall[1] is None
        assert precision[1] is None


class TestChallengeF1:
    def test_perfect(self):
        cm = np.diag([10, 10, 10, 10])
        report = challenge_f1(cm)
        assert report.f1 == [1.0, 1.0, 1.0, 1.0]
        assert report.mean3 == 1.0
        assert report.mean4 == 1.0

    def test_hand_fixture(self):
        # Normal: 90 right, 10 missed to Other; every other class clean at
        # 100. F1_Normal = 2*90 / (100 + 90) = 180/190
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0], cm[0, 2] = 90, 10
        cm[1, 1] = cm[3, 3] = 100
        cm[2, 2] = 100
        report = challenge_f1(cm)
        assert report.f1[0] == pytest.approx(2 * 90 / (100 + 90), abs=1e-12)
        assert report.f1[0] == pytest.approx(0.9474, abs=5e-5)

    def test_all_wrong(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 1] = cm[1, 2] = cm[2, 3] = cm[3, 0] = 25
        report = challenge_f1(cm)
        assert report.f1 == [0.0, 0.0, 0.0, 0.0]
        assert report.mean3 == 0.0 and report.mean4 == 0.0

    def test_absent_class_poisons_means_explicitly(self):
        cm = np.zeros((4, 4), dtype=int)
        cm[0, 0] = 5
        report = challenge_f1(cm)
        assert report.f1[1] is None
        assert report.mean3 is None
        assert report.mean4 is None

    def test_harmonic_mean_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = rng.integers(0, 30, size=(4, 4))
            precision, recall = precision_recall(cm)
            report = challenge_f1(cm)
            for c in range(4):
                p, r, f = precision[c], recall[c], report.f1[c]
                if p is None or r is None or p + r == 0:
                    continue
                assert abs(f - 2 * p * r / (p + r)) <= 1e-12

    def test_json_serializable(self):
        report = challenge_f1(np.diag([1, 1, 1, 1]))
        parsed = json.loads(report.to_json())
        assert parsed["mean3"] == 1.0
        assert parsed["classes"] == ["Normal", "AF", "Other", "Noise"]


class TestFormatting:
    def test_table_contains_counts_and_names(self):
        cm = confusion([0, 1, 3], [0, 1, 1])
        table = format_confusion(cm)
        assert "Normal" in table and "Noise" in table
        assert len(table.splitlines()) == 5

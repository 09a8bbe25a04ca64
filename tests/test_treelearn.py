"""Tree growing, forests, pruning, k-fold evaluation, and serialization."""

import math
import random

import numpy as np
import pytest

from smartps import treelearn
from smartps.dataset import FEATURE_NAMES, N_FEATURES, LabeledRecord
from smartps.traceio import WF, LF
from smartps.treelearn import (
    ForestModel, Internal, Leaf, ModelFormatError, TreeParams,
    aggregate_counts, build_tree, candidate_thresholds, deserialize_model,
    evaluate, igr, kfold_evaluate, metrics_from_confusion, node_count,
    predict, predict_batch, prune_model, prune_tree, serialize_model, train_forest,
)


def rec(label, **features):
    feats = [0.0] * N_FEATURES
    for name, v in features.items():
        feats[FEATURE_NAMES.index(name)] = float(v)
    return LabeledRecord(features=tuple(feats), label=label)


def planted_records(n, seed, noise=0.0):
    """Labels follow a 3-level rule over (rssi_wifi, rssi_lte, sinr_lte)."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        rssi_w = float(rng.uniform(-95.0, -30.0))
        rssi_l = float(rng.uniform(-110.0, -50.0))
        sinr_l = float(rng.uniform(-5.0, 30.0))
        if rssi_w > -60.0:
            label = WF
        elif rssi_l > -80.0:
            label = LF
        else:
            label = WF if sinr_l <= 10.0 else LF
        if noise and rng.random() < noise:
            label = LF if label == WF else WF
        records.append(rec(label, rssi_wifi=rssi_w, rssi_lte=rssi_l,
                           sinr_lte=sinr_l,
                           rtt_wifi=float(rng.uniform(10, 60)),
                           plr_wifi=float(rng.uniform(0, 0.02))))
    return records


# ---------------------------------------------------------------------------
# Candidate thresholds and IGR
# ---------------------------------------------------------------------------

class TestCandidateThresholds:
    def test_small_value_set_raw_midpoints(self):
        assert candidate_thresholds([1.0, 2.0, 4.0]) == [1.5, 3.0]

    def test_duplicates_collapse(self):
        assert candidate_thresholds([1.0, 1.0, 2.0, 2.0]) == [1.5]

    def test_single_value_no_candidates(self):
        assert candidate_thresholds([3.0, 3.0]) == []

    def test_large_value_set_uses_bin_edges(self):
        vals = [float(v) for v in range(-50, -9)]  # 41 distinct, bins -10..-2
        out = candidate_thresholds(vals, 5.0)
        assert out == [-45.0, -40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]

    def test_bin_gap_threshold_is_edge_midpoint(self):
        vals = [float(v) for v in range(33)] + [100.0]  # bins 0..6 plus bin 20
        out = candidate_thresholds(vals, 5.0)
        assert out[-1] == (7 * 5.0 + 20 * 5.0) / 2.0  # 67.5
        assert out[:-1] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


class TestIgr:
    FOUR = [rec(WF, rssi_wifi=-40), rec(WF, rssi_wifi=-45),
            rec(LF, rssi_wifi=-80), rec(LF, rssi_wifi=-85)]
    FI = FEATURE_NAMES.index("rssi_wifi")

    def test_perfect_split_is_one(self):
        assert igr(self.FOUR, self.FI, -60.0) == 1.0

    def test_useless_split_is_zero(self):
        mixed = [rec(WF, rssi_wifi=-40), rec(LF, rssi_wifi=-45),
                 rec(WF, rssi_wifi=-80), rec(LF, rssi_wifi=-85)]
        assert igr(mixed, self.FI, -60.0) == pytest.approx(0.0)

    def test_empty_side_is_none(self):
        assert igr(self.FOUR, self.FI, -100.0) is None
        assert igr(self.FOUR, self.FI, 0.0) is None

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            igr([], 0, 0.0)

    def test_matches_entropy_arithmetic(self):
        # 3 WF / 1 LF split so that left = [WF, WF], right = [WF, LF].
        recs = [rec(WF, rssi_wifi=-40), rec(WF, rssi_wifi=-45),
                rec(WF, rssi_wifi=-80), rec(LF, rssi_wifi=-85)]
        h_parent = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        ig = h_parent - 0.5 * 0.0 - 0.5 * 1.0
        split_info = 1.0
        assert igr(recs, self.FI, -60.0) == pytest.approx(ig / split_info, abs=1e-12)


# ---------------------------------------------------------------------------
# Tree growing and prediction
# ---------------------------------------------------------------------------

SMALL_PARAMS = TreeParams(min_leaf=1, min_igr=1e-9)


class TestBuildTree:
    def test_pure_input_is_leaf(self):
        t = build_tree([rec(WF), rec(WF)], SMALL_PARAMS)
        assert t == Leaf(label=WF, counts=(2, 0))

    def test_four_record_perfect_split(self):
        t = build_tree(TestIgr.FOUR, SMALL_PARAMS)
        assert isinstance(t, Internal)
        assert t.feature == TestIgr.FI
        assert t.threshold == pytest.approx(-62.5)  # midpoint of -80 and -45
        assert t.left == Leaf(label=LF, counts=(0, 2))
        assert t.right == Leaf(label=WF, counts=(2, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_tree([])

    def test_max_depth_zero_gives_majority_leaf(self):
        t = build_tree(TestIgr.FOUR + [rec(WF)], TreeParams(max_depth=0))
        assert t == Leaf(label=WF, counts=(3, 2))

    def test_balanced_leaf_tie_uses_global_majority(self):
        # 2 WF vs 2 LF and no usable split: global majority prefers WF on ties.
        t = build_tree([rec(WF), rec(WF), rec(LF), rec(LF)], TreeParams())
        assert t == Leaf(label=WF, counts=(2, 2))

    def test_min_igr_blocks_weak_split(self):
        recs = [rec(WF, rssi_wifi=-40), rec(LF, rssi_wifi=-45),
                rec(WF, rssi_wifi=-80), rec(LF, rssi_wifi=-85)]
        t = build_tree(recs, TreeParams(min_leaf=1, min_igr=0.5))
        assert isinstance(t, Leaf)

    def test_root_split_matches_brute_force(self):
        # Independent oracle: exhaustively score every candidate on every
        # feature with plain entropy arithmetic; the depth-1 root split must
        # achieve the maximum gain ratio.
        def oracle_igr(xs, ys, thr):
            left = [y for x, y in zip(xs, ys) if x <= thr]
            right = [y for x, y in zip(xs, ys) if x > thr]
            if not left or not right:
                return None

            def h(labels):
                out = 0.0
                for lab in set(labels):
                    p = labels.count(lab) / len(labels)
                    out -= p * math.log2(p)
                return out

            n = len(ys)
            ig = h(ys) - len(left) / n * h(left) - len(right) / n * h(right)
            si = h(["L"] * len(left) + ["R"] * len(right))
            return ig / si

        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(4, 10)
            recs = [rec(rng.choice([WF, LF]),
                        rssi_wifi=rng.randint(-90, -30),
                        rtt_lte=rng.randint(20, 60)) for _ in range(n)]
            labels = [r.label for r in recs]
            if len(set(labels)) < 2:
                continue
            best = None
            for fname in ("rssi_wifi", "rtt_lte"):
                fi = FEATURE_NAMES.index(fname)
                xs = [r.features[fi] for r in recs]
                for thr in candidate_thresholds(xs):
                    score = oracle_igr(xs, labels, thr)
                    if score is not None and (best is None or score > best):
                        best = score
            t = build_tree(recs, TreeParams(max_depth=1, min_leaf=1, min_igr=1e-9))
            if best is None or best < 1e-9:
                assert isinstance(t, Leaf)
            else:
                assert isinstance(t, Internal)
                achieved = igr(recs, t.feature, t.threshold)
                assert achieved == pytest.approx(best, abs=1e-12)


class TestPredict:
    TREE = Internal(feature=0, threshold=-60.0,
                    left=Leaf(LF, (0, 3)), right=Leaf(WF, (3, 0)))

    def test_left_on_equal(self):
        f = [0.0] * N_FEATURES
        f[0] = -60.0
        assert predict(self.TREE, f) == LF

    def test_right_above(self):
        f = [0.0] * N_FEATURES
        f[0] = -59.9
        assert predict(self.TREE, f) == WF

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            predict(self.TREE, [0.0] * 3)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        recs = planted_records(300, seed=9)
        t = build_tree(recs, TreeParams(min_leaf=5))
        X = np.array([r.features for r in recs])
        batch = predict_batch(t, X)
        for i in rng.integers(0, len(recs), size=40):
            want = 0 if predict(t, recs[i].features) == WF else 1
            assert batch[i] == want

    def test_planted_rule_learned(self):
        recs = planted_records(2000, seed=1)
        t = build_tree(recs, TreeParams(min_leaf=10))
        m = evaluate(t, planted_records(500, seed=2))
        assert m.accuracy > 0.95


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

class TestForest:
    def test_degenerate_forest_equals_tree(self):
        recs = planted_records(400, seed=3)
        params = TreeParams(min_leaf=5, feature_subset=N_FEATURES)
        forest = train_forest(recs, n_trees=1, params=params, seed=0)
        rows = np.random.default_rng(0).integers(0, len(recs), size=len(recs))
        tree = build_tree([recs[i] for i in rows], params)
        X = np.array([r.features for r in recs])
        assert (predict_batch(forest, X) == predict_batch(tree, X)).all()

    def test_deterministic_for_fixed_seed(self):
        recs = planted_records(300, seed=4)
        a = train_forest(recs, n_trees=5, seed=11)
        b = train_forest(recs, n_trees=5, seed=11)
        assert serialize_model(a) == serialize_model(b)

    def test_seed_changes_forest(self):
        recs = planted_records(300, seed=4)
        a = train_forest(recs, n_trees=5, seed=1)
        b = train_forest(recs, n_trees=5, seed=2)
        assert serialize_model(a) != serialize_model(b)

    def test_forest_accuracy_on_planted_rule(self):
        recs = planted_records(1500, seed=5, noise=0.05)
        forest = train_forest(recs, n_trees=25, params=TreeParams(min_leaf=10),
                              seed=0)
        m = evaluate(forest, planted_records(500, seed=6))
        assert m.accuracy > 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_forest([])

    def test_forest_shape_validated(self):
        with pytest.raises(ValueError):
            ForestModel(trees=(), seed=0, global_majority=WF)


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

class TestPrune:
    def test_useless_split_collapses(self):
        tree = Internal(feature=0, threshold=-60.0,
                        left=Leaf(WF, (5, 1)), right=Leaf(WF, (4, 2)))
        val = [rec(WF, rssi_wifi=-70), rec(WF, rssi_wifi=-50)]
        pruned = prune_tree(tree, val)
        assert pruned == Leaf(label=WF, counts=(9, 3))

    def test_useful_split_kept(self):
        tree = Internal(feature=0, threshold=-60.0,
                        left=Leaf(LF, (1, 5)), right=Leaf(WF, (5, 1)))
        val = [rec(LF, rssi_wifi=-70), rec(LF, rssi_wifi=-80),
               rec(WF, rssi_wifi=-50), rec(WF, rssi_wifi=-40)]
        assert prune_tree(tree, val) == tree

    def test_tie_favors_pruning(self):
        # Leaf and split both score 1/2 correct: collapse wins.
        tree = Internal(feature=0, threshold=-60.0,
                        left=Leaf(LF, (0, 5)), right=Leaf(WF, (5, 0)))
        val = [rec(WF, rssi_wifi=-70), rec(LF, rssi_wifi=-50)]
        pruned = prune_tree(tree, val)
        assert isinstance(pruned, Leaf)

    def test_input_not_mutated(self):
        tree = Internal(feature=0, threshold=-60.0,
                        left=Leaf(WF, (5, 1)), right=Leaf(WF, (4, 2)))
        before = serialize_model(tree)
        prune_tree(tree, [rec(WF, rssi_wifi=-70)])
        assert serialize_model(tree) == before

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            prune_tree(Leaf(WF, (1, 0)), [])

    def test_seeded_properties(self):
        # Never lower validation accuracy, never grow the tree, idempotent.
        for seed in range(15):
            train = planted_records(400, seed=seed, noise=0.25)
            val = planted_records(150, seed=1000 + seed, noise=0.25)
            tree = build_tree(train, TreeParams(min_leaf=2, max_depth=10))
            pruned = prune_tree(tree, val)
            assert evaluate(pruned, val).accuracy >= evaluate(tree, val).accuracy
            assert node_count(pruned) <= node_count(tree)
            assert prune_tree(pruned, val) == pruned
            assert aggregate_counts(pruned) == aggregate_counts(tree)

    def test_prune_model_prunes_every_tree_of_a_forest(self):
        train = planted_records(400, seed=3, noise=0.25)
        val = planted_records(150, seed=1003, noise=0.25)
        forest = train_forest(train, n_trees=5, params=TreeParams(min_leaf=2), seed=3)
        pruned = prune_model(forest, val)
        assert pruned.trees == tuple(prune_tree(t, val) for t in forest.trees)
        assert (len(pruned.trees), pruned.seed, pruned.global_majority) == (
            len(forest.trees), forest.seed, forest.global_majority)
        assert prune_model(forest.trees[0], val) == pruned.trees[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_confusion_example(self):
        m = metrics_from_confusion(tp=80, fp=20, fn=20, tn=80)
        assert m.accuracy == m.precision == m.recall == 0.8
        assert m.f1 == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_all_zero(self):
        m = metrics_from_confusion(0, 0, 0, 0)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0, 0.0)

    def test_constant_wf_learner_on_balanced_data(self):
        records = ([rec(WF, rssi_wifi=-40 - i) for i in range(20)]
                   + [rec(LF, rssi_wifi=-70 - i) for i in range(20)])
        result = kfold_evaluate(records, lambda train: Leaf(WF, (1, 0)),
                                k=10, seed=0)
        m = result.mean
        assert m.accuracy == 0.5
        assert m.recall == 1.0
        assert m.precision == 0.5
        assert m.f1 == pytest.approx(2 / 3)
        assert len(result.folds) == 10

    def test_kfold_needs_k_members_per_class(self):
        records = [rec(WF)] * 9 + [rec(LF)] * 20
        with pytest.raises(ValueError, match="WF"):
            kfold_evaluate(records, lambda train: Leaf(WF, (1, 0)), k=10)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_kfold_needs_two_folds(self, k):
        records = [rec(WF)] * 20 + [rec(LF)] * 20
        with pytest.raises(ValueError, match=f"at least 2 folds, got {k}"):
            kfold_evaluate(records, lambda train: Leaf(WF, (1, 0)), k=k)

    def test_evaluate_rejects_empty_records(self):
        with pytest.raises(ValueError, match="empty record list"):
            evaluate(Leaf(WF, (1, 0)), [])

    def test_kfold_deterministic(self):
        records = planted_records(200, seed=8, noise=0.1)
        learner = lambda train: build_tree(train, TreeParams(min_leaf=5))
        a = kfold_evaluate(records, learner, k=5, seed=3)
        b = kfold_evaluate(records, learner, k=5, seed=3)
        assert a == b


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialize:
    def test_leaf_line(self):
        assert serialize_model(Leaf(label=WF, counts=(3, 1))) == "L WF 3 1\n"

    def test_tree_roundtrip(self):
        recs = planted_records(300, seed=10)
        t = build_tree(recs, TreeParams(min_leaf=5))
        assert deserialize_model(serialize_model(t)) == t

    def test_forest_roundtrip(self):
        recs = planted_records(300, seed=10)
        f = train_forest(recs, n_trees=4, seed=2)
        assert deserialize_model(serialize_model(f)) == f

    def test_threshold_precision_preserved(self):
        t = Internal(feature=3, threshold=-62.50000000000001,
                     left=Leaf(WF, (1, 0)), right=Leaf(LF, (0, 1)))
        assert deserialize_model(serialize_model(t)) == t

    def test_empty_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("")

    def test_truncated_tree_names_line(self):
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model("N 0 -60.0\nL WF 1 0\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(ModelFormatError, match="trailing"):
            deserialize_model("L WF 1 0\nL LF 0 1\n")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            deserialize_model("X nonsense\n")

    def test_bad_feature_index_rejected(self):
        with pytest.raises(ModelFormatError, match="out of range"):
            deserialize_model("N 99 1.0\nL WF 1 0\nL LF 0 1\n")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_names_line(self, threshold):
        with pytest.raises(ModelFormatError, match="line 2: non-finite threshold"):
            deserialize_model(f"N 0 -60.0\nN 1 {threshold}\nL WF 1 0\nL LF 0 1\nL LF 0 1\n")

    def test_bad_forest_header_rejected(self):
        with pytest.raises(ModelFormatError, match="forest header"):
            deserialize_model("F 2 0 XX\nL WF 1 0\nL LF 0 1\n")

    @pytest.mark.parametrize("header", ["F 0 7 WF", "F -2 7 WF"])
    def test_tree_count_below_one_names_line(self, header):
        with pytest.raises(ModelFormatError, match="line 1: forest needs at least one tree"):
            deserialize_model(f"{header}\nL WF 1 0\n")

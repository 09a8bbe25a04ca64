"""Tree growing, forests, pruning, k-fold evaluation, and serialization."""

import hashlib
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smartps import scenarios, treelearn
from smartps.dataset import FEATURE_NAMES, N_FEATURES, LabeledRecord
from smartps.traceio import WF, LF
from smartps.treelearn import (
    FEATURE_BIN_WIDTHS, FOREST_FEATURES, SMALL_VALUE_SET, ForestModel, Internal, Leaf,
    ModelFormatError, TreeParams, _best_split, _grow_tree, _igr_from_counts, _thresholds,
    aggregate_counts, build_tree, deserialize_model, evaluate,
    kfold_evaluate, metrics_from_confusion, node_count, predict, predict_batch, prune_model,
    prune_tree, serialize_model, to_arrays, train_forest,
)

from tests.test_featstats import reference_entropy


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


def oracle_igr(recs, fi, thr):
    """Gain ratio of the split feature fi <= thr in plain entropy arithmetic; None if a
    side is empty."""
    h = reference_entropy
    labels = [r.label for r in recs]
    left = [r.label for r in recs if r.features[fi] <= thr]
    right = [r.label for r in recs if r.features[fi] > thr]
    if not left or not right:
        return None
    n = len(labels)
    ig = h(labels) - len(left) / n * h(left) - len(right) / n * h(right)
    return ig / h(["L"] * len(left) + ["R"] * len(right))


def check_root_split(rng):
    """Draw 4-10 records over rssi_wifi and rtt_lte.  A depth-1 tree must stay a leaf
    when no candidate gains, else reach the best gain ratio that scoring every
    candidate with oracle_igr finds.  Returns whether a split was checked."""
    recs = [rec(rng.choice([WF, LF]), rssi_wifi=rng.randint(-90, -30),
                rtt_lte=rng.randint(20, 60)) for _ in range(rng.randint(4, 10))]
    if len({r.label for r in recs}) < 2:
        return False
    scores = [oracle_igr(recs, fi, thr)
              for fi in (FEATURE_NAMES.index("rssi_wifi"), FEATURE_NAMES.index("rtt_lte"))
              for thr in _thresholds(np.unique([r.features[fi] for r in recs]),
                                     FEATURE_BIN_WIDTHS[fi]).tolist()]
    best = max((s for s in scores if s is not None), default=None)
    tree = build_tree(recs, TreeParams(max_depth=1, min_leaf=1, min_igr=1e-9))
    if best is None or best < 1e-9:
        assert isinstance(tree, Leaf)
        return False
    assert isinstance(tree, Internal)
    assert abs(oracle_igr(recs, tree.feature, tree.threshold) - best) <= 1e-12
    return True


# ---------------------------------------------------------------------------
# Candidate thresholds and IGR
# ---------------------------------------------------------------------------

class TestCandidateThresholds:
    def test_small_value_set_raw_midpoints(self):
        assert _thresholds(np.unique([1.0, 2.0, 4.0]), 5.0).tolist() == [1.5, 3.0]

    def test_duplicates_collapse(self):
        assert _thresholds(np.unique([1.0, 1.0, 2.0, 2.0]), 5.0).tolist() == [1.5]

    def test_single_value_no_candidates(self):
        assert _thresholds(np.unique([3.0, 3.0]), 5.0).tolist() == []

    def test_large_value_set_uses_bin_edges(self):
        vals = [float(v) for v in range(-50, -9)]  # 41 distinct, bins -10..-2
        out = _thresholds(np.unique(vals), 5.0).tolist()
        assert out == [-45.0, -40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]

    def test_bin_gap_threshold_is_edge_midpoint(self):
        vals = [float(v) for v in range(33)] + [100.0]  # bins 0..6 plus bin 20
        out = _thresholds(np.unique(vals), 5.0).tolist()
        assert out[-1] == (7 * 5.0 + 20 * 5.0) / 2.0  # 67.5
        assert out[:-1] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


class TestIgr:
    """_igr_from_counts takes the (wf, lf) counts left of a split, then right of it."""

    FOUR = [rec(WF, rssi_wifi=-40), rec(WF, rssi_wifi=-45),
            rec(LF, rssi_wifi=-80), rec(LF, rssi_wifi=-85)]
    FI = FEATURE_NAMES.index("rssi_wifi")

    def test_perfect_split_is_one(self):
        assert _igr_from_counts(0, 2, 2, 0) == 1.0

    def test_useless_split_is_zero(self):
        assert _igr_from_counts(1, 1, 1, 1) == pytest.approx(0.0)

    def test_empty_side_is_none(self):
        assert _igr_from_counts(0, 0, 2, 2) is None
        assert _igr_from_counts(2, 2, 0, 0) is None

    def test_matches_entropy_arithmetic(self):
        # 3 WF / 1 LF split so that left = [WF, WF], right = [WF, LF].
        h_parent = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        ig = h_parent - 0.5 * 0.0 - 0.5 * 1.0
        split_info = 1.0
        assert _igr_from_counts(2, 0, 1, 1) == pytest.approx(ig / split_info, abs=1e-12)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        recs = [rec(WF, rssi_wifi=-40), rec(LF, rssi_wifi=bad), rec(LF, rssi_wifi=-80)]
        with pytest.raises(ValueError, match=rf"record 1: feature rssi_wifi is not finite \({bad}\)"):
            build_tree(recs, SMALL_PARAMS)

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
        rng = random.Random(5)
        for _ in range(30):
            check_root_split(rng)


def reference_split(X, y, idx, features, min_leaf):
    """The split search as a plain loop: every candidate scored with
    _igr_from_counts, features in the given order, thresholds ascending, and
    the first strictly best kept."""
    best = None
    for f in features:
        vals = [float(X[i, f]) for i in idx]
        labels = [int(y[i]) for i in idx]
        distinct = sorted(set(vals))
        if len(distinct) <= SMALL_VALUE_SET:
            cands = [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
        else:
            w = FEATURE_BIN_WIDTHS[f]
            bins = sorted({math.floor(v / w) for v in distinct})
            cands = [((k1 + 1) * w + k2 * w) / 2.0 for k1, k2 in zip(bins, bins[1:])]
        n_wf = labels.count(0)
        n_lf = len(labels) - n_wf
        for thr in cands:
            wl = sum(1 for v, lab in zip(vals, labels) if v <= thr and lab == 0)
            ll = sum(1 for v, lab in zip(vals, labels) if v <= thr and lab == 1)
            if wl + ll < min_leaf or len(vals) - (wl + ll) < min_leaf:
                continue
            score = _igr_from_counts(wl, ll, n_wf - wl, n_lf - ll)
            if best is None or score > best[0]:
                best = (score, f, thr)
    return best


@st.composite
def split_cases(draw):
    """A node with heavily tied values.  Each searched column holds multiples
    of a third of its bin width, drawn from 3, 7 or 121 of them, so both the
    raw-midpoint and the bin-edge branch come up, with several values per bin."""
    features = draw(st.one_of(
        st.just(list(range(N_FEATURES))),
        st.lists(st.integers(0, N_FEATURES - 1), min_size=FOREST_FEATURES,
                 max_size=FOREST_FEATURES, unique=True).map(sorted)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 150))
    X = np.zeros((n, N_FEATURES))
    for f in features:
        spread = draw(st.sampled_from((1, 3, 60)))
        X[:, f] = rng.integers(-spread, spread + 1, size=n) * FEATURE_BIN_WIDTHS[f] / 3
    y = (rng.random(n) < draw(st.sampled_from((0.1, 0.5, 0.9)))).astype(np.int8)
    idx = draw(st.one_of(st.just(np.arange(n)),
                         st.sets(st.integers(0, n - 1), min_size=1).map(sorted).map(np.array)))
    m = len(idx)
    min_leaf = draw(st.one_of(st.sampled_from((1, max(1, m // 2), m // 2 + 1)),
                              st.integers(1, max(1, m // 4))))
    return X, y, idx, features, min_leaf


class TestBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(case=split_cases())
    def test_equals_reference_search(self, case):
        assert _best_split(*case) == reference_split(*case)

    @pytest.mark.parametrize("wf, lf, first, second, winner", [
        (17, 64, (5, 57), (12, 7), 0),    # equal exact IGRs: the first feature wins
        (21, 53, (14, 51), (7, 2), 1),    # the second is higher by one ulp
    ])
    def test_exact_formula_breaks_near_ties(self, wf, lf, first, second, winner):
        # Two one-candidate features whose (wf, lf) left counts give IGRs that
        # the numpy screen orders differently from _igr_from_counts (numpy 2.4).
        X = np.ones((wf + lf, N_FEATURES))
        y = np.array([0] * wf + [1] * lf, dtype=np.int8)
        for f, (wl, ll) in enumerate((first, second)):
            X[:wl, f] = X[wf:wf + ll, f] = 0.0
        scores = [_igr_from_counts(wl, ll, wf - wl, lf - ll) for wl, ll in (first, second)]
        best = _best_split(X, y, np.arange(wf + lf), [0, 1], 1)
        assert best == (scores[winner], winner, 0.5)
        assert best == reference_split(X, y, np.arange(wf + lf), [0, 1], 1)


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


# Thresholds and feature values share one small pool, so a feature often
# equals a threshold exactly (it goes left); NaN compares false and goes right.
POOL = (-60.0, -0.5, -0.0, 0.1, 12.25, 1e-300)
LEAVES = st.builds(Leaf, st.sampled_from((WF, LF)), st.just((1, 1)))
TREES = st.recursive(LEAVES, lambda kids: st.builds(
    Internal, st.integers(0, N_FEATURES - 1), st.sampled_from(POOL), kids, kids),
    max_leaves=12)
FORESTS = st.builds(ForestModel, st.lists(TREES, min_size=1, max_size=8).map(tuple),
                    st.just(0), st.sampled_from((WF, LF)))
ROWS = st.lists(st.lists(st.one_of(st.sampled_from(POOL), st.just(math.nan),
                                   st.floats(allow_nan=False)),
                         min_size=N_FEATURES, max_size=N_FEATURES),
                min_size=1, max_size=20)


def flipped(node):
    """The tree with every leaf label swapped, so it votes against the original."""
    if isinstance(node, Leaf):
        return Leaf(LF if node.label == WF else WF, node.counts)
    return Internal(node.feature, node.threshold, flipped(node.left), flipped(node.right))


def walk(node, row):
    while isinstance(node, Internal):
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.label


def reference_label(model, row):
    """Walk each tree of the model; a forest's tie goes to its global majority."""
    if not isinstance(model, ForestModel):
        return walk(model, row)
    wf = sum(walk(tree, row) == WF for tree in model.trees)
    lf = len(model.trees) - wf
    return WF if wf > lf else LF if lf > wf else model.global_majority


def assert_matches_reference(model, rows):
    want = [reference_label(model, row) for row in rows]
    assert [predict(model, row) for row in rows] == want
    batch = predict_batch(model, np.array(rows, dtype=float))
    assert batch.dtype == np.int8
    assert [(WF, LF)[i] for i in batch] == want


class TestCompiledPredict:
    """predict and predict_batch run generated code; a plain tree walk is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(FORESTS, TREES), rows=ROWS)
    def test_equals_batch(self, model, rows):
        assert_matches_reference(model, rows)

    @settings(max_examples=50, deadline=None)
    @given(tree=TREES, tie=st.sampled_from((WF, LF)), rows=ROWS)
    def test_tie_resolves_to_global_majority(self, tree, tie, rows):
        forest = ForestModel(trees=(tree, flipped(tree)), seed=0, global_majority=tie)
        assert {predict(forest, row) for row in rows} == {tie}
        assert_matches_reference(forest, rows)

    @pytest.mark.parametrize("label", [WF, LF])
    def test_single_leaf_model(self, label):
        rows = [[0.0] * N_FEATURES, [math.nan] * N_FEATURES]
        assert [predict(Leaf(label, (0, 0)), row) for row in rows] == [label, label]
        assert_matches_reference(Leaf(label, (0, 0)), rows)

    def test_threshold_equal_goes_left_and_nan_right(self):
        forest = ForestModel(trees=(TestPredict.TREE,) * 3, seed=0, global_majority=WF)
        rows = [[-60.0] + [0.0] * (N_FEATURES - 1), [math.nan] * N_FEATURES]
        for model in (TestPredict.TREE, forest):
            assert [predict(model, row) for row in rows] == [LF, WF]
            assert_matches_reference(model, rows)

    def test_tree_deeper_than_python_can_indent(self):
        tree = Leaf(WF, (1, 0))
        for depth in range(150):
            tree = Internal(depth % N_FEATURES, float(depth), tree, Leaf(LF, (0, 1)))
        rows = [[float(v)] * N_FEATURES for v in (-1.0, 0.0, 0.5, 75.0, 149.0, 149.5)]
        assert_matches_reference(tree, rows)
        assert predict(tree, rows[0]) == WF and predict(tree, rows[-1]) == LF

    def test_compiled_once_per_model(self, monkeypatch):
        compiles = []
        compile_classifier = treelearn._compile_classifier
        monkeypatch.setattr(treelearn, "_compile_classifier",
                            lambda m: compiles.append(m) or compile_classifier(m))
        forest = ForestModel(trees=(TestPredict.TREE,), seed=0, global_majority=WF)
        for _ in range(3):
            predict(forest, [0.0] * N_FEATURES)
        predict_batch(forest, np.zeros((2, N_FEATURES)))   # shares predict's classifier
        assert len(compiles) == 1
        predict(replace(forest), [0.0] * N_FEATURES)
        assert len(compiles) == 2

    def test_predicted_model_pickles(self):
        forest = ForestModel(trees=(TestPredict.TREE,), seed=0, global_majority=WF)
        for model in (TestPredict.TREE, forest):
            assert predict(model, [-70.0] * N_FEATURES) == LF
            copy = pickle.loads(pickle.dumps(model))
            assert copy == model
            assert predict(copy, [-70.0] * N_FEATURES) == LF

    def test_pruned_forest_predicts_with_its_own_trees(self):
        # The split is right on training counts but wrong on validation, so it
        # is pruned to the tie label WF of its aggregated counts (5, 5).
        forest = ForestModel(trees=(TestPredict.TREE,), seed=0, global_majority=WF)
        left = [-70.0] + [0.0] * (N_FEATURES - 1)
        assert predict(forest, left) == LF   # compiles the unpruned forest
        pruned = prune_model(forest, [rec(WF, rssi_wifi=-70), rec(WF, rssi_wifi=-50)])
        assert pruned.trees == (Leaf(WF, (3, 3)),)
        assert predict(pruned, left) == WF
        assert predict(forest, left) == LF


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

class TestForest:
    def test_degenerate_forest_equals_tree(self):
        # A 1-tree forest is the tree grown on the seed-0 bootstrap rows with
        # features drawn from a second default_rng(0).
        recs = planted_records(400, seed=3)
        params = TreeParams(min_leaf=5)
        forest = train_forest(recs, n_trees=1, params=params, seed=0)
        X, y = to_arrays(recs)
        rows = np.random.default_rng(0).integers(0, len(recs), size=len(recs))
        assert forest.trees == (_grow_tree(X[rows], y[rows], params, np.random.default_rng(0)),)

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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


PRETRAINED_FOREST_SHA256 = "dfbc261625e2e8a79a66ae829727e40f8819bdde997d8adc778a8b6c7ec32aa6"


class TestModelTextPins:
    """sha256 of the forest and the single tree that training_corpus(7) gives."""

    def test_pretrained_forest(self):
        assert sha256(serialize_model(scenarios.pretrained_model())) == PRETRAINED_FOREST_SHA256

    def test_single_tree_on_training_corpus(self):
        assert sha256(serialize_model(build_tree(scenarios.training_corpus(7)))) == (
            "6fced6a3e4878f190bc01126c4c7b8356764855917451972eb731f351b152695")


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
        m = kfold_evaluate(records, lambda train: Leaf(WF, (1, 0)), k=10, seed=0)
        assert m.accuracy == 0.5
        assert m.recall == 1.0
        assert m.precision == 0.5
        assert m.f1 == pytest.approx(2 / 3)

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

    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(FORESTS, TREES))
    def test_roundtrip_property(self, model):
        assert deserialize_model(serialize_model(model)) == model

    def test_empty_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("")

    def test_truncated_tree_names_line(self):
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model("N 0 -60.0\nL WF 1 0\n")

    def test_trailing_content_rejected(self):
        for text, lineno in (("L WF 1 0\nL LF 0 1\n", 2),
                             ("F 1 0 WF\nL WF 1 0\nL LF 0 1\n", 3)):
            with pytest.raises(ModelFormatError, match=f"line {lineno}: trailing"):
                deserialize_model(text)

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

    @pytest.mark.parametrize("text,lineno", [
        ("L WF -3 5\n", 1), ("N 0 -60.0\nL WF 1 0\nL LF 2 -1\n", 3)])
    def test_negative_leaf_count_names_line(self, text, lineno):
        with pytest.raises(ModelFormatError, match=f"line {lineno}: negative leaf count"):
            deserialize_model(text)

    @pytest.mark.parametrize("header", ["F 0 7 WF", "F -2 7 WF"])
    def test_tree_count_below_one_names_line(self, header):
        with pytest.raises(ModelFormatError, match="line 1: forest needs at least one tree"):
            deserialize_model(f"{header}\nL WF 1 0\n")

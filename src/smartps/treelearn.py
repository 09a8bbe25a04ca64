"""Decision-tree and random-forest learner with information gain ratio.

Splits are binary (value <= threshold goes left) and chosen by maximizing
information gain ratio (IGR = information gain / split information) over
candidate thresholds derived from the same fixed-width binning used by the
attribute analysis.  Includes bootstrap forests with per-node feature
subsampling, reduced-error post-pruning against a validation set, stratified
k-fold evaluation with ROC-style metrics (WF is the positive class), and a
line-oriented model serialization.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dataset import FEATURE_NAMES, N_FEATURES, LabeledRecord
from .featstats import BIN_WIDTHS
from .traceio import WF, LF

LABELS = (WF, LF)
_LABEL_INDEX = {WF: 0, LF: 1}

# Candidate-threshold bin width per feature index: its family's width
# ("plr_wifi" -> BIN_WIDTHS["PLR"]), in native units.
FEATURE_BIN_WIDTHS = tuple(BIN_WIDTHS[name.split("_")[0].upper()] for name in FEATURE_NAMES)

# Below this many distinct values, thresholds fall back to midpoints between
# consecutive distinct raw values instead of bin-edge midpoints.
SMALL_VALUE_SET = 32


class ModelFormatError(ValueError):
    """Malformed serialized model."""


@dataclass(frozen=True)
class Leaf:
    label: str
    counts: tuple[int, int]  # (wf, lf) training counts reaching this leaf


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    left: "TreeNode"   # value <= threshold
    right: "TreeNode"  # value > threshold


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    seed: int
    global_majority: str

    def __post_init__(self):
        if not self.trees:
            raise ValueError("forest must contain at least one tree")


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 8
    min_leaf: int = 20
    min_igr: float = 1e-3
    feature_subset: Optional[int] = None  # None or >= N_FEATURES: all features
    seed: int = 0


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


def to_arrays(records: Sequence[LabeledRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and label vector (0 = WF); every learner input goes through here."""
    if len(records) == 0:
        raise ValueError("empty record list")
    X = np.array([r.features for r in records], dtype=float).reshape(len(records), N_FEATURES)
    y = np.array([_LABEL_INDEX[r.label] for r in records], dtype=np.int8)
    return X, y


# ---------------------------------------------------------------------------
# Split machinery
# ---------------------------------------------------------------------------

def candidate_thresholds(values: Sequence[float], width: float = 5.0) -> list[float]:
    """Candidate split thresholds for one feature.

    Few distinct values: midpoints between consecutive distinct raw values.
    Otherwise: midpoints between the facing edges of consecutive occupied
    fixed-width bins (adjacent bins yield their shared edge).
    """
    distinct = np.unique(np.asarray(values, dtype=float))
    if len(distinct) < 2:
        return []
    if len(distinct) <= SMALL_VALUE_SET:
        return [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    bins = np.unique(np.floor(distinct / width)).astype(np.int64)
    return [((k1 + 1) * width + k2 * width) / 2.0 for k1, k2 in zip(bins[:-1], bins[1:])]


def _h2(wf: int, lf: int) -> float:
    n = wf + lf
    if n == 0 or wf == 0 or lf == 0:
        return 0.0
    pw, pl = wf / n, lf / n
    return -pw * math.log2(pw) - pl * math.log2(pl)


def _igr_from_counts(wf_l: int, lf_l: int, wf_r: int, lf_r: int) -> Optional[float]:
    """IGR of a binary split given per-side class counts; None if a side is empty."""
    nl = wf_l + lf_l
    nr = wf_r + lf_r
    n = nl + nr
    if nl == 0 or nr == 0:
        return None
    h_parent = _h2(wf_l + wf_r, lf_l + lf_r)
    ig = h_parent - (nl / n) * _h2(wf_l, lf_l) - (nr / n) * _h2(wf_r, lf_r)
    split_info = -(nl / n) * math.log2(nl / n) - (nr / n) * math.log2(nr / n)
    return ig / split_info


def igr(records: Sequence[LabeledRecord], feature_index: int,
        threshold: float) -> Optional[float]:
    """IGR of splitting records at (feature, threshold); None for an empty side."""
    if len(records) == 0:
        raise ValueError("igr: empty record list")
    wf_l = lf_l = wf_r = lf_r = 0
    for r in records:
        left = r.features[feature_index] <= threshold
        if r.label == WF:
            wf_l, wf_r = (wf_l + 1, wf_r) if left else (wf_l, wf_r + 1)
        else:
            lf_l, lf_r = (lf_l + 1, lf_r) if left else (lf_l, lf_r + 1)
    return _igr_from_counts(wf_l, lf_l, wf_r, lf_r)


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                features: Sequence[int], min_leaf: int
                ) -> Optional[tuple[float, int, float]]:
    """Best (igr, feature, threshold) over candidates; None if no valid split."""
    best: Optional[tuple[float, int, float]] = None
    y_node = y[idx]
    for f in features:
        vals = X[idx, f]
        cands = candidate_thresholds(vals, FEATURE_BIN_WIDTHS[f])
        if not cands:
            continue
        wf_sorted = np.sort(vals[y_node == 0])
        lf_sorted = np.sort(vals[y_node == 1])
        carr = np.asarray(cands)
        wf_left = np.searchsorted(wf_sorted, carr, side="right")
        lf_left = np.searchsorted(lf_sorted, carr, side="right")
        n_wf, n_lf = len(wf_sorted), len(lf_sorted)
        for thr, wl, ll in zip(cands, wf_left, lf_left):
            nl = int(wl) + int(ll)
            nr = (n_wf + n_lf) - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            score = _igr_from_counts(int(wl), int(ll), n_wf - int(wl), n_lf - int(ll))
            if score is not None and (best is None or score > best[0]):
                best = (score, f, thr)
    return best


def _majority(wf: int, lf: int, tie: str) -> str:
    """WF if it has more, LF if it has more, else the tie label."""
    return WF if wf > lf else LF if lf > wf else tie


def _leaf(y_node: np.ndarray, global_majority: str) -> Leaf:
    wf = int(np.count_nonzero(y_node == 0))
    lf = len(y_node) - wf
    return Leaf(label=_majority(wf, lf, global_majority), counts=(wf, lf))


def build_tree(records: Sequence[LabeledRecord],
               params: TreeParams = TreeParams()) -> TreeNode:
    """Grow an IGR decision tree top-down.

    Stops on purity, max depth, min_leaf (no split may produce a smaller
    child), or best IGR below min_igr.  With feature_subset set, each node
    searches a seeded random subset of that many features.
    """
    return _grow_tree(*to_arrays(records), params)


def _grow_tree(X: np.ndarray, y: np.ndarray, params: TreeParams) -> TreeNode:
    gm = global_majority(y)
    rng = np.random.default_rng(params.seed)
    subset = params.feature_subset
    use_subset = subset is not None and subset < N_FEATURES

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        y_node = y[idx]
        if depth >= params.max_depth or len(np.unique(y_node)) < 2 \
                or len(idx) < 2 * params.min_leaf:
            return _leaf(y_node, gm)
        if use_subset:
            feats = sorted(rng.choice(N_FEATURES, size=subset, replace=False).tolist())
        else:
            feats = range(N_FEATURES)
        best = _best_split(X, y, idx, feats, params.min_leaf)
        if best is None or best[0] < params.min_igr:
            return _leaf(y_node, gm)
        _, f, thr = best
        mask = X[idx, f] <= thr
        return Internal(feature=f, threshold=float(thr),
                        left=grow(idx[mask], depth + 1),
                        right=grow(idx[~mask], depth + 1))

    return grow(np.arange(len(y)), 0)


def global_majority(y: np.ndarray) -> str:
    return _leaf(y, WF).label


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: Union[TreeNode, ForestModel],
            features: Sequence[float]) -> str:
    """Classify one 12-feature vector as WF or LF."""
    if len(features) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {len(features)}")
    if isinstance(model, ForestModel):
        votes = sum(1 if _predict_tree(t, features) == WF else 0 for t in model.trees)
        return _majority(votes, len(model.trees) - votes, model.global_majority)
    return _predict_tree(model, features)


def _predict_tree(node: TreeNode, features: Sequence[float]) -> str:
    while isinstance(node, Internal):
        node = node.left if features[node.feature] <= node.threshold else node.right
    return node.label


def predict_batch(model: Union[TreeNode, ForestModel], X: np.ndarray) -> np.ndarray:
    """Vectorized prediction over an (n, 12) array; returns int8 labels (0=WF)."""
    if isinstance(model, ForestModel):
        wf_votes = np.zeros(len(X), dtype=np.int32)
        for t in model.trees:
            wf_votes += (_predict_tree_batch(t, X) == 0)
        out = np.where(wf_votes * 2 > len(model.trees), 0, 1).astype(np.int8)
        ties = wf_votes * 2 == len(model.trees)
        if ties.any():
            out[ties] = _LABEL_INDEX[model.global_majority]
        return out
    return _predict_tree_batch(model, X)


def _predict_tree_batch(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.int8)

    def walk(n: TreeNode, idx: np.ndarray):
        if isinstance(n, Leaf):
            out[idx] = _LABEL_INDEX[n.label]
            return
        mask = X[idx, n.feature] <= n.threshold
        walk(n.left, idx[mask])
        walk(n.right, idx[~mask])

    walk(node, np.arange(len(X)))
    return out


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

def train_forest(records: Sequence[LabeledRecord], n_trees: int = 200,
                 params: Optional[TreeParams] = None, seed: int = 0) -> ForestModel:
    """Bootstrap forest: tree i trains on a resample drawn with seed + i.

    Feature subsampling defaults to ceil(sqrt(12)) = 4 features per node
    unless params pins a subset size.  Deterministic for a fixed seed.
    """
    base = params if params is not None else TreeParams()
    subset = base.feature_subset
    if subset is None:
        subset = math.ceil(math.sqrt(N_FEATURES))
    X, y = to_arrays(records)
    n = len(y)
    trees = []
    for i in range(n_trees):
        rows = np.random.default_rng(seed + i).integers(0, n, size=n)
        tp = replace(base, feature_subset=subset, seed=seed + i)
        trees.append(_grow_tree(X[rows], y[rows], tp))
    return ForestModel(trees=tuple(trees), seed=seed, global_majority=global_majority(y))


# ---------------------------------------------------------------------------
# Reduced-error pruning
# ---------------------------------------------------------------------------

def node_count(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + node_count(node.left) + node_count(node.right)


def aggregate_counts(node: TreeNode) -> tuple[int, int]:
    if isinstance(node, Leaf):
        return node.counts
    lw, ll = aggregate_counts(node.left)
    rw, rl = aggregate_counts(node.right)
    return (lw + rw, ll + rl)


def prune_tree(tree: TreeNode, validation: Sequence[LabeledRecord]) -> TreeNode:
    """Reduced-error pruning, bottom-up.

    An internal node collapses to a leaf (majority of its aggregated training
    counts) whenever that does not lower accuracy on the validation set; ties
    favor pruning.  The input tree is not modified.
    """
    X, y = to_arrays(validation)
    gm = _majority(*aggregate_counts(tree), WF)

    def prune(node: TreeNode, idx: np.ndarray) -> tuple[TreeNode, int, int, int]:
        """(pruned node, validation rows it gets right, aggregated wf, lf counts)."""
        if isinstance(node, Leaf):
            return node, int(np.count_nonzero(y[idx] == _LABEL_INDEX[node.label])), *node.counts
        mask = X[idx, node.feature] <= node.threshold
        left, lc, lw, ll = prune(node.left, idx[mask])
        right, rc, rw, rl = prune(node.right, idx[~mask])
        wf, lf = lw + rw, ll + rl
        label = _majority(wf, lf, gm)
        leaf_correct = int(np.count_nonzero(y[idx] == _LABEL_INDEX[label]))
        if leaf_correct >= lc + rc:
            return Leaf(label=label, counts=(wf, lf)), leaf_correct, wf, lf
        return Internal(node.feature, node.threshold, left, right), lc + rc, wf, lf

    return prune(tree, np.arange(len(validation)))[0]


def prune_model(model: Union[TreeNode, ForestModel],
                validation: Sequence[LabeledRecord]) -> Union[TreeNode, ForestModel]:
    """prune_tree on a tree, or on each tree of a forest."""
    if isinstance(model, ForestModel):
        return replace(model, trees=tuple(prune_tree(t, validation) for t in model.trees))
    return prune_tree(model, validation)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def metrics_from_confusion(tp: int, fp: int, fn: int, tn: int) -> EvalMetrics:
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return EvalMetrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def evaluate(model: Union[TreeNode, ForestModel],
             records: Sequence[LabeledRecord]) -> EvalMetrics:
    """Confusion-matrix metrics with WF as the positive class."""
    X, y = to_arrays(records)
    pred = predict_batch(model, X)
    tp = int(np.count_nonzero((pred == 0) & (y == 0)))
    fp = int(np.count_nonzero((pred == 0) & (y == 1)))
    fn = int(np.count_nonzero((pred == 1) & (y == 0)))
    tn = int(np.count_nonzero((pred == 1) & (y == 1)))
    return metrics_from_confusion(tp, fp, fn, tn)


@dataclass(frozen=True)
class KFoldResult:
    folds: tuple[EvalMetrics, ...]
    mean: EvalMetrics


Learner = Callable[[Sequence[LabeledRecord]], Union[TreeNode, ForestModel]]


def kfold_evaluate(records: Sequence[LabeledRecord], learner: Learner,
                   k: int = 10, seed: int = 0) -> KFoldResult:
    """Stratified seeded k-fold cross-validation; WF is the positive class."""
    if k < 2:
        raise ValueError(f"k-fold evaluation needs at least 2 folds, got {k}")
    by_class: dict[str, list[int]] = {WF: [], LF: []}
    for i, r in enumerate(records):
        by_class[r.label].append(i)
    for label, idxs in by_class.items():
        if len(idxs) < k:
            raise ValueError(f"class {label} has {len(idxs)} members, need >= {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(records), dtype=np.int32)
    for idxs in by_class.values():
        order = rng.permutation(idxs)
        for pos, i in enumerate(order):
            fold_of[i] = pos % k
    folds = []
    for f in range(k):
        train = [r for i, r in enumerate(records) if fold_of[i] != f]
        test = [r for i, r in enumerate(records) if fold_of[i] == f]
        model = learner(train)
        folds.append(evaluate(model, test))
    mean = EvalMetrics(*(sum(column) / k for column in zip(*map(astuple, folds))))  # per metric
    return KFoldResult(folds=tuple(folds), mean=mean)


# ---------------------------------------------------------------------------
# Serialization: one node per line, pre-order.
#   N <feature_index> <threshold>
#   L <label> <wf_count> <lf_count>
# Forests are prefixed by: F <n_trees> <seed> <global_majority>
# ---------------------------------------------------------------------------

def serialize_model(model: Union[TreeNode, ForestModel]) -> str:
    lines: list[str] = []

    def emit(node: TreeNode):
        if isinstance(node, Leaf):
            lines.append(f"L {node.label} {node.counts[0]} {node.counts[1]}")
        else:
            lines.append(f"N {node.feature} {repr(float(node.threshold))}")
            emit(node.left)
            emit(node.right)

    if isinstance(model, ForestModel):
        lines.append(f"F {len(model.trees)} {model.seed} {model.global_majority}")
        for t in model.trees:
            emit(t)
    else:
        emit(model)
    return "\n".join(lines) + "\n"


def deserialize_model(text: str) -> Union[TreeNode, ForestModel]:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise ModelFormatError("empty model file")
    pos = 0

    def fail(lineno: int, msg: str):
        raise ModelFormatError(f"line {lineno}: {msg}")

    def read_node() -> TreeNode:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise ModelFormatError(f"line {last}: truncated model (node expected)")
        lineno, line = lines[pos]
        pos += 1
        parts = line.split()
        if parts[0] == "L":
            if len(parts) != 4 or parts[1] not in LABELS:
                fail(lineno, f"malformed leaf line {line!r}")
            try:
                wf, lf = int(parts[2]), int(parts[3])
            except ValueError:
                fail(lineno, f"malformed leaf counts in {line!r}")
            return Leaf(label=parts[1], counts=(wf, lf))
        if parts[0] == "N":
            if len(parts) != 3:
                fail(lineno, f"malformed internal node line {line!r}")
            try:
                feature = int(parts[1])
                threshold = float(parts[2])
            except ValueError:
                fail(lineno, f"malformed internal node line {line!r}")
            if not (0 <= feature < N_FEATURES):
                fail(lineno, f"feature index {feature} out of range")
            if not math.isfinite(threshold):
                fail(lineno, f"non-finite threshold {parts[2]!r}")
            left = read_node()
            right = read_node()
            return Internal(feature=feature, threshold=threshold, left=left, right=right)
        fail(lineno, f"unknown node tag {parts[0]!r}")

    first_lineno, first = lines[0]
    if first.startswith("F "):
        parts = first.split()
        if len(parts) != 4 or parts[3] not in LABELS:
            fail(first_lineno, f"malformed forest header {first!r}")
        try:
            n_trees, seed = int(parts[1]), int(parts[2])
        except ValueError:
            fail(first_lineno, f"malformed forest header {first!r}")
        if n_trees < 1:
            fail(first_lineno, f"forest needs at least one tree, got {n_trees}")
        pos = 1
        trees = tuple(read_node() for _ in range(n_trees))
        if pos != len(lines):
            fail(lines[pos][0], "trailing content after forest")
        return ForestModel(trees=trees, seed=seed, global_majority=parts[3])
    node = read_node()
    if pos != len(lines):
        fail(lines[pos][0], "trailing content after tree")
    return node

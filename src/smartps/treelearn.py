"""Decision-tree and random-forest learner with information gain ratio.

Splits are binary (value <= threshold goes left) and chosen by maximizing
information gain ratio (IGR = information gain / split information) over
candidate thresholds derived from the same fixed-width binning used by the
attribute analysis.  Each node sorts each feature once, reads every
candidate's class counts off that order and screens their IGRs in one numpy
pass; the exact scalar formula decides among the near-best.  Includes
bootstrap forests with per-node feature subsampling, reduced-error
post-pruning against a validation set, stratified k-fold evaluation with
ROC-style metrics (WF is the positive class), and a line-oriented model
serialization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dataset import FEATURE_BIN_WIDTHS, N_FEATURES, LabeledRecord, unbinnable_feature
from .featstats import bin_index
from .traceio import WF, LF, numbered_lines

LABELS = (WF, LF)
_LABEL_INDEX = {WF: 0, LF: 1}

# Below this many distinct values, thresholds fall back to midpoints between
# consecutive distinct raw values instead of bin-edge midpoints.
SMALL_VALUE_SET = 32

# Features a forest tree searches per node: ceil(sqrt(12)) = 4 (Breiman, 2001).
FOREST_FEATURES = math.ceil(math.sqrt(N_FEATURES))


class ModelFormatError(ValueError):
    """Malformed serialized model."""


class _Model:
    """Base of the model classes: the compiled classifier is left out of a pickle."""

    @functools.cached_property
    def _classifier(self) -> Callable[[Sequence[float]], str]:
        """Compiled on first use and kept on the model; eq and repr ignore it."""
        return _compile_classifier(self)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_classifier"}


@dataclass(frozen=True)
class Leaf(_Model):
    label: str
    counts: tuple[int, int]  # (wf, lf) training counts reaching this leaf


@dataclass(frozen=True)
class Internal(_Model):
    feature: int
    threshold: float
    left: "TreeNode"   # value <= threshold
    right: "TreeNode"  # value > threshold


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class ForestModel(_Model):
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

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be at least 1, got {self.min_leaf}")
        if not (math.isfinite(self.min_igr) and self.min_igr >= 0):
            raise ValueError(f"min_igr must be finite and at least 0, got {self.min_igr}")


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
    fault = unbinnable_feature(X)
    if fault:
        raise ValueError(f"record {fault[0]}: {fault[1]}")
    y = np.array([_LABEL_INDEX[r.label] for r in records], dtype=np.int8)
    return X, y


# ---------------------------------------------------------------------------
# Split machinery
# ---------------------------------------------------------------------------

def _thresholds(ordered: np.ndarray, width: float) -> np.ndarray:
    """Candidate thresholds from a feature's values sorted ascending (repeats allowed).

    Few distinct values: midpoints between consecutive distinct raw values.
    Otherwise: midpoints between the facing edges of consecutive occupied
    fixed-width bins (adjacent bins yield their shared edge).
    """
    step = ordered[1:] != ordered[:-1]   # where one distinct value ends and the next starts
    if np.count_nonzero(step) < SMALL_VALUE_SET:
        return (ordered[:-1][step] + ordered[1:][step]) / 2.0
    bins = bin_index(ordered, width)
    step = bins[1:] != bins[:-1]
    return ((bins[:-1][step] + 1) * width + bins[1:][step] * width) / 2.0


def _h2(wf: int, lf: int) -> float:
    n = wf + lf
    if wf == 0 or lf == 0:
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


def _h2_screen(wf: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """_h2 over arrays of counts whose sums are positive, with np.log2."""
    pw, pl = wf / (wf + lf), lf / (wf + lf)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 * log2(0) is 0 below
        h = -pw * np.log2(pw) - pl * np.log2(pl)
    return np.where((wf == 0) | (lf == 0), 0.0, h)


# The screen repeats _igr_from_counts operation for operation, but np.log2
# and math.log2 may differ in the last bits.  With each log2 within a few ulp,
# every p * log2(p) term is within a relative 1e-15, so the information gain
# (at most 1) is within about 1e-15 and the split information within a
# relative 1e-15.  An n-row node's split information is at least log2(n) / n,
# so the screened IGR is within about 1e-15 * n / log2(n) of the exact one:
# under 1e-10 below a million rows.  Rescoring everything within 1e-9 of the
# screened maximum therefore always includes the exact best.
_SCREEN_TOL = 1e-9


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                features: Sequence[int], min_leaf: int
                ) -> Optional[tuple[float, int, float]]:
    """Best (igr, feature, threshold) over candidates; None if no valid split.

    All candidates of the node are screened at once with numpy; the ones
    near the screened maximum are scored with _igr_from_counts in (feature,
    threshold) order, and the first strictly best of those is returned.
    """
    is_wf = y[idx] == 0
    n, n_wf = len(idx), int(np.count_nonzero(is_wf))
    feats, thrs, lefts, wf_lefts = [], [], [], []
    for f in features:
        vals = X[idx, f]
        ordered = np.sort(vals)
        thr = _thresholds(ordered, FEATURE_BIN_WIDTHS[f])
        left = np.searchsorted(ordered, thr, side="right")
        ok = (left >= min_leaf) & (left <= n - min_leaf)
        if ok.any():
            feats.append(np.full(np.count_nonzero(ok), f))
            thrs.append(thr[ok])
            lefts.append(left[ok])
            wf_lefts.append(np.searchsorted(np.sort(vals[is_wf]), thr[ok], side="right"))
    if not thrs:
        return None
    nl, wl = np.concatenate(lefts), np.concatenate(wf_lefts)
    nr, wr = n - nl, n_wf - wl
    ll, lr = nl - wl, nr - wr
    ig = _h2(n_wf, n - n_wf) - (nl / n) * _h2_screen(wl, ll) - (nr / n) * _h2_screen(wr, lr)
    screen = ig / (-(nl / n) * np.log2(nl / n) - (nr / n) * np.log2(nr / n))
    best: Optional[tuple[float, int, float]] = None
    feats, thrs = np.concatenate(feats), np.concatenate(thrs)
    for i in np.flatnonzero(screen >= screen.max() - _SCREEN_TOL).tolist():
        score = _igr_from_counts(int(wl[i]), int(ll[i]), int(wr[i]), int(lr[i]))
        if best is None or score > best[0]:
            best = (score, int(feats[i]), float(thrs[i]))
    return best


def _majority(wf: int, lf: int, tie: str) -> str:
    """WF if it has more, LF if it has more, else the tie label."""
    return WF if wf > lf else LF if lf > wf else tie


def _leaf(wf: int, n: int, global_majority: str) -> Leaf:
    """A leaf over n records, wf of them labelled WF."""
    return Leaf(label=_majority(wf, n - wf, global_majority), counts=(wf, n - wf))


def build_tree(records: Sequence[LabeledRecord],
               params: TreeParams = TreeParams()) -> TreeNode:
    """Grow an IGR decision tree top-down.

    Stops on purity, max depth, min_leaf (no split may produce a smaller
    child), or best IGR below min_igr.  Each node searches all 12 features.
    """
    return _grow_tree(*to_arrays(records), params)


def _grow_tree(X: np.ndarray, y: np.ndarray, params: TreeParams,
               rng: Optional[np.random.Generator] = None) -> TreeNode:
    """Grow on (X, y); with rng, each node searches FOREST_FEATURES features drawn from it."""
    gm = global_majority(y)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        n, wf = len(idx), int(np.count_nonzero(y[idx] == 0))
        if depth >= params.max_depth or wf in (0, n) or n < 2 * params.min_leaf:
            return _leaf(wf, n, gm)
        if rng is None:
            feats = range(N_FEATURES)
        else:
            feats = sorted(rng.choice(N_FEATURES, size=FOREST_FEATURES, replace=False).tolist())
        best = _best_split(X, y, idx, feats, params.min_leaf)
        if best is None or best[0] < params.min_igr:
            return _leaf(wf, n, gm)
        _, f, thr = best
        mask = X[idx, f] <= thr
        return Internal(feature=f, threshold=float(thr),
                        left=grow(idx[mask], depth + 1),
                        right=grow(idx[~mask], depth + 1))

    return grow(np.arange(len(y)), 0)


def global_majority(y: np.ndarray) -> str:
    return _leaf(int(np.count_nonzero(y == 0)), len(y), WF).label


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

# A compiled function that holds this many lines leaves the rest of its top
# level to the next function.  Compiling costs a transient of about 3 KiB per
# line of the function, so a whole forest in one function can take several MiB.
_FUNCTION_LINES = 500
# CPython's tokenizer allows 100 indentation levels; the rest of a point that
# would nest deeper is compiled as a function of its own.
_MAX_NEST = 90
# Deepest split a model file may hold: reading, compiling and writing a tree
# take a frame per level, and CPython stops at 1,000.
_MAX_MODEL_DEPTH = 500


def predict(model: Union[TreeNode, ForestModel],
            features: Sequence[float]) -> str:
    """Classify one 12-feature vector as WF or LF.

    The model runs as generated Python code, compiled on its first
    prediction and kept on the model object (a pruned copy compiles its own).
    """
    if len(features) != N_FEATURES:
        raise ValueError(f"expected {N_FEATURES} features, got {len(features)}")
    return model._classifier(features)


def predict_batch(model: Union[TreeNode, ForestModel], X: np.ndarray) -> np.ndarray:
    """predict over the rows of an (n, 12) array; returns int8 labels (0=WF)."""
    classify = model._classifier
    return np.array([_LABEL_INDEX[classify(row)] for row in X.tolist()], dtype=np.int8)


def _compile_classifier(model: Union[TreeNode, ForestModel]) -> Callable[[Sequence[float]], str]:
    """The model's vote as a function of a feature vector; a single tree is a one-tree forest."""
    if isinstance(model, ForestModel):
        trees, tie = model.trees, model.global_majority
    else:
        trees, tie = (model,), WF   # one vote cannot tie
    counters = _wf_vote_counters(tuple(map(_merge_alike, trees)))
    n = len(trees)

    def classify(features: Sequence[float]) -> str:
        votes = 0
        for count in counters:
            votes += count(features)
        return _majority(votes, n - votes, tie)

    return classify


def _merge_alike(node: TreeNode) -> TreeNode:
    """The tree with every split whose two sides vote alike replaced by a leaf of that label.

    Only leaf labels survive; the leaf counts of merged subtrees are dropped.
    """
    if isinstance(node, Leaf):
        return node
    left, right = _merge_alike(node.left), _merge_alike(node.right)
    if isinstance(left, Leaf) and isinstance(right, Leaf) and left.label == right.label:
        return left
    return Internal(node.feature, node.threshold, left, right)


def _wf_vote_counters(trees: Sequence[TreeNode]) -> list[Callable[[Sequence[float]], int]]:
    """Compile trees into functions whose counts add up to the WF leaves the trees reach.

    Each function is nested `if x<f> <= <threshold>:` blocks.  The subtrees
    that one point of the code reaches are emitted together: their WF leaves
    add one `v += k`, and their splits are grouped by (feature, threshold) in
    first-seen order, one `if` per group whose branches go on with every
    member's children, so each tree takes its own path but a split several
    trees reach there is compared once.  Past _MAX_NEST levels, or at the top
    level once a function holds _FUNCTION_LINES lines, the remaining groups
    of a point go to other functions: a nested point adds their counts, and
    the top level's rest opens the next function.  Thresholds are written
    with repr, which round-trips a float exactly; a NaN feature goes right.
    """
    counters = []

    def emit(nodes: Sequence[TreeNode], depth: int) -> list[Internal]:   # into `lines`
        pad = "    " * depth
        wf = 0
        splits: dict[tuple[int, float], list[Internal]] = {}
        for node in nodes:
            if isinstance(node, Leaf):
                wf += node.label == WF
            else:
                splits.setdefault((node.feature, float(node.threshold)), []).append(node)
        if wf or not splits:
            lines.append(pad + (f"v += {wf}" if wf else "pass"))
        for i, ((feature, threshold), group) in enumerate(splits.items()):
            if depth > _MAX_NEST or (depth == 1 and i and len(lines) >= _FUNCTION_LINES):
                rest = [node for alike in list(splits.values())[i:] for node in alike]
                if depth == 1:
                    return rest
                for count in _wf_vote_counters(rest):
                    name = f"subtree{len(subtrees)}"
                    subtrees[name] = count
                    lines.append(f"{pad}v += {name}(x)")
                break
            lines.append(f"{pad}if x{feature} <= {threshold!r}:")
            emit([node.left for node in group], depth + 1)
            lines.append(pad + "else:")
            emit([node.right for node in group], depth + 1)
        return []

    while trees:
        lines = ["def count(x):",
                 "    " + ", ".join(f"x{f}" for f in range(N_FEATURES)) + " = x",
                 "    v = 0"]
        subtrees: dict[str, Callable[[Sequence[float]], int]] = {}
        trees = emit(trees, 1)
        lines.append("    return v")
        namespace = {"inf": math.inf, "nan": math.nan, **subtrees}   # repr of inf/nan thresholds
        exec(compile("\n".join(lines), "<treelearn.predict>", "exec"), namespace)
        counters.append(namespace["count"])
    return counters


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------

def train_forest(records: Sequence[LabeledRecord], n_trees: int = 200,
                 params: TreeParams = TreeParams(), seed: int = 0) -> ForestModel:
    """Bootstrap forest: tree i trains on a resample drawn with seed + i.

    Each node draws FOREST_FEATURES features from a second generator seeded
    with seed + i.  Deterministic for a fixed seed.
    """
    X, y = to_arrays(records)
    n = len(y)
    trees = []
    for i in range(n_trees):
        rows = np.random.default_rng(seed + i).integers(0, n, size=n)
        trees.append(_grow_tree(X[rows], y[rows], params, np.random.default_rng(seed + i)))
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


Learner = Callable[[Sequence[LabeledRecord]], Union[TreeNode, ForestModel]]


def kfold_evaluate(records: Sequence[LabeledRecord], learner: Learner,
                   k: int = 10, seed: int = 0) -> EvalMetrics:
    """Mean metrics of stratified seeded k-fold cross-validation; WF is the positive class."""
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
    return EvalMetrics(*(sum(column) / k for column in zip(*map(astuple, folds))))  # per metric


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
    lines = [(i, ln.strip()) for i, ln in numbered_lines(text)]
    if not lines:
        raise ModelFormatError("empty model file")
    pos = 0

    def fail(lineno: int, msg: str):
        raise ModelFormatError(f"line {lineno}: {msg}")

    def read_node(depth: int) -> TreeNode:
        nonlocal pos
        if pos >= len(lines):
            fail(lines[-1][0], "truncated model (node expected)")
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
            if wf < 0 or lf < 0:
                fail(lineno, f"negative leaf count in {line!r}")
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
            if depth == _MAX_MODEL_DEPTH:
                fail(lineno, f"model nests splits deeper than {_MAX_MODEL_DEPTH} levels")
            left = read_node(depth + 1)
            right = read_node(depth + 1)
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
        model = ForestModel(trees=tuple(read_node(0) for _ in range(n_trees)), seed=seed,
                            global_majority=parts[3])
    else:
        model = read_node(0)
    if pos != len(lines):
        fail(lines[pos][0], "trailing content after model")
    return model

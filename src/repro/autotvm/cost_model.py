"""ML-based cost models (paper Section 5.2, Figure 13, Table 1).

:class:`GradientBoostedTrees` is the default model: gradient-boosted
regression trees over loop-program features, trained with either a
squared-error or a pairwise **rank** objective (the paper's choice, since the
explorer only needs the relative order of candidates).  XGBoost itself is
unavailable offline, so the trees and the boosting loop are implemented
here.  The TreeRNN alternative the paper evaluates is
:class:`~repro.autotvm.treernn.TreeRNNCostModel`.

The explorer scores thousands of candidates per tuning round, so the hot
paths are vectorized: fitted trees are flattened into numpy node arrays for
batch prediction, the CART split search runs on sorted cumulative sums, and
the pairwise rank gradient samples its comparison pairs in bulk.  Each fast
path is **bit-identical** to a per-row reference implementation kept in the
test suite as its oracle (``tests/test_perf_pipeline.py``) — the
vectorization must never change which configuration the tuner picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees", "rank_correlation"]

#: ``a.sum()`` of a 1-D array without the method's Python wrapper
_sum = np.add.reduce


class RegressionTree:
    """A CART-style regression tree fitted to (features, residuals).

    ``fit`` builds the usual nested-dict tree (kept as ``tree_`` for
    introspection) and flattens it into parallel node arrays; ``predict``
    advances all query rows level-by-level through those arrays instead of
    walking the dict per row.
    """

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 2,
                 max_thresholds: int = 8):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.tree_: Optional[dict] = None
        self._flat: Optional[Tuple] = None     # see _flatten
        self._quantile_fractions = np.linspace(0.1, 0.9, max_thresholds)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        self.tree_ = self._build(x, y, depth=0)
        self._flat = self._flatten(self.tree_)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> dict:
        # _sum(y)/n and the explicit squared-deviation sum reproduce
        # np.mean/np.var bit-for-bit (same pairwise reduction, same divide)
        # without their per-call wrapper overhead.
        n = len(y)
        mean = _sum(y) / n if n else 0.0
        node = {"value": float(mean) if n else 0.0}
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        deviation = y - mean
        if float(_sum(deviation * deviation) / n) < 1e-12:
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold, mask = best
        right = ~mask
        node.update({
            "feature": feature,
            "threshold": threshold,
            "left": self._build(x[mask], y[mask], depth + 1),
            "right": self._build(x[right], y[right], depth + 1),
        })
        return node

    # -- split search -------------------------------------------------------------
    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Sorted cumulative-sum split finder.

        Every column is sorted once, and each candidate's left sum of ``y``
        comes from a cumulative sum.  A feature with at most
        ``max_thresholds`` distinct values splits at the midpoint of each
        boundary between runs of its sorted column, where the left count is
        the boundary's row (so a node of at most that many rows needs no
        distinct values at all); one with more takes quantile thresholds of
        its distinct values, counted against the column.  The cumulative
        sums round differently than a per-side ``np.sum`` over a boolean
        mask, so every candidate whose approximate gain is within a
        tolerance of the best is re-evaluated with that exact arithmetic,
        once per distinct partition — so the selected split (and the fitted
        tree) is bit-identical to the per-threshold rescan.
        """
        n_samples, n_features = x.shape
        min_leaf = self.min_samples_leaf
        # _sum(a) / len(a) is a.mean() bit for bit, without its wrapper.
        deviation = y - _sum(y) / n_samples
        base_error = float(_sum(deviation * deviation))
        orders = x.argsort(axis=0, kind="stable")
        sorted_cols = x[orders, np.arange(n_features)]
        cum = y[orders].cumsum(axis=0)
        total = cum[-1]
        offset = total * total / n_samples
        # Row k - 1 is the boundary after the k-th sorted row.
        lower, upper = sorted_cols[:-1], sorted_cols[1:]
        boundary = lower != upper
        quantile_ids = ()
        if n_samples > self.max_thresholds:
            quantile_ids = np.nonzero(boundary.sum(axis=0)
                                      >= self.max_thresholds)[0]
        if len(quantile_ids):
            # Each such feature's distinct values: the first row of every
            # run of its sorted column.
            columns = sorted_cols[:, quantile_ids].T
            keep = np.empty(columns.shape, dtype=bool)
            keep[:, 0] = True
            keep[:, 1:] = boundary[:, quantile_ids].T
            boundary[:, quantile_ids] = False
            counts = keep.sum(axis=1)[:, None]
            starts = np.zeros_like(counts)
            np.cumsum(counts[:-1, 0], out=starts[1:, 0])
            uvals = columns[keep]
            # np.quantile's linear interpolation, replicated.
            virtual = self._quantile_fractions * (counts - 1)
            below = np.floor(virtual).astype(np.int64)
            gamma = virtual - below
            a = uvals[starts + below]
            b = uvals[starts + np.minimum(below + 1, counts - 1)]
            diff = b - a
            q_cand = np.where(gamma >= 0.5, b - diff * (1 - gamma),
                              a + diff * gamma)
            q_left = (columns[:, None, :] <= q_cand[:, :, None]).sum(axis=2)
            q_valid = (q_left >= min_leaf) & (n_samples - q_left >= min_leaf)
            q_left = np.where(q_valid, q_left, 1)
            left_sum = cum[q_left - 1, quantile_ids[:, None]]
            rest = total[quantile_ids][:, None] - left_sum
            q_gain = (left_sum * left_sum / q_left
                      + rest * rest / np.where(q_valid, n_samples - q_left, 1)
                      - offset[quantile_ids][:, None])

        # Midpoint candidates.  A midpoint that rounds onto the next run
        # splits elsewhere than its boundary, so it skips the approximation.
        cand = (lower + upper) / 2.0
        rounded = boundary & (cand >= upper)
        valid = boundary & ~rounded
        valid[:max(min_leaf - 1, 0)] = False
        valid[max(n_samples - min_leaf, 0):] = False
        n_left = np.arange(1, n_samples, dtype=np.float64)[:, None]
        left_sum = cum[:-1]
        rest = total - left_sum
        gain = (left_sum * left_sum / n_left
                + rest * rest / (n_samples - n_left) - offset)

        # Shortlist every candidate within tolerance of the best approximate
        # gain, in (feature, candidate) order.
        tol = float(np.dot(y, y)) * 1e-8 + base_error * 1e-8 + 1e-8
        approx_best = float(gain[valid].max()) if valid.any() else -np.inf
        if len(quantile_ids) and q_valid.any():
            approx_best = max(approx_best, float(q_gain[q_valid].max()))
        cutoff = max(approx_best - 2 * tol, 1e-9 - tol)
        features, rows = np.nonzero((rounded | (valid & (gain > cutoff))).T)
        thresholds = cand[rows, features]
        if len(quantile_ids):
            rows, cols = np.nonzero(q_valid & (q_gain > cutoff))
            features = np.concatenate([features, quantile_ids[rows]])
            thresholds = np.concatenate([thresholds, q_cand[rows, cols]])
            order = features.argsort(kind="stable")
            features, thresholds = features[order], thresholds[order]

        # Decide the winner exactly.  Candidates that cut the same partition
        # have the same exact gain, so only the first of them can win.
        masks = x.T[features] <= thresholds[:, None]
        seen = set()
        best_gain = 1e-9
        best = None
        for feature, threshold, mask in zip(features.tolist(),
                                            thresholds.tolist(), masks):
            key = mask.tobytes()
            if key in seen:
                continue
            seen.add(key)
            left, right = y[mask], y[~mask]
            n_left = len(left)
            if n_left < min_leaf or n_samples - n_left < min_leaf:
                continue
            left = left - _sum(left) / n_left
            right = right - _sum(right) / (n_samples - n_left)
            gain = base_error - float(_sum(left * left)
                                      + _sum(right * right))
            if gain > best_gain:
                best_gain = gain
                best = (feature, threshold, mask)
        return best

    # -- prediction ---------------------------------------------------------------
    @staticmethod
    def _flatten(tree: dict) -> Tuple:
        """Flatten the dict tree, in preorder, into (feature, threshold,
        right, value) arrays and its depth.  A node's left child is the
        next node; a leaf tests feature 0 against NaN, which sends every
        row to its right child: the leaf itself."""
        feature: List[int] = []
        threshold: List[float] = []
        right: List[int] = []
        value: List[float] = []

        def add(node: dict) -> int:
            """Append ``node``'s subtree; return its depth."""
            slot = len(feature)
            feature.append(node.get("feature", 0))
            threshold.append(node.get("threshold", math.nan))
            right.append(slot)
            value.append(node["value"])
            if "feature" not in node:
                return 0
            depth = add(node["left"])
            right[slot] = len(feature)
            return 1 + max(depth, add(node["right"]))

        depth = add(tree)
        return (np.asarray(feature, dtype=np.int64),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(right, dtype=np.int64),
                np.asarray(value, dtype=np.float64), depth)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._flat is None:
            return np.zeros(len(x))
        feature, threshold, right, value, depth = self._flat
        x = np.asarray(x)
        rows = np.arange(len(x))
        node = np.zeros(len(x), dtype=np.int64)
        for _ in range(depth):
            go_left = x[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, node + 1, right[node])
        return value[node]

    # -- serialization ------------------------------------------------------------
    def to_spec(self) -> dict:
        """JSON-able snapshot of the fitted tree (plain ints/floats only)."""
        return {"max_depth": self.max_depth,
                "min_samples_leaf": self.min_samples_leaf,
                "max_thresholds": self.max_thresholds,
                "tree": self.tree_}

    @classmethod
    def from_spec(cls, spec: dict) -> "RegressionTree":
        tree = cls(max_depth=spec["max_depth"],
                   min_samples_leaf=spec["min_samples_leaf"],
                   max_thresholds=spec["max_thresholds"])
        tree.tree_ = spec["tree"]
        if tree.tree_ is not None:
            tree._flat = tree._flatten(tree.tree_)
        return tree


class GradientBoostedTrees:
    """Gradient tree boosting with squared-error or pairwise rank objectives."""

    def __init__(self, num_rounds: int = 40, learning_rate: float = 0.15,
                 max_depth: int = 4, loss: str = "rank", num_pairs: int = 4,
                 seed: int = 0):
        if loss not in ("reg", "rank"):
            raise ValueError("loss must be 'reg' or 'rank'")
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.loss = loss
        self.num_pairs = num_pairs
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.trees: List[RegressionTree] = []
        self.base_score = 0.0
        self._stacked: Optional[Tuple] = None

    # -- training ----------------------------------------------------------------
    def fit(self, features: np.ndarray, throughputs: np.ndarray) -> "GradientBoostedTrees":
        """Fit the model.  ``throughputs`` are scores where larger is better
        (the tuner passes normalised 1/time)."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(throughputs, dtype=np.float64)
        self.trees = []
        self._stacked = None
        self.base_score = float(np.mean(y)) if len(y) else 0.0
        if len(y) < 4:
            return self
        pred = np.full(len(y), self.base_score)
        for _ in range(self.num_rounds):
            gradient = self._negative_gradient(y, pred)
            tree = RegressionTree(max_depth=self.max_depth)
            tree.fit(x, gradient)
            update = tree.predict(x)
            pred += self.learning_rate * update
            self.trees.append(tree)
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Concatenate every fitted tree's node arrays so one ``predict``
        descends all trees in lock-step instead of looping per tree."""
        self._stacked = None
        if not self.trees or any(t._flat is None for t in self.trees):
            return
        features, thresholds, rights, values, depths = zip(
            *(tree._flat for tree in self.trees))
        roots = np.cumsum([0] + [len(feature) for feature in features[:-1]])
        self._stacked = (roots, np.concatenate(features),
                         np.concatenate(thresholds),
                         np.concatenate([right + root for right, root
                                         in zip(rights, roots)]),
                         np.concatenate(values), max(depths))

    def _negative_gradient(self, y: np.ndarray, pred: np.ndarray) -> np.ndarray:
        """Vectorized pairwise rank gradient (squared error: ``y - pred``).

        The rank loss is pairwise logistic (LambdaRank-style, unweighted):
        for a pair (i, j) with y_i > y_j it is log(1 + exp(pred_j - pred_i)).
        The comparison partners are sampled in one bulk ``integers`` draw
        (which consumes the generator stream exactly like one draw per pair,
        row by row), pair orientation and margins are computed with array
        ops, and the ±weight updates are applied with a single ordered
        ``np.add.at`` so repeated indices accumulate in a per-pair loop's
        chronological order.  ``math.exp`` is kept for the per-pair weight —
        ``np.exp`` rounds the last bit differently on some platforms, and the
        tuner's choices must not depend on which implementation ran.
        """
        if self.loss == "reg":
            return y - pred
        grad = np.zeros_like(pred)
        n = len(y)
        j = self.rng.integers(0, n, size=(n, self.num_pairs))
        i = np.broadcast_to(np.arange(n)[:, None], j.shape)
        valid = (j != i) & (y[i] != y[j])
        i_valid, j_valid = i[valid], j[valid]
        if len(i_valid) == 0:
            return grad
        first_better = y[i_valid] > y[j_valid]
        better = np.where(first_better, i_valid, j_valid)
        worse = np.where(first_better, j_valid, i_valid)
        margins = pred[better] - pred[worse]
        weights = np.array([1.0 / (1.0 + math.exp(m)) for m in margins])
        # Interleave (+better, -worse) per pair so duplicate indices add up
        # in the same order as a per-pair loop (float addition is not
        # associative).
        indices = np.empty(2 * len(better), dtype=np.int64)
        indices[0::2] = better
        indices[1::2] = worse
        signed = np.empty(2 * len(weights))
        signed[0::2] = weights
        signed[1::2] = -weights
        np.add.at(grad, indices, signed)
        return grad

    # -- serialization ------------------------------------------------------------
    def to_spec(self) -> dict:
        """JSON-able snapshot of the fitted ensemble.

        A model restored via :meth:`from_spec` predicts **bit-identically**
        (prediction only reads the tree node arrays, the base score and the
        learning rate) and refits from a fresh seeded generator — this is
        how a tuning session hands each task its own copy of a model pre-fit
        on the database's trial log.
        """
        return {"kind": "gbt", "num_rounds": self.num_rounds,
                "learning_rate": self.learning_rate,
                "max_depth": self.max_depth, "loss": self.loss,
                "num_pairs": self.num_pairs, "seed": self.seed,
                "base_score": self.base_score,
                "trees": [tree.to_spec() for tree in self.trees]}

    @classmethod
    def from_spec(cls, spec: dict) -> "GradientBoostedTrees":
        model = cls(num_rounds=spec["num_rounds"],
                    learning_rate=spec["learning_rate"],
                    max_depth=spec["max_depth"], loss=spec["loss"],
                    num_pairs=spec["num_pairs"], seed=spec["seed"])
        model.base_score = spec["base_score"]
        model.trees = [RegressionTree.from_spec(s) for s in spec["trees"]]
        model._stack_trees()
        return model

    # -- inference ----------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        stacked = getattr(self, "_stacked", None)
        if stacked is None:
            pred = np.full(len(x), self.base_score)
            for tree in self.trees:
                pred += self.learning_rate * tree.predict(x)
            return pred
        roots, feature, threshold, right, value, depth = stacked
        n, width = x.shape
        flat = np.ascontiguousarray(x).ravel()
        row_starts = np.arange(0, n * width, width)[:, None]
        node = np.broadcast_to(roots, (n, len(roots)))
        for _ in range(depth):
            go_left = flat[row_starts + feature[node]] <= threshold[node]
            node = np.where(go_left, node + 1, right[node])
        # Accumulate tree by tree, as the per-tree loop above does (float
        # addition is not associative, and the explorer compares scores):
        # cumsum adds along the tree axis in order.
        terms = np.empty((n, len(roots) + 1))
        terms[:, 0] = self.base_score
        np.multiply(value[node], self.learning_rate, out=terms[:, 1:])
        return terms.cumsum(axis=1)[:, -1]


def rank_correlation(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Spearman rank correlation between predicted and actual scores."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(predicted) < 2:
        return 0.0
    pred_rank = np.argsort(np.argsort(predicted)).astype(np.float64)
    act_rank = np.argsort(np.argsort(actual)).astype(np.float64)
    pred_rank -= pred_rank.mean()
    act_rank -= act_rank.mean()
    denom = np.sqrt((pred_rank ** 2).sum() * (act_rank ** 2).sum())
    if denom == 0:
        return 0.0
    return float((pred_rank * act_rank).sum() / denom)

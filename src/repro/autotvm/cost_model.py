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
        self._flat: Optional[Tuple[np.ndarray, ...]] = None
        self._quantile_fractions = np.linspace(0.1, 0.9, max_thresholds)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        self.tree_ = self._build(x, y, depth=0)
        self._flat = self._flatten(self.tree_)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> dict:
        # y.sum()/n and the explicit squared-deviation sum reproduce
        # np.mean/np.var bit-for-bit (same pairwise reduction, same divide)
        # without their per-call wrapper overhead.
        n = len(y)
        mean = y.sum() / n if n else 0.0
        node = {"value": float(mean) if n else 0.0}
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        deviation = y - mean
        sq_deviation = deviation * deviation
        if float(sq_deviation.sum() / n) < 1e-12:
            return node
        best = self._best_split(x, y)
        if best is None:
            return node
        feature, threshold, mask = best
        node.update({
            "feature": feature,
            "threshold": threshold,
            "left": self._build(x[mask], y[mask], depth + 1),
            "right": self._build(x[~mask], y[~mask], depth + 1),
        })
        return node

    # -- split search -------------------------------------------------------------
    def _best_split(self, x: np.ndarray, y: np.ndarray):
        """Sorted cumulative-sum split finder.

        For each feature the per-threshold left/right sums of ``y`` and
        ``y**2`` come from one sort + cumsum instead of a boolean-mask rescan
        per threshold.  Because the cumulative sums round differently than
        a per-side ``np.sum`` over a boolean mask, the handful of candidates
        whose approximate gain is within a tolerance of the best are
        re-evaluated with that exact arithmetic — so the selected split (and
        the fitted tree) is bit-identical to the per-threshold rescan, at the
        cumsum scan's speed.
        """
        n_samples, n_features = x.shape
        base_error = float(np.sum((y - y.mean()) ** 2))
        min_leaf = self.min_samples_leaf
        max_t = self.max_thresholds
        fractions = self._quantile_fractions
        # One bulk sort/cumsum pass over every feature column.
        orders = np.argsort(x, axis=0, kind="stable")
        sorted_cols = np.take_along_axis(x, orders, axis=0)
        ys = y[orders]
        cum = np.cumsum(ys, axis=0)
        cum_sq = np.cumsum(ys * ys, axis=0)
        keep = np.empty_like(sorted_cols, dtype=bool)
        keep[0, :] = True
        np.not_equal(sorted_cols[1:], sorted_cols[:-1], out=keep[1:])
        n_unique = keep.sum(axis=0)
        total, total_sq = cum[-1], cum_sq[-1]

        # Flat per-feature unique values and their first-occurrence rows:
        # uvals[offsets[f] + j] is the j-th unique of feature f, and
        # u_starts[offsets[f] + j] is where its run starts in sorted order.
        keep_t = keep.T
        uvals = sorted_cols.T[keep_t]
        u_starts = np.nonzero(keep_t)[1]
        offsets = np.zeros(n_features, dtype=np.int64)
        np.cumsum(n_unique[:-1], out=offsets[1:])

        def run_start(feature_offsets, unique_index, counts):
            """Row where the ``unique_index``-th run starts (n for one-past)."""
            clipped = np.minimum(unique_index, counts)
            past_end = unique_index >= counts
            idx = feature_offsets + np.where(past_end, 0, clipped)
            return np.where(past_end, n_samples, u_starts[idx])

        def candidate_block(feature_ids, cand, below, above, counts):
            """(valid, approx_gain, n_left) for a (features x candidates)
            block; ``below``/``above`` index each candidate's bracketing
            uniques so the left-count comes from run starts instead of a
            per-feature searchsorted."""
            offs = offsets[feature_ids][:, None]
            a = uvals[offs + below]
            b = uvals[offs + above]
            # Rows with column <= candidate.  The candidate normally lies
            # strictly between its bracketing uniques, but interpolation may
            # round it onto either endpoint — adjust the run index to keep
            # searchsorted(side="right") semantics.
            next_unique = below + 1 + (cand >= b).astype(np.int64) \
                - (cand < a).astype(np.int64)
            n_left = run_start(offs, next_unique, counts[:, None])
            n_right = n_samples - n_left
            valid = (n_left >= min_leaf) & (n_right >= min_leaf)
            safe_left = np.where(n_left > 0, n_left, 1)
            left_sum = cum[safe_left - 1, feature_ids[:, None]]
            left_sq = cum_sq[safe_left - 1, feature_ids[:, None]]
            left_sum = np.where(n_left > 0, left_sum, 0.0)
            left_sq = np.where(n_left > 0, left_sq, 0.0)
            err = ((left_sq - left_sum ** 2 / np.where(valid, n_left, 1))
                   + ((total_sq[feature_ids][:, None] - left_sq)
                      - (total[feature_ids][:, None] - left_sum) ** 2
                      / np.where(valid, n_right, 1)))
            return valid, base_error - err, n_left

        shortlists = []     # (feature_ids, candidates, valid, approx_gain)
        with np.errstate(invalid="ignore", divide="ignore"):
            quantile_ids = np.nonzero(n_unique > max_t)[0]
            if len(quantile_ids):
                counts = n_unique[quantile_ids]
                virtual = fractions[None, :] * (counts[:, None] - 1)
                below = np.floor(virtual).astype(np.int64)
                above = np.minimum(below + 1, counts[:, None] - 1)
                gamma = virtual - below
                offs = offsets[quantile_ids][:, None]
                a = uvals[offs + below]
                b = uvals[offs + above]
                diff = b - a
                cand = np.where(gamma >= 0.5,
                                b - diff * (1 - gamma), a + diff * gamma)
                shortlists.append((quantile_ids, cand)
                                  + candidate_block(quantile_ids, cand,
                                                    below, above, counts)[:2])
            midpoint_ids = np.nonzero((n_unique >= 2) & (n_unique <= max_t))[0]
            if len(midpoint_ids):
                counts = n_unique[midpoint_ids]
                width = int(counts.max()) - 1
                j = np.arange(width)[None, :]
                in_range = j < (counts[:, None] - 1)
                below = np.where(in_range, j, 0)
                above = below + np.where(in_range, 1, 0)
                offs = offsets[midpoint_ids][:, None]
                cand = (uvals[offs + below] + uvals[offs + above]) / 2.0
                valid, gain, _n_left = candidate_block(midpoint_ids, cand,
                                                       below, above, counts)
                shortlists.append((midpoint_ids, cand,
                                   valid & in_range, gain))

        if not shortlists:
            return None

        # Decide the winner exactly.  The cumulative-sum errors round
        # differently than per-side sums, so every candidate whose
        # approximate gain is within tolerance of the best is re-evaluated
        # with the exact per-side arithmetic, in (feature, candidate) order.
        tol = float(np.max(np.abs(total_sq))) * 1e-8 + base_error * 1e-8 + 1e-8
        approx_best = max(float(gain[valid].max()) if valid.any() else -np.inf
                          for _ids, _cand, valid, gain in shortlists)
        cutoff = max(approx_best - 2 * tol, 1e-9 - tol)
        entries = []
        for feature_ids, cand, valid, gain in shortlists:
            for row, col in zip(*np.nonzero(valid & (gain > cutoff))):
                entries.append((int(feature_ids[row]), int(col),
                                float(cand[row, col])))
        entries.sort()
        best_gain = 1e-9
        best = None
        for feature, _col, threshold in entries:
            column = x[:, feature]
            mask = column <= threshold
            left, right = y[mask], y[~mask]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            error = float(np.sum((left - left.mean()) ** 2)
                          + np.sum((right - right.mean()) ** 2))
            gain = base_error - error
            if gain > best_gain:
                best_gain = gain
                best = (feature, float(threshold), mask)
        return best

    # -- prediction ---------------------------------------------------------------
    @staticmethod
    def _flatten(tree: dict) -> Tuple[np.ndarray, ...]:
        """Flatten the dict tree into (feature, threshold, left, right, value)
        arrays; leaves carry feature ``-1``."""
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []

        def add(node: dict) -> int:
            slot = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(node["value"])
            if "feature" in node:
                feature[slot] = node["feature"]
                threshold[slot] = node["threshold"]
                left[slot] = add(node["left"])
                right[slot] = add(node["right"])
            return slot

        add(tree)
        return (np.asarray(feature, dtype=np.int64),
                np.asarray(threshold, dtype=np.float64),
                np.asarray(left, dtype=np.int64),
                np.asarray(right, dtype=np.int64),
                np.asarray(value, dtype=np.float64))

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._flat is None:
            return np.zeros(len(x))
        feature, threshold, left, right, value = self._flat
        x = np.asarray(x)
        node = np.zeros(len(x), dtype=np.int64)
        while True:
            feat = feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            feats = feat[rows]
            go_left = x[rows, feats] <= threshold[node[rows]]
            node[rows] = np.where(go_left, left[node[rows]], right[node[rows]])
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
        roots: List[int] = []
        feats: List[np.ndarray] = []
        ths: List[np.ndarray] = []
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        values: List[np.ndarray] = []
        offset = 0
        for tree in self.trees:
            feature, threshold, left, right, value = tree._flat
            roots.append(offset)
            feats.append(feature)
            ths.append(threshold)
            lefts.append(np.where(left >= 0, left + offset, left))
            rights.append(np.where(right >= 0, right + offset, right))
            values.append(value)
            offset += len(feature)
        self._stacked = (np.asarray(roots, dtype=np.int64),
                         np.concatenate(feats), np.concatenate(ths),
                         np.concatenate(lefts), np.concatenate(rights),
                         np.concatenate(values),
                         max(t.max_depth for t in self.trees))

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
        roots, feature, threshold, left, right, value, depth = stacked
        n = len(x)
        node = np.broadcast_to(roots, (n, len(roots))).copy()
        for _ in range(depth + 1):
            feat = feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            vals = np.take_along_axis(x, np.where(internal, feat, 0), axis=1)
            go_left = vals <= threshold[node]
            node = np.where(internal,
                            np.where(go_left, left[node], right[node]), node)
        # Accumulate tree by tree, as the per-tree loop above does (float
        # addition is not associative, and the explorer compares scores).
        leaf = value[node]
        pred = np.full(n, self.base_score)
        for t in range(leaf.shape[1]):
            pred += self.learning_rate * leaf[:, t]
        return pred


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

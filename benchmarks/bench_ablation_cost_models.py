"""Ablation: cost-model design choices (paper Section 5.2, Figure 13).

The paper compares two learned cost models — gradient-boosted trees over
loop-program features and a TreeRNN over the program AST — and reports that
they reach similar predictive quality while the boosted trees predict about
twice as fast, which is why they are the default.  This ablation regenerates
that comparison on a ResNet-18 conv2d schedule space: each model is trained
on measured configurations and evaluated by the Spearman rank correlation of
its predictions on held-out configurations, together with its prediction
latency.
"""

import random
import time

import numpy as np
import pytest

from common import conv_graph, emit_summary, get_target
from repro import tir
from repro.autotvm import GradientBoostedTrees, extract_tasks, rank_correlation
from repro.autotvm.treernn import TreeRNNCostModel
from repro.workloads import RESNET_CONV_WORKLOADS

N_TRAIN = 48
N_TEST = 32


def _collect_samples(target, n_samples, seed=0):
    """Lower a random sample of configurations and 'measure' them."""
    c7 = RESNET_CONV_WORKLOADS[6]
    graph = conv_graph(1, c7.in_channels, c7.height, c7.width, c7.out_channels,
                       c7.kernel, c7.stride, c7.padding)
    task, = extract_tasks(graph, target)
    rng = random.Random(seed)
    funcs, features, times = [], [], []
    for config in task.config_space.sample(n_samples, rng=rng):
        try:
            func = task.lower(config)
            feats = tir.extract_features(func)
            cost = target.model.estimate(feats)
        except Exception:
            continue
        if not np.isfinite(cost):
            continue
        funcs.append(func)
        features.append(feats.to_vector())
        times.append(cost)
    return funcs, np.asarray(features), np.asarray(times)


def _evaluate():
    target = get_target("cuda")
    funcs, features, times = _collect_samples(target, N_TRAIN + N_TEST, seed=7)
    throughput = 1.0 / np.maximum(times, 1e-12)
    throughput = throughput / throughput.max()
    split = min(N_TRAIN, len(funcs) - 8)
    results = {}

    gbt = GradientBoostedTrees(seed=0)
    gbt.fit(features[:split], throughput[:split])
    start = time.perf_counter()
    pred = gbt.predict(features[split:])
    gbt_time = (time.perf_counter() - start) / max(len(pred), 1)
    results["GBT (default)"] = {
        "rank_corr": rank_correlation(pred, throughput[split:]),
        "predict_ms": gbt_time * 1e3,
    }

    treernn = TreeRNNCostModel(seed=0, epochs=30)
    treernn.fit(funcs[:split], throughput[:split])
    start = time.perf_counter()
    pred = treernn.predict(funcs[split:])
    tree_time = (time.perf_counter() - start) / max(len(pred), 1)
    results["TreeRNN"] = {
        "rank_corr": rank_correlation(pred, throughput[split:]),
        "predict_ms": tree_time * 1e3,
    }
    return results


def test_ablation_cost_models(benchmark):
    results = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    print("\n=== Ablation: cost model choice (ResNet-18 C7 schedule space) ===")
    print(f"{'model':<16}{'rank corr':>12}{'predict ms/config':>20}")
    for name, entry in results.items():
        print(f"{name:<16}{entry['rank_corr']:>12.3f}{entry['predict_ms']:>20.3f}")
        benchmark.extra_info[f"{name}_rank_corr"] = round(entry["rank_corr"], 3)
        benchmark.extra_info[f"{name}_predict_ms"] = round(entry["predict_ms"], 3)
    emit_summary("ablation_cost_models", {
        name: {"rank_corr": round(entry["rank_corr"], 3),
               "predict_ms": round(entry["predict_ms"], 3)}
        for name, entry in results.items()})
    # Paper: both learned models rank schedules usefully; the boosted trees
    # predict faster than the neural AST model (why they are the default).
    assert results["GBT (default)"]["rank_corr"] > 0.3
    assert results["TreeRNN"]["rank_corr"] > 0.1
    assert results["GBT (default)"]["predict_ms"] < results["TreeRNN"]["predict_ms"]

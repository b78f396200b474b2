"""Quickstart: the end-user flow from Section 2 of the paper.

Take a model from the frontend, compile it with the one-call
``repro.compile`` pipeline, run it with ``repro.Executor``, and inspect
the numerical output, the simulated latency, and the per-pass compilation
instrumentation.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.frontend import resnet18


def main() -> None:
    # 1. Import a model (the paper uses t.frontend.from_keras; here the model
    #    zoo provides the graph + parameters directly).
    graph, params, input_shapes = resnet18(batch=1, image_size=64, num_classes=100)
    print(f"Imported ResNet-18 variant: {len(graph.op_nodes)} operators, "
          f"{len(params)} parameter tensors")

    # 2. Compile for a target: one call, one resulting module.
    module = repro.compile((graph, params, input_shapes), target="cuda")
    print(f"Compiled module: {len(module.kernels)} fused kernels, "
          f"estimated latency {module.total_time * 1e3:.3f} ms on "
          f"{module.target.name}")
    print(f"Static memory planning reuse: {module.memory_plan.reuse_ratio:.2f}x "
          f"({module.memory_plan.naive_bytes / 1e6:.1f} MB -> "
          f"{module.memory_plan.planned_bytes / 1e6:.1f} MB)")
    print("\nCompilation pass instrumentation:")
    print(module.pass_summary())

    # 3. Run it: bind the module to a device once, then call the executor
    #    with the graph inputs (it binds the parameters itself).
    executor = repro.Executor(module, "gpu:0")
    data = np.random.rand(*input_shapes["data"]).astype("float32")
    result = executor.run({"data": data})

    probabilities = result.outputs[0]
    print(f"\nOutput shape: {probabilities.shape}, "
          f"sum of probabilities: {probabilities.sum():.4f}")
    print("Top-5 classes:", np.argsort(probabilities[0])[::-1][:5].tolist())
    print("\nPer-kernel breakdown (top 5 by time):")
    for name, seconds in sorted(result.per_kernel, key=lambda kv: -kv[1])[:5]:
        print(f"  {name:<45s} {seconds * 1e6:9.1f} us")

    # 4. Ship it: export a self-contained artifact, reload it (as a
    #    deployment host would — no recompilation) and run it the same way.
    import tempfile
    from pathlib import Path

    artifact = Path(tempfile.mkdtemp()) / "resnet18.repro"
    module.export(artifact)
    reloaded = repro.load(artifact)
    served = repro.Executor(reloaded)(data=data)[0].asnumpy()
    np.testing.assert_array_equal(served, probabilities)
    print(f"\nArtifact round-trip: {artifact.name} reloaded, outputs "
          f"bit-identical, estimated latency unchanged "
          f"({reloaded.total_time * 1e3:.3f} ms)")

    # 5. Ablations no longer need magic opt_level integers: disable a pass by
    #    name to reproduce the paper's "TVM w/o graph opt" rows.
    with repro.PassContext(disabled_passes=["fuse_ops"]):
        unfused = repro.compile((graph, params, input_shapes), target="cuda")
    print(f"\nWithout operator fusion: {len(unfused.kernels)} kernels, "
          f"{unfused.total_time * 1e3:.3f} ms "
          f"({unfused.total_time / module.total_time:.2f}x slower)")


if __name__ == "__main__":
    main()

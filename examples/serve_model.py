"""Serving a compiled model to concurrent clients (the deployment story).

Compiles a ResNet-18 variant once, exports it as a self-contained artifact,
then serves the *reloaded* artifact with ``repro.serve``: concurrent client
threads fire single requests, and each of two simulated GPUs pulls its next
batch — requests coalesced along the batch axis — the moment it is free.  Each
client's output is bit-identical to a solo execution; the engine reports its
batches per device and the wall-clock latency split into queue wait and
execution.

Run:  python examples/serve_model.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

import repro
from repro.frontend import resnet18
from repro.runtime import Executor

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 4


def main() -> None:
    # 1. Compile once, export the artifact, deploy by loading it back —
    #    no recompilation happens on the serving host.
    module = repro.compile(resnet18(batch=1, image_size=64, num_classes=100),
                           target="cuda")
    artifact = Path(tempfile.mkdtemp()) / "resnet18.repro"
    module.export(artifact)
    served = repro.load(artifact)
    print(f"Exported {artifact.name}: {len(served.kernels)} kernels, "
          f"estimated {served.total_time * 1e3:.3f} ms/request on "
          f"{served.target.name}")

    # 2. Start the engine: dynamic batching (up to 8 requests per batch,
    #    10 ms coalescing window) over a pool of two simulated GPUs.
    engine = repro.serve(served, devices=["gpu:0", "gpu:1"],
                         max_batch=8, timeout_ms=10.0)

    # 3. Concurrent clients, each making blocking single requests.
    rng = np.random.default_rng(0)
    inputs = [rng.random((1, 3, 64, 64)).astype("float32")
              for _ in range(N_CLIENTS * REQUESTS_PER_CLIENT)]
    solo = Executor(served)
    results = {}

    def client(index: int) -> None:
        for r in range(REQUESTS_PER_CLIENT):
            request = index * REQUESTS_PER_CLIENT + r
            results[request] = engine.infer(data=inputs[request], timeout=60)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    engine.shutdown()

    # 4. Every served result is bit-identical to a solo execution.
    for request, outputs in results.items():
        expected = solo(inputs[request])[0].asnumpy()
        np.testing.assert_array_equal(outputs[0], expected)
    print(f"{len(results)} concurrent requests served, all outputs "
          f"bit-identical to solo execution.")

    # 5. Structured serving statistics.
    stats = engine.stats()
    wall = stats["wall"]
    print(f"\nBatches: {stats['batches']} "
          f"(occupancy {stats['batch_occupancy']}, "
          f"mean {stats['mean_batch_occupancy']:.2f} requests/batch)")
    for device, batches in stats["batches_per_device"].items():
        print(f"  {device}: {batches} batches")
    print(f"Wall throughput: {wall['throughput_rps']:.1f} requests/s over "
          f"{wall['duration_seconds']:.2f} s")
    for name in ("latency", "queue_wait", "execution"):
        print(f"Wall {name.replace('_', ' ')}: "
              f"p50 {wall[name]['p50_ms']:.1f} ms, "
              f"p99 {wall[name]['p99_ms']:.1f} ms")


if __name__ == "__main__":
    main()

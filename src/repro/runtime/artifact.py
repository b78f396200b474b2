"""Versioned, self-contained module artifacts (``export`` / ``repro.load``).

The paper's deployment story is compile-once, deploy-anywhere: the compiled
module travels to the serving host as an artifact and runs there without the
compiler.  :func:`export_module` writes a single zip bundle holding

* ``MANIFEST.json`` — schema version, target spec, per-kernel latency table
  with tuned-config provenance, memory plan, pass records and the parameter
  set (name -> shape, dtype);
* ``graph.json`` — the optimized computational graph;
* ``params.npz`` — the bound parameter tensors, stored uncompressed: float32
  weights shrink about 7 % under deflate, and deflating them (inside the npz,
  then again as a zip entry) ran at 11 – 14 MB/s.

:func:`load_module` restores a :class:`~repro.compiler.module.CompiledModule`
from such a bundle without recompiling anything, failing loudly (with
actionable messages) on corrupt files, schema-version skew and target
mismatches.
"""

from __future__ import annotations

import io
import json
import zipfile
from typing import Dict, List

import numpy as np

from ..compiler.module import CompiledKernel, CompiledModule, PassRecord
from ..graph.ir import Graph, Node
from ..graph.passes import (FusedGroup, MemoryPlan,
                            ensure_layout_transform_registered)
from ..hardware.target import target_from_spec

__all__ = ["ArtifactError", "export_module", "load_module",
           "graph_to_json", "graph_from_json", "FORMAT_NAME", "SCHEMA_VERSION"]

FORMAT_NAME = "repro-module-artifact"
SCHEMA_VERSION = 1

_MANIFEST = "MANIFEST.json"
_GRAPH = "graph.json"
_PARAMS = "params.npz"
_REQUIRED_ENTRIES = (_MANIFEST, _GRAPH, _PARAMS)


class ArtifactError(ValueError):
    """A module artifact could not be read or does not match this build."""


# ---------------------------------------------------------------------------
# Graph <-> JSON
# ---------------------------------------------------------------------------

def _encode_attr(value):
    """JSON-encode one attribute value, preserving tuple-ness.

    Tuples must survive the round trip exactly: workload cache keys and the
    fallback-search seed hash over ``repr`` of attribute values, so a tuple
    silently becoming a list would change the deterministic fallback configs
    (and therefore the reloaded module's estimated times).
    """
    if isinstance(value, tuple):
        return {"py/tuple": [_encode_attr(v) for v in value]}
    if isinstance(value, list):
        return [_encode_attr(v) for v in value]
    if isinstance(value, dict):
        return {"py/dict": {k: _encode_attr(v) for k, v in value.items()}}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ArtifactError(f"Cannot serialise graph attribute of type "
                        f"{type(value).__name__}: {value!r}")


def _decode_attr(value):
    if isinstance(value, dict):
        if set(value) == {"py/tuple"}:
            return tuple(_decode_attr(v) for v in value["py/tuple"])
        if set(value) == {"py/dict"}:
            return {k: _decode_attr(v) for k, v in value["py/dict"].items()}
        return {k: _decode_attr(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_attr(v) for v in value]
    return value


def graph_to_json(graph: Graph) -> Dict:
    """Serialise a graph to a JSON-compatible dict (topological node list)."""
    index_of = {id(node): i for i, node in enumerate(graph.nodes)}
    nodes = []
    for node in graph.nodes:
        nodes.append({
            "op": node.op,
            "name": node.name,
            "inputs": [index_of[id(p)] for p in node.inputs],
            "attrs": {k: _encode_attr(v) for k, v in node.attrs.items()},
            "shape": list(node.shape) if node.shape is not None else None,
            "dtype": node.dtype,
        })
    return {"nodes": nodes,
            "outputs": [index_of[id(out)] for out in graph.outputs]}


def graph_from_json(payload: Dict) -> Graph:
    """Rebuild a graph from :func:`graph_to_json` output (also used as a
    cheap deep-clone by the serving engine's batch-latency estimator)."""
    nodes: List[Node] = []
    for entry in payload["nodes"]:
        node = Node(entry["op"], entry["name"],
                    inputs=[nodes[i] for i in entry["inputs"]],
                    attrs={k: _decode_attr(v)
                           for k, v in entry.get("attrs", {}).items()})
        shape = entry.get("shape")
        node.shape = tuple(shape) if shape is not None else None
        node.dtype = entry.get("dtype", "float32")
        nodes.append(node)
    if any(node.op == "layout_transform" for node in nodes):
        ensure_layout_transform_registered()
    return Graph([nodes[i] for i in payload["outputs"]])


def _param_specs(params) -> Dict[str, List]:
    """``name -> [shape, dtype]``, as the manifest records the parameters."""
    return {name: [list(value.shape), str(value.dtype)]
            for name, value in params.items()}


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_module(module: CompiledModule, path) -> str:
    """Write ``module`` as a self-contained versioned bundle at ``path``.

    Returns the path written.  The bundle restores through
    :func:`load_module` / ``repro.load`` with no recompilation: kernel
    latencies (and their tuned-config provenance) are recorded verbatim.
    """
    from .. import __version__

    manifest = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "target": module.target.spec(),
        "opt_level": module.opt_level,
        "layout_transforms": module.layout_transforms,
        "kernels": [{
            "nodes": [n.name for n in kernel.group.nodes],
            "master": kernel.group.master.name,
            "time_seconds": kernel.time_seconds,
            "device": kernel.device,
            "tuned": bool(getattr(kernel, "tuned", False)),
            "config_index": getattr(kernel, "config_index", None),
        } for kernel in module.kernels],
        "memory_plan": {
            "storage_of": module.memory_plan.storage_of,
            "token_bytes": {str(token): size for token, size
                            in module.memory_plan.token_bytes.items()},
            "naive_bytes": module.memory_plan.naive_bytes,
        },
        "pass_records": [{
            "name": r.name, "seconds": r.seconds,
            "nodes_before": r.nodes_before, "nodes_after": r.nodes_after,
            "params_before": r.params_before, "params_after": r.params_after,
        } for r in module.pass_records],
        "provenance": {
            "tuned_kernels": module.tuned_kernels,
            "total_time": module.total_time,
        },
        "params": _param_specs(module.params),
    }

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as bundle:
        bundle.writestr(_MANIFEST, json.dumps(manifest, indent=1))
        bundle.writestr(_GRAPH, json.dumps(graph_to_json(module.graph)))
        # Streamed array by array into a stored entry: no whole-params copy.
        entry = zipfile.ZipInfo(_PARAMS)
        entry.compress_type = zipfile.ZIP_STORED
        with bundle.open(entry, "w", force_zip64=True) as handle:
            np.savez(handle, **module.params)
    return str(path)


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def _read_json(bundle: zipfile.ZipFile, entry: str, path) -> Dict:
    try:
        payload = json.loads(bundle.read(entry).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"Module artifact {path!s} is corrupt: entry "
                            f"{entry!r} is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"Module artifact {path!s} is corrupt: entry "
                            f"{entry!r} does not hold a JSON object")
    return payload


def _read_params(bundle: zipfile.ZipFile, path) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(bundle.read(_PARAMS)),
                     allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise ArtifactError(f"Module artifact {path!s} is corrupt: entry "
                            f"{_PARAMS!r} does not hold numeric arrays "
                            f"({exc}); re-export the module") from exc


def _check_params(params, manifest: Dict, path) -> None:
    """Unchecked, a missing weight would become a required graph input."""
    expected = manifest.get("params")
    if expected is None:    # written before the manifest recorded the set
        return
    found = _param_specs(params)
    for name in sorted(set(expected) | set(found)):
        if found.get(name) != expected.get(name):
            raise ArtifactError(
                f"Module artifact {path!s}: parameter {name!r} is "
                f"{found.get(name, 'missing')}, the manifest records "
                f"{expected.get(name, 'no such parameter')} ([shape, dtype]); "
                f"re-export the module")


def load_module(path, *, params=None) -> CompiledModule:
    """Load a module artifact written by :func:`export_module`.

    This is the implementation behind ``repro.load``.  ``params`` overrides
    the bundle's ``params.npz`` with an externally supplied mapping of
    parameter arrays — the process-pool workers pass zero-copy shared-memory
    views here so N workers share one physical copy of the weights.  Either
    way the parameters must match the set the manifest records.
    """
    if not zipfile.is_zipfile(path):
        raise ArtifactError(
            f"{path!s} is not a module artifact (expected a bundle written "
            f"by CompiledModule.export())")
    with zipfile.ZipFile(path) as bundle:
        present = set(bundle.namelist())
        missing = [entry for entry in _REQUIRED_ENTRIES if entry not in present]
        if missing:
            raise ArtifactError(
                f"Module artifact {path!s} is incomplete: missing "
                f"{missing}; expected entries {list(_REQUIRED_ENTRIES)}")

        manifest = _read_json(bundle, _MANIFEST, path)
        if manifest.get("format") != FORMAT_NAME:
            raise ArtifactError(
                f"{path!s} is not a module artifact: format is "
                f"{manifest.get('format')!r}, expected {FORMAT_NAME!r}")
        version = manifest.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ArtifactError(f"Module artifact {path!s} has an invalid "
                                f"schema version {version!r}")
        if version > SCHEMA_VERSION:
            raise ArtifactError(
                f"Module artifact {path!s} uses schema v{version} but this "
                f"build supports up to v{SCHEMA_VERSION}; upgrade repro or "
                f"re-export the module with this version")

        graph = graph_from_json(_read_json(bundle, _GRAPH, path))
        params = _read_params(bundle, path) if params is None else dict(params)
    _check_params(params, manifest, path)

    target = _load_target(manifest, path)
    nodes_by_name = {node.name: node for node in graph.nodes}
    kernels = []
    for entry in manifest.get("kernels", []):
        try:
            group_nodes = [nodes_by_name[name] for name in entry["nodes"]]
            master = nodes_by_name[entry["master"]]
        except KeyError as exc:
            raise ArtifactError(
                f"Module artifact {path!s} is corrupt: kernel references "
                f"unknown graph node {exc.args[0]!r}") from None
        kernels.append(CompiledKernel(
            FusedGroup(group_nodes, master),
            float(entry["time_seconds"]),
            entry["device"],
            tuned=bool(entry.get("tuned", False)),
            config_index=entry.get("config_index"),
        ))

    plan = manifest.get("memory_plan", {})
    memory_plan = MemoryPlan(
        storage_of=dict(plan.get("storage_of", {})),
        token_bytes={int(token): int(size) for token, size
                     in plan.get("token_bytes", {}).items()},
        naive_bytes=int(plan.get("naive_bytes", 0)),
    )
    pass_records = [PassRecord(**record)
                    for record in manifest.get("pass_records", [])]

    return CompiledModule(
        graph=graph,
        kernels=kernels,
        params=params,
        target=target,
        memory_plan=memory_plan,
        opt_level=int(manifest.get("opt_level", 2)),
        layout_transforms=int(manifest.get("layout_transforms", 0)),
        pass_records=pass_records,
    )


def _load_target(manifest: Dict, path):
    spec = manifest.get("target")
    if not isinstance(spec, dict):
        raise ArtifactError(f"Module artifact {path!s} is corrupt: missing "
                            f"target spec in manifest")
    try:
        return target_from_spec(spec)
    except ValueError as exc:
        raise ArtifactError(
            f"Module artifact {path!s} cannot run on this build: {exc}") from exc

"""Worker-process entry point (run under the ``spawn`` start method).

:func:`module_worker_main` boots from plain, JSON-able arguments (no live
objects cross the process boundary), sends a ``HELLO`` frame when ready, then
serves framed requests until ``SHUTDOWN`` or pipe EOF (parent death).  It
boots by loading an exported module artifact bundle **without its
params.npz** — parameters are mapped as zero-copy read-only views over the
pool's shared-memory arena, so a 4-worker pool holds one physical copy of the
weights, not four.  ``EXEC`` frames point at a per-batch arena; each request
executes through the same :class:`~repro.runtime.executor.Executor` kernels
as the in-process path, so outputs are bit-identical to solo execution.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict

from .protocol import MSG, ProtocolError, recv_msg, send_msg
from .shm import ShmArena

__all__ = ["module_worker_main"]


def _send_error(conn, exc: BaseException) -> None:
    send_msg(conn, MSG.ERROR, {"error": f"{type(exc).__name__}: {exc}",
                               "traceback": traceback.format_exc()})


def module_worker_main(conn, boot: Dict) -> None:
    """Serve ``EXEC`` batches for one device from an artifact bundle.

    ``boot`` (plain data): ``bundle`` — artifact path; ``device`` — device
    spec string; ``params`` — spec of the shared parameter arena (or None
    for a parameter-less module).
    """
    started = time.perf_counter()
    try:
        from ..artifact import load_module
        from ..executor import Executor

        params_arena = None
        params = None
        if boot.get("params"):
            params_arena = ShmArena.attach(boot["params"])
            params = {name: params_arena.view(name)
                      for name in params_arena.slot_names()}
        module = load_module(boot["bundle"], params=params)
        executor = Executor(module, boot["device"])
    except BaseException as exc:
        _send_error(conn, exc)
        raise SystemExit(1)

    send_msg(conn, MSG.HELLO, {"pid": os.getpid(), "device": boot["device"],
                               "boot_seconds": time.perf_counter() - started})

    try:
        while True:
            try:
                kind, payload = recv_msg(conn)
            except (EOFError, OSError):
                return                  # parent died; exit quietly
            except ProtocolError:
                # A torn/garbled frame means the stream is unrecoverable
                # (e.g. a truncation fault): exit so the parent respawns a
                # clean worker.
                return
            if kind == MSG.PING:
                send_msg(conn, MSG.PONG, {"pid": os.getpid()})
            elif kind == MSG.SHUTDOWN:
                send_msg(conn, MSG.BYE, {"pid": os.getpid()})
                return
            else:
                try:
                    if kind != MSG.EXEC:
                        raise ValueError(f"serve worker got unexpected "
                                         f"{MSG.name(kind)} frame")
                    _execute_batch(conn, executor, payload)
                except BaseException as exc:   # noqa: BLE001 — report, don't die
                    _send_error(conn, exc)
    finally:
        if params_arena is not None:
            params_arena.close()


def _execute_batch(conn, executor, payload: Dict) -> None:
    """One ``EXEC`` frame: run each request of the batch arena, write the
    outputs into its reserved slots, reply with per-request status."""
    arena = ShmArena.attach(payload["arena"])
    try:
        execute_seconds = 0.0
        copy_seconds = 0.0
        statuses = []
        for index in range(int(payload["requests"])):
            inputs = {name: arena.view(f"in:{index}:{name}")
                      for name in payload["inputs"]}
            run_start = time.perf_counter()
            try:
                result = executor._execute(inputs)
            except Exception as exc:
                statuses.append({"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"})
                continue
            execute_seconds += time.perf_counter() - run_start
            copy_start = time.perf_counter()
            for name, value in zip(payload["outputs"], result.outputs):
                arena.view(f"out:{index}:{name}", writeable=True)[...] = value
            copy_seconds += time.perf_counter() - copy_start
            statuses.append({"ok": True})
        send_msg(conn, MSG.RESULT, {
            "pid": os.getpid(),
            "per_request": statuses,
            "timings": {"execute_s": execute_seconds,
                        "shm_copy_s": copy_seconds},
        })
    finally:
        arena.close()

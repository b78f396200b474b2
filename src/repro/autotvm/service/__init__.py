"""Distributed tuning service: one shared database, many tuning sessions.

The paper scales tuning by pooling devices behind an RPC tracker (Section
5.4).  Here a measurement is a deterministic function of ``(seed, task,
config)``, so a device pool would reproduce nothing observable; what this
package pools is the *knowledge* the fleet produces.  A
:class:`TuningService` owns the single authoritative
:class:`~repro.autotvm.database.TuningDatabase`; sessions join it with
``TuningOptions(service="host:port")`` and get, for free:

* global measurement dedup — a ``(task, target, config)`` any client
  measured is never measured again anywhere;
* cross-session, cross-shape transfer — session bests (with features) feed
  every later session's cost-model warm start;
* a pretrained cost model, fitted at service startup on the accumulated
  database, so cold sessions explore model-guided from the first batch.

A single session against a fresh service behaves bit-identically to tuning
locally.  :func:`repro.autotvm.service.zoo.schedule_zoo` drives the whole
model zoo through one service (``bench_tuning.py`` imports it from there;
this package does not load it).
"""

from .client import (ServiceClient, ServiceDedupMeasurer,
                     ServiceUnavailable, connect)
from .protocol import MSG, ServiceProtocolError
from .server import TuningService

__all__ = [
    "MSG",
    "ServiceClient",
    "ServiceDedupMeasurer",
    "ServiceProtocolError",
    "ServiceUnavailable",
    "TuningService",
    "connect",
]

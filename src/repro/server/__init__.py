"""Concurrent serving: the asyncio JSON-lines TCP tier.

* :mod:`repro.server.protocol` -- framing, envelopes and the
  read/write/admin operation split;
* :mod:`repro.server.server` -- :class:`ReproServer`, the
  multi-reader/single-writer loop: reads answer from pinned
  :class:`~repro.store.snapshot.CollectionSnapshot` views, writes
  funnel through one writer task that group-commits batches with a
  single WAL sync, and acknowledgements imply durability.

The counterpart client (sync and async) is :mod:`repro.client`; the
command-line entry point is ``repro serve``.
"""

from repro.server.protocol import PROTOCOL_VERSION
from repro.server.server import ReproServer, serve

__all__ = ["ReproServer", "serve", "PROTOCOL_VERSION"]

"""Distributed block solve: a TCP worker fleet behind ``executor="remote"``.

The package splits the remote backend along its trust boundary:

* :mod:`repro.dist.protocol` — length-prefixed, CRC-checked JSON
  framing (the ``RPW2`` twin of the store log's ``RPS1`` discipline;
  the objects inside a frame use the :mod:`repro.serve.protocol`
  codec, so nothing a peer sends can execute code on decode);
* :mod:`repro.dist.worker` — the ``repro worker`` process: dials back
  to the driver, runs :func:`~repro.pipeline.solve.run_block_task`
  payloads on a local pool, honors cooperative cancellation, and
  self-terminates after a configurable idle timeout;
* :mod:`repro.dist.registry` — the driver's fleet bookkeeping: accept
  loop, per-worker readers, health polling, least-loaded dispatch with
  per-worker in-flight accounting, requeue-on-death;
* :mod:`repro.dist.executor` — :class:`RemoteExecutor`, the
  ``concurrent.futures`` face the batch scheduler consumes unchanged.

The scheduler reaches the backend through
``make_pool("remote", jobs)``, which wraps the process-wide **default
registry** (created lazily on first use, listening on
``REPRO_WORKER_LISTEN`` or an ephemeral loopback port) in a fresh
:class:`RemoteExecutor`.  Long-lived owners — ``repro serve``, tests,
benchmarks — manage a registry explicitly via :func:`get_registry` /
:func:`set_registry` / :func:`close_registry` instead.
"""

from __future__ import annotations

import os
import threading

from .executor import RemoteExecutor
from .protocol import ProtocolError, parse_endpoint, recv_message, send_message
from .registry import WorkerConnection, WorkerRegistry
from .worker import WorkerClient, spawn_worker

__all__ = [
    "RemoteExecutor",
    "WorkerRegistry",
    "WorkerConnection",
    "WorkerClient",
    "spawn_worker",
    "ProtocolError",
    "send_message",
    "recv_message",
    "parse_endpoint",
    "get_registry",
    "set_registry",
    "close_registry",
]

#: Environment variable naming the default registry's listen endpoint.
LISTEN_ENV = "REPRO_WORKER_LISTEN"

_default_registry: WorkerRegistry | None = None
_registry_lock = threading.Lock()


def get_registry(listen: str | None = None) -> WorkerRegistry:
    """The process-wide default registry, created on first use.

    Parameters
    ----------
    listen : str, optional
        ``HOST:PORT`` to bind when the registry does not exist yet
        (default: ``$REPRO_WORKER_LISTEN``, else an ephemeral loopback
        port).  Ignored — with the existing endpoint kept — when a
        default registry is already running.
    """
    global _default_registry
    with _registry_lock:
        if _default_registry is None or _default_registry.closed:
            endpoint = listen or os.environ.get(LISTEN_ENV) or "127.0.0.1:0"
            host, port = parse_endpoint(endpoint)
            _default_registry = WorkerRegistry(host=host, port=port)
        return _default_registry


def set_registry(registry: WorkerRegistry | None) -> WorkerRegistry | None:
    """Install ``registry`` as the process default; the previous one.

    The previous registry is returned un-closed (tests restore it);
    pass None to clear, making the next :func:`get_registry` create a
    fresh one.
    """
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


def close_registry() -> None:
    """Close and clear the default registry, if any."""
    global _default_registry
    with _registry_lock:
        registry = _default_registry
        _default_registry = None
    if registry is not None:
        registry.close()

"""Persisted runs: append-only ``events.jsonl`` plus an atomic manifest.

Each run lives under ``<root>/<run_id>/`` with exactly two files:

* ``events.jsonl`` — one JSON object per line, streamed as training
  progresses (epoch rows, spans, counters, gauges).  Append-only and
  flushed per event, so a crashed run keeps every event up to the crash.
* ``manifest.json`` — provenance: method, dataset, config dict, seed,
  package version, the thread budget in force (:mod:`repro.nn.kernels`),
  start/end timestamps, and final status (``running`` →
  ``ok`` | ``oom`` | ``error``).  Written via write-then-rename (the same
  atomicity discipline as the embedding cache), so readers never observe a
  truncated manifest.

The usual entry point is :func:`telemetry_run`, which wires a
:class:`RunWriter` to a :class:`~repro.obs.recorder.MetricsRecorder`,
installs both thread-locally, and records the outcome — including ``oom``
on :class:`MemoryError`, which is what makes Table 7's voided cells
auditable after the fact.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

from ..nn.kernels import thread_budget
from .health import DivergenceError
from .recorder import MetricsRecorder, record
from .schema import SCHEMA_VERSION


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in str(text))


def make_run_id(method: str, dataset: str, seed: int) -> str:
    """A readable, collision-resistant run id."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    suffix = os.urandom(3).hex()
    return f"{_slug(method)}-{_slug(dataset)}-s{int(seed)}-{stamp}-{suffix}"


def config_dict(config) -> Dict[str, object]:
    """A JSON-safe dict view of a method config or a plain method object."""
    if config is None:
        return {}
    if hasattr(config, "__dataclass_fields__"):
        source = {
            name: getattr(config, name) for name in config.__dataclass_fields__
        }
    elif isinstance(config, dict):
        source = config
    else:
        source = {
            k: v for k, v in vars(config).items() if not k.startswith("_")
        }
    safe: Dict[str, object] = {}
    for key, value in source.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            safe[key] = value
        elif isinstance(value, (tuple, list)) and all(
            isinstance(v, (bool, int, float, str)) for v in value
        ):
            safe[key] = list(value)
        else:
            safe[key] = repr(value)
    return safe


class RunWriter:
    """Streams one run's events to disk and maintains its manifest."""

    def __init__(
        self,
        root: str | Path,
        method: str,
        dataset: str,
        seed: int = 0,
        config: Optional[Dict[str, object]] = None,
        run_id: Optional[str] = None,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        from .. import __version__

        self.run_id = run_id or make_run_id(method, dataset, seed)
        self.directory = Path(root) / self.run_id
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "method": method,
            "dataset": dataset,
            "seed": int(seed),
            "config": config_dict(config),
            "package_version": __version__,
            "threads": thread_budget(),
            "started_at": _utc_now(),
            "ended_at": None,
            "status": "running",
        }
        if extra:
            self.manifest.update(extra)
        # Line-buffered on top of the per-event flush below: even if some
        # code path writes without flushing, a complete line hits the file
        # as soon as it is written, so `repro runs watch` tails promptly.
        self._events = open(self.directory / "events.jsonl", "a", buffering=1)
        self._write_manifest()

    def _write_manifest(self) -> None:
        path = self.directory / "manifest.json"
        partial = path.with_suffix(".json.tmp")
        with open(partial, "w") as handle:
            json.dump(self.manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(partial, path)

    def write_event(self, event_type: str, **payload: object) -> None:
        """Append one event line and flush it to disk immediately."""
        event = {"type": event_type, "ts": round(time.time(), 3), **payload}
        self._events.write(json.dumps(event, sort_keys=True) + "\n")
        self._events.flush()

    def finish(self, status: str = "ok", summary: Optional[Dict[str, object]] = None, error: Optional[str] = None) -> None:
        """Close the event stream and seal the manifest with the outcome."""
        if self._events.closed:
            return
        self._events.close()
        self.manifest["ended_at"] = _utc_now()
        self.manifest["status"] = status
        if summary is not None:
            self.manifest["summary"] = summary
        if error is not None:
            self.manifest["error"] = error
        self._write_manifest()


@contextmanager
def telemetry_run(
    root: str | Path,
    method: str,
    dataset: str,
    seed: int = 0,
    config=None,
    run_id: Optional[str] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Iterator[MetricsRecorder]:
    """Record everything inside the block to ``<root>/<run_id>/``.

    Installs a :class:`MetricsRecorder` (thread-locally, so every
    instrumented training loop and span inside the block reports into it)
    whose events stream through a :class:`RunWriter`.  On exit the manifest
    is sealed with status ``ok``, ``oom`` (on :class:`MemoryError`),
    ``diverged`` (on :class:`~repro.obs.health.DivergenceError`, the health
    monitor's abort), or ``error`` (any other exception); exceptions
    propagate either way.
    """
    writer = RunWriter(
        root,
        method=method,
        dataset=dataset,
        seed=seed,
        config=config,
        run_id=run_id,
        extra=extra,
    )
    session = record(writer=writer)
    recorder = session.__enter__()
    recorder.run_id = writer.run_id
    try:
        yield recorder
    except MemoryError as exc:
        session.__exit__(MemoryError, exc, None)
        writer.finish(status="oom", summary=recorder.summary(), error=str(exc) or "MemoryError")
        raise
    except DivergenceError as exc:
        session.__exit__(DivergenceError, exc, None)
        writer.finish(status="diverged", summary=recorder.summary(), error=str(exc))
        raise
    except BaseException as exc:
        session.__exit__(type(exc), exc, None)
        writer.finish(status="error", summary=recorder.summary(), error=f"{type(exc).__name__}: {exc}")
        raise
    else:
        session.__exit__(None, None, None)
        writer.finish(status="ok", summary=recorder.summary())

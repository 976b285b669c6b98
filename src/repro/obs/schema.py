"""The documented JSONL event and manifest schemas, as executable checks.

This module is the single source of truth for what a telemetry run may
contain: ``docs/OBSERVABILITY.md`` documents these shapes and
``tests/obs/test_writer_schema.py`` asserts every event a real run emits
round-trips through them.  Validation is hand-rolled (no external schema
dependency): each field spec is ``(required, allowed types)``, with ``None``
permitted for optional-valued fields via ``type(None)``.
"""

from __future__ import annotations

from typing import Dict, Tuple

SCHEMA_VERSION = 1

_NUMBER = (int, float)
_OPT_NUMBER = (int, float, type(None))

# Per-event-type field specs: {field: (required, allowed types)}.
EVENT_SCHEMAS: Dict[str, Dict[str, Tuple[bool, tuple]]] = {
    "epoch": {
        "type": (True, (str,)),
        "ts": (True, _NUMBER),
        "method": (True, (str,)),
        "epoch": (True, (int,)),
        "loss": (True, _NUMBER),
        "parts": (True, (dict,)),
        "grad_norms": (True, (dict,)),
        "update_ratio": (True, _OPT_NUMBER),
        "epoch_seconds": (True, _NUMBER),
        "bytes_touched": (True, _OPT_NUMBER),
    },
    "span": {
        "type": (True, (str,)),
        "ts": (True, _NUMBER),
        "name": (True, (str,)),
        "seconds": (True, _NUMBER),
        "depth": (True, (int,)),
        "ops": (True, (dict,)),
        "bytes_touched": (True, _NUMBER),
    },
    "health": {
        "type": (True, (str,)),
        "ts": (True, _NUMBER),
        "method": (True, (str,)),
        "epoch": (True, (int,)),
        "status": (True, (str,)),
        "metrics": (True, (dict,)),
        "anomalies": (True, (list,)),
    },
    "counter": {
        "type": (True, (str,)),
        "ts": (True, _NUMBER),
        "name": (True, (str,)),
        "value": (True, _NUMBER),
        "tags": (True, (dict,)),
    },
    "gauge": {
        "type": (True, (str,)),
        "ts": (True, _NUMBER),
        "name": (True, (str,)),
        "value": (True, _NUMBER),
        "tags": (True, (dict,)),
    },
}

MANIFEST_SCHEMA: Dict[str, Tuple[bool, tuple]] = {
    "schema_version": (True, (int,)),
    "run_id": (True, (str,)),
    "method": (True, (str,)),
    "dataset": (True, (str,)),
    "seed": (True, (int,)),
    "config": (True, (dict,)),
    "package_version": (True, (str,)),
    "started_at": (True, (str,)),
    "ended_at": (True, (str, type(None))),
    "status": (True, (str,)),
    "summary": (False, (dict,)),
    "error": (False, (str,)),
    # Present on spec-driven runs (``repro run``): the expanded plan with
    # every variant's fully-resolved post-override config.
    "spec": (False, (dict,)),
    # The thread budget in force: ``budget`` plus each bundled OpenBLAS's
    # count (``None`` where that library is absent).
    "threads": (False, (dict,)),
}

THREADS_SCHEMA: Dict[str, Tuple[bool, tuple]] = {
    "budget": (True, (int,)),
    "numpy_blas": (True, (int, type(None))),
    "scipy_blas": (True, (int, type(None))),
}

RUN_STATUSES = ("running", "ok", "oom", "error", "diverged")

HEALTH_EVENT_STATUSES = ("ok", "warn", "diverged")


class SchemaError(ValueError):
    """An event or manifest does not match the documented schema."""


def _check_fields(payload: dict, spec: Dict[str, Tuple[bool, tuple]], label: str) -> None:
    for field, (required, types) in spec.items():
        if field not in payload:
            if required:
                raise SchemaError(f"{label}: missing required field {field!r}")
            continue
        if not isinstance(payload[field], types):
            raise SchemaError(
                f"{label}: field {field!r} has type "
                f"{type(payload[field]).__name__}, expected one of "
                f"{tuple(t.__name__ for t in types)}"
            )


def _check_numeric_mapping(mapping: dict, label: str) -> None:
    for key, value in mapping.items():
        if not isinstance(key, str) or not isinstance(value, _NUMBER):
            raise SchemaError(f"{label}: expected str -> number entries, got {key!r}: {value!r}")


def validate_event(event: dict) -> None:
    """Raise :class:`SchemaError` unless ``event`` matches its schema."""
    event_type = event.get("type")
    spec = EVENT_SCHEMAS.get(event_type)
    if spec is None:
        raise SchemaError(
            f"unknown event type {event_type!r}; known: {sorted(EVENT_SCHEMAS)}"
        )
    label = f"{event_type} event"
    _check_fields(event, spec, label)
    unknown = set(event) - set(spec)
    if unknown:
        raise SchemaError(f"{label}: unknown fields {sorted(unknown)}")
    for mapping_field in ("parts", "grad_norms", "ops", "metrics"):
        if mapping_field in event:
            _check_numeric_mapping(event[mapping_field], f"{label}.{mapping_field}")
    if event_type == "health":
        if event["status"] not in HEALTH_EVENT_STATUSES:
            raise SchemaError(
                f"{label}: status {event['status']!r} not in {HEALTH_EVENT_STATUSES}"
            )
        for anomaly in event["anomalies"]:
            if not isinstance(anomaly, str):
                raise SchemaError(f"{label}.anomalies: expected str entries, got {anomaly!r}")


def validate_manifest(manifest: dict) -> None:
    """Raise :class:`SchemaError` unless ``manifest`` matches the schema."""
    _check_fields(manifest, MANIFEST_SCHEMA, "manifest")
    if "threads" in manifest:
        _check_fields(manifest["threads"], THREADS_SCHEMA, "manifest.threads")
    if manifest["status"] not in RUN_STATUSES:
        raise SchemaError(
            f"manifest: status {manifest['status']!r} not in {RUN_STATUSES}"
        )

"""Shared exception types, and the checks every input document reader uses."""
from __future__ import annotations

import json
import sys


class ValidationError(ValueError):
    """An input document or argument violates the schema or an invariant."""


class SolveError(RuntimeError):
    """A solver returned a non-optimal status where an optimum was required."""


def require(cond: bool, msg: str) -> None:
    """Raise ``ValidationError(msg)`` unless ``cond`` holds.  The caller builds
    ``msg`` either way, so a check run once per item of a long list, or whose
    message holds a large repr, raises by itself instead."""
    if not cond:
        raise ValidationError(msg)


def is_number(value) -> bool:
    """A finite number a float can hold: an ``int`` or ``float``, never a ``bool``."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # false for nan, inf and huge ints


def is_index(value, n) -> bool:
    """An ``int``, never a ``bool``, with ``0 <= value < n``."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n


def json_object(text: str, what: str) -> dict:
    """Decode ``text`` as a JSON document that must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed {what}: {e}") from e
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {doc!r:.60}")
    return doc


def list_of(doc: dict, key: str, ok, what: str) -> list:
    """``doc[key]``, which must be a list whose every item passes ``ok``."""
    items = doc.get(key)
    require(isinstance(items, list) and all(map(ok, items)), f"{key!r} must be a list of {what}")
    return items

"""Disk cache for flow-time integrals and the other records of ln Psi.

Keys are canonical reprs of parameter tuples hashed with sha256; values are
small JSON records (complex scalars split into re/im).  Identical keys from
identical configurations reproduce bit-identical results, so cached and cold
runs agree exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

__all__ = ["SolveCache", "resolve_cache_dir"]

# Bump whenever an algorithm change moves the bits of a cached value, so
# records computed before the change are misses rather than served.
_VERSION = "weldfcs-cache-16"


def resolve_cache_dir(explicit: str | None = None) -> str | None:
    """CLI flag wins, then the WELDFCS_CACHE environment variable."""
    if explicit:
        return explicit
    return os.environ.get("WELDFCS_CACHE") or None


def _canonical(obj) -> str:
    # exact-type fast paths for what keys are made of; every other type
    # (bool, None, complex, numpy scalars, subclasses) takes the general
    # branches below, which give the same strings for these types
    kind = type(obj)
    if kind is float or kind is int or kind is str:
        return repr(obj)
    if kind is tuple or kind is list or isinstance(obj, (tuple, list)):
        return "(" + ",".join([_canonical(x) for x in obj]) + ")"
    if isinstance(obj, np.generic):
        # a numpy scalar keys as the Python number of equal value
        obj = obj.item()
    if isinstance(obj, complex):
        return f"({obj.real!r}+{obj.imag!r}j)"
    return repr(obj)


def _encode(value):
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    return value


def _decode(value):
    if isinstance(value, dict) and "__complex__" in value:
        re, im = value["__complex__"]
        return complex(re, im)
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode(v) for v in value["__tuple__"])
    return value


class SolveCache:
    """Scalar-record cache keyed by canonical parameter tuples."""

    def __init__(self, directory: str | os.PathLike):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key) -> str:
        # a plain string: pathlib interns every part of each Path it builds,
        # and that churn grows the interpreter's string table by ~2 MB over
        # a few hundred warm lookups of a run
        digest = hashlib.sha256(_canonical(key).encode()).hexdigest()
        return os.path.join(self.dir, digest[:2], f"{digest}.json")

    def get_scalar(self, key):
        try:
            with open(self._path(key)) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        if record.get("version") != _VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return _decode(record["value"])

    def put_scalar(self, key, value):
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {"version": _VERSION, "key": _canonical(key),
                  "value": _encode(value)}
        # a fresh temp file per write, so concurrent puts of one key never
        # share it; os.replace then publishes each one atomically
        tmp = f"{path[:-len('.json')]}.{os.urandom(8).hex()}.tmp"
        with open(tmp, "x") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)

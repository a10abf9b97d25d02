"""Run-configuration parsing and validation.

A run is a single JSON file with blocks ``profile``, ``theory``, ``numerics``,
``experiment`` and ``io``.  Every resolved value (defaults included) is
echoed into the output metadata so any table can be reproduced from its own
provenance record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .characters import Theory
from .errors import BoxTooSmall, ConfigInvalid
from .fcs import Numerics
from .profile import ProfileValueError, TemperatureProfile, VolumeContext

__all__ = ["RunConfig", "load_config", "config_from_dict", "read_number",
           "read_numbers", "read_positive"]

SCHEMA_VERSION = "weldfcs-config-1"

_PROFILE_KEYS = {f.name for f in fields(TemperatureProfile)} | {"L", "v"}
_THEORY_KEYS = {f.name for f in fields(Theory)}
_NUMERICS_KEYS = {f.name for f in fields(Numerics)}
_IO_KEYS = {"output_dir", "cache_dir", "formats"}


def _require(block: dict, key: str, blockname: str):
    if key not in block:
        raise ConfigInvalid(f"{blockname}.{key}", "missing required key")
    return block[key]


def _block(data: dict, name: str, default: dict | None = None,
           keys: set | None = None) -> dict:
    """``data[name]``, or ``default`` when absent (required when None),
    refused unless it is an object whose keys all lie in ``keys`` (any
    keys when None)."""
    block = data.get(name, default)
    if not isinstance(block, dict):
        raise ConfigInvalid(name, f"missing {name} block" if default is None
                            else f"{name} block must be an object")
    for key in block:
        if keys is not None and key not in keys:
            raise ConfigInvalid(f"{name}.{key}", "unknown key")
    return block


def _is_finite_number(val) -> bool:
    """Finite JSON numbers only: bool is an int subclass but not a number
    here, and an integer too large for a float is not finite."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def read_number(block: dict, key: str, blockname: str,
                default: float | None = None) -> float:
    """``block[key]`` as a float: ``default`` when absent, or required when
    ``default`` is None.  Anything but a finite JSON number raises
    ``ConfigInvalid`` naming the key."""
    val = _require(block, key, blockname) if default is None \
        else block.get(key, default)
    if not _is_finite_number(val):
        raise ConfigInvalid(f"{blockname}.{key}",
                            f"must be a finite number, got {val!r}")
    return float(val)


def read_numbers(block: dict, key: str, blockname: str, default: list) -> list:
    """``block[key]`` as a non-empty list of floats, or ``default`` when
    absent."""
    vals = block.get(key, default)
    if not isinstance(vals, list) or not vals:
        raise ConfigInvalid(f"{blockname}.{key}",
                            f"must be a non-empty list of numbers, got {vals!r}")
    return [read_number({key: v}, key, blockname) for v in vals]


def read_positive(block: dict, key: str, blockname: str,
                  default: float | None = None) -> float:
    """``read_number``, refusing a value <= 0."""
    val = read_number(block, key, blockname, default)
    if val <= 0:
        raise ConfigInvalid(f"{blockname}.{key}", f"must be positive, got {val!r}")
    return val


@dataclass
class RunConfig:
    profile: TemperatureProfile
    v: float
    box: VolumeContext | None       # None when profile.L is absent
    theory: Theory
    numerics: Numerics
    experiment: dict
    output_dir: str = "."
    cache_dir: str | None = None
    formats: tuple = ("json", "csv")

    def context(self) -> VolumeContext:
        if self.box is None:
            raise ConfigInvalid("profile.L", "finite-volume command needs L")
        return self.box

    def metadata(self) -> dict:
        L = None if self.box is None else self.box.L
        return {
            "schema": SCHEMA_VERSION,
            "profile": {**asdict(self.profile), "L": L, "v": self.v},
            "theory": asdict(self.theory),
            "numerics": asdict(self.numerics),
            "experiment": self.experiment,
        }


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigInvalid("<root>", "configuration must be a JSON object")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigInvalid("schema", f"expected {SCHEMA_VERSION}")

    pblock = _block(data, "profile", keys=_PROFILE_KEYS)
    beta_left = read_positive(pblock, "beta_left", "profile")
    beta_right = read_positive(pblock, "beta_right", "profile")
    half_width = read_positive(pblock, "half_width", "profile")
    center = read_number(pblock, "center", "profile", 0.0)
    shape = pblock.get("shape", "bump")
    sharpness = read_positive(pblock, "sharpness", "profile", 4.0)
    v = read_positive(pblock, "v", "profile")
    try:
        profile = TemperatureProfile(beta_left, beta_right, center, half_width,
                                     shape, sharpness)
    except ProfileValueError as exc:
        raise ConfigInvalid(f"profile.{exc.key}", str(exc)) from exc
    try:
        box = None if pblock.get("L") is None else VolumeContext(
            profile, read_positive(pblock, "L", "profile"), v)
    except BoxTooSmall as exc:
        raise ConfigInvalid("profile.half_width", str(exc)) from exc

    tblock = _block(data, "theory", {"model": "central_charge_only", "c": 1.0},
                    _THEORY_KEYS)
    c = read_positive(tblock, "c", "theory", 1.0)
    radius = tblock.get("radius")
    if radius is not None:
        radius = read_positive(tblock, "radius", "theory")
    try:
        theory = Theory(tblock.get("model", "central_charge_only"), c, radius)
    except ValueError as exc:
        raise ConfigInvalid("theory.model", str(exc)) from exc

    nblock = _block(data, "numerics", {}, _NUMERICS_KEYS)
    int_fields = {"n_modes", "s_nodes", "s_panels"}
    for key, val in nblock.items():
        if not _is_finite_number(val) or val <= 0:
            raise ConfigInvalid(f"numerics.{key}",
                                f"must be a positive finite number, got {val!r}")
        if key in int_fields and not isinstance(val, int):
            raise ConfigInvalid(f"numerics.{key}",
                                f"must be an integer, got {val!r}")
    try:
        numerics = Numerics(**{k: (int(v) if k in int_fields else float(v))
                               for k, v in nblock.items()})
    except TypeError as exc:
        raise ConfigInvalid("numerics", str(exc)) from exc

    eblock = _block(data, "experiment", {})

    ioblock = _block(data, "io", {}, _IO_KEYS)
    formats = ioblock.get("formats", ["json", "csv"])
    if not isinstance(formats, list):
        raise ConfigInvalid("io.formats", f"must be a list, got {formats!r}")
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigInvalid("io.formats", f"unknown format {fmt!r}")
    for key, types in (("output_dir", str), ("cache_dir", (str, type(None)))):
        if not isinstance(ioblock.get(key, ""), types):
            raise ConfigInvalid(f"io.{key}",
                                f"must be a string, got {ioblock[key]!r}")

    return RunConfig(profile=profile, v=v, box=box, theory=theory,
                     numerics=numerics, experiment=eblock,
                     output_dir=ioblock.get("output_dir", "."),
                     cache_dir=ioblock.get("cache_dir"),
                     formats=tuple(formats))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigInvalid("<file>", f"cannot open {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("<file>", f"invalid JSON: {exc}") from exc
    return config_from_dict(data)

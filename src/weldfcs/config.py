"""Run-configuration parsing and validation.

A run is a single JSON file with blocks ``profile``, ``theory``, ``numerics``,
``experiment`` and ``io``.  Every resolved value (defaults included) is
echoed into the output metadata so any table can be reproduced from its own
provenance record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .characters import Theory
from .errors import BoxTooSmall, ConfigInvalid
from .fcs import Numerics
from .profile import TemperatureProfile, VolumeContext

__all__ = ["RunConfig", "load_config", "config_from_dict", "read_number",
           "read_numbers"]

SCHEMA_VERSION = "weldfcs-config-1"

_PROFILE_KEYS = {"beta_left", "beta_right", "center", "half_width", "shape",
                 "sharpness", "L", "v"}
_THEORY_KEYS = {"model", "c", "radius"}
_IO_KEYS = {"output_dir", "cache_dir", "formats"}


def _require(block: dict, key: str, blockname: str):
    if key not in block:
        raise ConfigInvalid(f"{blockname}.{key}", "missing required key")
    return block[key]


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


def _positive(block: dict, key: str, blockname: str,
              default: float | None = None) -> float:
    val = read_number(block, key, blockname, default)
    if val <= 0:
        raise ConfigInvalid(f"{blockname}.{key}", f"must be positive, got {val!r}")
    return val


@dataclass
class RunConfig:
    profile: TemperatureProfile
    v: float
    L: float | None
    theory: Theory
    numerics: Numerics
    experiment: dict
    output_dir: str = "."
    cache_dir: str | None = None
    formats: tuple = ("json", "csv")
    raw: dict = field(default_factory=dict)

    def context(self) -> VolumeContext:
        if self.L is None:
            raise ConfigInvalid("profile.L", "finite-volume command needs L")
        try:
            return VolumeContext(self.profile, self.L, self.v)
        except BoxTooSmall as exc:
            raise ConfigInvalid("profile.half_width", str(exc)) from exc

    def metadata(self) -> dict:
        meta = {
            "schema": SCHEMA_VERSION,
            "profile": {
                "beta_left": self.profile.beta_left,
                "beta_right": self.profile.beta_right,
                "center": self.profile.center,
                "half_width": self.profile.half_width,
                "shape": self.profile.shape,
                "sharpness": self.profile.sharpness,
                "L": self.L,
                "v": self.v,
            },
            "theory": {"model": self.theory.model, "c": self.theory.c,
                       "radius": self.theory.radius},
            "numerics": asdict(self.numerics),
            "experiment": self.experiment,
        }
        return meta


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigInvalid("<root>", "configuration must be a JSON object")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigInvalid("schema", f"expected {SCHEMA_VERSION}")

    pblock = data.get("profile")
    if not isinstance(pblock, dict):
        raise ConfigInvalid("profile", "missing profile block")
    for key in pblock:
        if key not in _PROFILE_KEYS:
            raise ConfigInvalid(f"profile.{key}", "unknown key")
    beta_left = _positive(pblock, "beta_left", "profile")
    beta_right = _positive(pblock, "beta_right", "profile")
    half_width = _positive(pblock, "half_width", "profile")
    center = read_number(pblock, "center", "profile", 0.0)
    shape = pblock.get("shape", "bump")
    sharpness = _positive(pblock, "sharpness", "profile", 4.0)
    v = _positive(pblock, "v", "profile")
    L = pblock.get("L")
    if L is not None:
        L = _positive(pblock, "L", "profile")
        if L / 4.0 < abs(center) + half_width:
            raise ConfigInvalid(
                "profile.half_width",
                f"kink support exceeds [-L/4, L/4]: |center|+half_width="
                f"{abs(center) + half_width} > L/4={L / 4.0}")
    try:
        profile = TemperatureProfile(beta_left, beta_right, center, half_width,
                                     shape, sharpness)
    except ValueError as exc:
        raise ConfigInvalid("profile.shape", str(exc)) from exc

    tblock = data.get("theory", {"model": "central_charge_only", "c": 1.0})
    if not isinstance(tblock, dict):
        raise ConfigInvalid("theory", "theory block must be an object")
    for key in tblock:
        if key not in _THEORY_KEYS:
            raise ConfigInvalid(f"theory.{key}", "unknown key")
    c = _positive(tblock, "c", "theory", 1.0)
    radius = tblock.get("radius")
    if radius is not None:
        radius = _positive(tblock, "radius", "theory")
    try:
        theory = Theory(tblock.get("model", "central_charge_only"), c, radius)
    except ValueError as exc:
        raise ConfigInvalid("theory.model", str(exc)) from exc

    nblock = data.get("numerics", {})
    if not isinstance(nblock, dict):
        raise ConfigInvalid("numerics", "numerics block must be an object")
    valid = {f.name for f in fields(Numerics)}
    for key in nblock:
        if key not in valid:
            raise ConfigInvalid(f"numerics.{key}", "unknown key")
    int_fields = {"n_modes", "fine_factor", "s_nodes", "s_panels"}
    for key, val in nblock.items():
        if not _is_finite_number(val) or val <= 0:
            raise ConfigInvalid(f"numerics.{key}",
                                f"must be a positive finite number, got {val!r}")
        if key in int_fields and not isinstance(val, int):
            raise ConfigInvalid(f"numerics.{key}",
                                f"must be an integer, got {val!r}")
    fine_factor = nblock.get("fine_factor", 4)
    if fine_factor < 4:   # the torus assembly grid needs M >= 4 N
        raise ConfigInvalid("numerics.fine_factor",
                            f"must be at least 4, got {fine_factor!r}")
    try:
        numerics = Numerics(**{k: (int(v) if k in int_fields else float(v))
                               for k, v in nblock.items()})
    except TypeError as exc:
        raise ConfigInvalid("numerics", str(exc)) from exc

    eblock = data.get("experiment", {})
    if not isinstance(eblock, dict):
        raise ConfigInvalid("experiment", "experiment block must be an object")

    ioblock = data.get("io", {})
    if not isinstance(ioblock, dict):
        raise ConfigInvalid("io", "io block must be an object")
    for key in ioblock:
        if key not in _IO_KEYS:
            raise ConfigInvalid(f"io.{key}", "unknown key")
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

    return RunConfig(profile=profile, v=v, L=L, theory=theory,
                     numerics=numerics, experiment=eblock,
                     output_dir=ioblock.get("output_dir", "."),
                     cache_dir=ioblock.get("cache_dir"),
                     formats=tuple(formats), raw=data)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigInvalid("<file>", f"cannot open {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("<file>", f"invalid JSON: {exc}") from exc
    return config_from_dict(data)

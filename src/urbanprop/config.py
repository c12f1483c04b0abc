"""Scenario configuration and route ingestion."""

import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataShapeError, RouteError
from .link import PL_CAP_DB


@dataclass(frozen=True, eq=False)
class Route:
    """Receiver route from ``load_route``: read-only float64 timestamps ``t``
    (P,), in seconds and strictly increasing, and positions ``xyz`` (P, 3)."""

    t: np.ndarray
    xyz: np.ndarray


def _read_only(values):
    """A float64 array copy of ``values`` that cannot be written to."""
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class ScenarioConfig:
    map_path: str = None
    route_path: str = None
    tx: np.ndarray = field(default_factory=lambda: _read_only([0.0, 0.0, 2.0]))
    freq_hz: float = 5.8e9
    p_t_watts: float = 1.0
    g_r_linear: float = 1.0
    eps_r: float = 6.0
    polarization: str = "V"
    corridor_width_m: float = 100.0
    pl_cap_db: float = PL_CAP_DB
    output_dir: str = "."

    def __post_init__(self):
        tx = self.tx.tolist() if isinstance(self.tx, np.ndarray) else self.tx
        if not (isinstance(tx, (list, tuple)) and len(tx) == 3
                and all(map(_is_number, tx)) and all(map(math.isfinite, tx))):
            raise ConfigError(f"config field 'tx' must be [x, y, z] of finite "
                              f"numbers, got {self.tx!r}")
        self.tx = _read_only(tx)
        for name in ("map_path", "route_path", "output_dir"):
            v = getattr(self, name)
            allowed = str if name == "output_dir" else (str, type(None))
            if not isinstance(v, allowed):
                raise ConfigError(f"config field '{name}' must be a string, "
                                  f"got {v!r}")
        for name in ("freq_hz", "p_t_watts", "g_r_linear", "corridor_width_m",
                     "pl_cap_db", "eps_r"):
            v = getattr(self, name)
            if not _is_number(v):
                raise ConfigError(f"config field '{name}' must be a number, "
                                  f"got {v!r}")
            if name != "eps_r" and not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"config field '{name}' must be positive, got {v}")
        if self.polarization not in ("H", "V"):
            raise ConfigError("config: polarization must be 'H' or 'V'")
        if not 1.0 < self.eps_r < math.inf:
            raise ConfigError("config: eps_r must be finite and exceed 1")

    def defaults_dump(self):
        d = asdict(self)
        d["tx"] = self.tx.tolist()
        return d


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, not UTF-8, or an over-long integer
        raise ConfigError(f"malformed JSON in config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    return ScenarioConfig(**raw)


def _is_number(v):
    """True for a JSON number a float can hold: a float, or an int within
    the float range (not a bool)."""
    return isinstance(v, float) or (type(v) is int
                                    and abs(v) <= sys.float_info.max)


def csv_table(path, what, error=ConfigError, row_error=DataShapeError):
    """Header names, stripped of surrounding blanks, and row dicts of the
    CSV ``what`` at ``path``, blank lines skipped; raises ``error`` if it
    cannot be read, ``row_error`` for the first row whose cell count is not
    the header's."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            names = [c.strip() for c in next(reader, ())]
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise row_error(f"bad {what} row {i}: {len(row)} cells, header "
                            f"has {len(names)}")
    return names, [dict(zip(names, row)) for row in rows]


def load_route(path):
    """Route CSV with header ``t,x,y,z``, finite values and strictly
    increasing timestamps, as a ``Route`` of read-only arrays."""
    names, rows = csv_table(path, "route", RouteError, RouteError)
    if names != ["t", "x", "y", "z"]:
        raise RouteError(f"route {path} must have header 't,x,y,z'")
    table = []
    for i, row in enumerate(rows):
        try:
            t, *xyz = (float(row[c]) for c in "txyz")
        except (TypeError, ValueError) as exc:
            raise RouteError(f"bad route row {i}: {exc}") from exc
        if not math.isfinite(t):
            raise RouteError(f"bad route row {i}: non-finite timestamp {t}")
        if not all(map(math.isfinite, xyz)):
            raise RouteError(f"bad route row {i}: non-finite coordinate "
                             f"in {xyz}")
        table.append((t, *xyz))
    if not table:
        raise RouteError("route must contain at least one point")
    table = np.array(table)
    late = np.flatnonzero(np.diff(table[:, 0]) <= 0.0)
    if len(late):
        raise RouteError(
            f"route timestamps must be strictly increasing (row {late[0] + 1})")
    return Route(_read_only(table[:, 0]), _read_only(table[:, 1:]))

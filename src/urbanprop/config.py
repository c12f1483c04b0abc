"""Scenario configuration and route ingestion."""

import csv
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, NumericalDomainError, RouteError
from .geometry import Point3
from .link import C_LIGHT, MaterialConfig


@dataclass(frozen=True)
class RoutePoint:
    t: float           # seconds
    position: Point3


@dataclass
class ScenarioConfig:
    map_path: str = None
    route_path: str = None
    tx: Point3 = field(default_factory=lambda: Point3(0.0, 0.0, 2.0))
    freq_hz: float = 5.8e9
    p_t_watts: float = 1.0
    g_r_linear: float = 1.0
    eps_r: float = 6.0
    polarization: str = "V"
    corridor_width_m: float = 100.0
    pl_cap_db: float = 300.0
    output_dir: str = "."

    def __post_init__(self):
        for name in ("freq_hz", "p_t_watts", "g_r_linear", "corridor_width_m",
                     "pl_cap_db"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigError(f"config field '{name}' must be positive, got {v}")
        try:
            self.material      # MaterialConfig checks eps_r and polarization
        except NumericalDomainError as exc:
            raise ConfigError(f"config: {exc}") from exc

    @property
    def wavenumber(self):
        return 2.0 * np.pi * self.freq_hz / C_LIGHT

    @property
    def material(self):
        return MaterialConfig(self.eps_r, self.polarization)

    def defaults_dump(self):
        d = asdict(self)
        d["tx"] = [self.tx.x, self.tx.y, self.tx.z]
        return d


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw):
    known = set(ScenarioConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    kwargs = dict(raw)
    if "tx" in kwargs:
        tx = kwargs["tx"]
        try:
            kwargs["tx"] = Point3(float(tx[0]), float(tx[1]), float(tx[2]))
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"config field 'tx' must be [x, y, z]: {exc}") from exc
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_route(path):
    """Route CSV with header ``t,x,y,z``; timestamps strictly increasing."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["t", "x", "y", "z"]:
                raise RouteError(f"route {path} must have header 't,x,y,z'")
            points = []
            for i, row in enumerate(reader):
                try:
                    points.append(RoutePoint(
                        float(row["t"]),
                        Point3(float(row["x"]), float(row["y"]), float(row["z"]))))
                except (TypeError, ValueError) as exc:
                    raise RouteError(f"bad route row {i}: {exc}") from exc
    except OSError as exc:
        raise RouteError(f"cannot read route file {path}: {exc}") from exc
    if not points:
        raise RouteError("route must contain at least one point")
    for i in range(1, len(points)):
        if points[i].t <= points[i - 1].t:
            raise RouteError(
                f"route timestamps must be strictly increasing (row {i})")
    return points

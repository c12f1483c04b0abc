"""Command-line interface: scenario ingestion and deterministic emission.

Subcommands: ``identify``, ``predict``, ``doppler``, ``compare``,
``print-defaults``.  Exit codes: 0 success, 2 input/config error, 3
data-shape error, 4 numerical-domain error.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .config import csv_table, load_config, load_route, ScenarioConfig
from .doppler import check_spread_range, route_doppler, route_velocities
from .errors import ConfigError, DataShapeError, NumericalDomainError, UrbanPropError
from .geometry import load_map
from .metrics import empirical_cdf, ks_distance, rmse
from .pipeline import BLOCK, POOL_BLOCKS, pool_width, predict_route

MODEL_COLUMNS = ("pl_model_db", "pl_simplified_db", "pl_gpp_db",
                 "pl_free_space_db")


def _fmt(v):
    return f"{v:.10g}"


def _make_output_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def _open_output(path):
    """``path`` opened for writing the command's text output."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _predict(args, check_route=None):
    """Config, route and ``RouteResult`` of a scenario command; its output
    directory is made once ``check_route(cfg, route)`` passes."""
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = load_config(args.config)
    if args.output:
        cfg.output_dir = args.output
    if cfg.map_path is None or cfg.route_path is None:
        raise ConfigError("config must set 'map_path' and 'route_path'")
    gmap = load_map(cfg.map_path)
    route = load_route(cfg.route_path)
    if check_route is not None:
        check_route(cfg, route)
    _make_output_dir(cfg.output_dir)
    ran, bound = pool_width(args.workers, len(route.t))
    if bound is not None:
        print(f"warning: {args.workers} workers asked for, {ran} ran: no "
              f"more than {bound}", file=sys.stderr)
    return cfg, route, predict_route(cfg, gmap, route, workers=args.workers)


def _write_csv(path, columns):
    """Write ``columns`` (header -> values) as CSV; floats through ``_fmt``."""
    cells = [[_fmt(v) if isinstance(v, float) else v for v in values]
             for values in columns.values()]
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def run_identify(args):
    cfg, route, res = _predict(args)
    path = os.path.join(cfg.output_dir, "identify.jsonl")
    with _open_output(path) as fh:
        for i, (los, bp, sides, visible) in enumerate(zip(
                res.los.tolist(), res.breakpoint, res.sides, res.visible)):
            rec = {"index": i, "los": los,
                   "bp": None if los else bp.tolist(),
                   "sides": sides, "visible": visible}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def run_predict(args):
    cfg, route, res = _predict(args)
    path = os.path.join(cfg.output_dir, "predict.csv")
    x, y, z = route.xyz.T
    _write_csv(path, {
        "index": range(len(x)), "x": x, "y": y, "z": z,
        "los": res.los.astype(int), "pl_model_db": res.pl_model_db,
        "pl_free_space_db": res.pl_free_space_db, "n_stages": res.n_stages,
        "e_abs": np.hypot(res.e_total.real, res.e_total.imag),
        "e_arg": np.angle(res.e_total),
        "pl_simplified_db": res.pl_simplified_db, "pl_gpp_db": res.pl_gpp_db})
    return path


def run_doppler(args):
    cfg, route, res = _predict(args, check_route=lambda cfg, route: (
        check_spread_range(route_velocities(route), cfg.freq_hz)))
    speed, _shifts, power, mean, spread, sigma_gpp = route_doppler(
        cfg, route, res)
    path = os.path.join(cfg.output_dir, "doppler.csv")
    _write_csv(path, {
        "index": range(len(speed)), "x": route.xyz[:, 0], "y": route.xyz[:, 1],
        "speed_mps": speed, "n_paths": np.count_nonzero(power[:, 0], axis=1),
        "f_mean_hz": mean[:, 0], "sigma_d_hz": spread[:, 0],
        "sigma_d_3gpp_hz": sigma_gpp, "sigma_d_simplified_hz": spread[:, 1]})
    return path


def _read_table(path, what):
    """Header and rows of the CSV ``what`` at ``path``, whose ``index``
    column, where it has one, must read 0, 1, ...: rows pair by position."""
    names, rows = csv_table(path, what)
    for i, row in enumerate(rows if "index" in names else ()):
        if (row["index"] or "").strip() != str(i):
            raise DataShapeError(
                f"bad {what} row {i}: index {row['index']!r}, expected {i}")
    return names, rows


def _finite_column(cells, what):
    """The CSV ``cells`` as floats; DataShapeError naming the first row that
    is missing, not a number or not finite."""
    values = []
    for i, cell in enumerate(cells):
        try:
            v = float(cell)
        except (TypeError, ValueError) as exc:
            raise DataShapeError(f"bad {what} row {i}: {exc}") from exc
        if not math.isfinite(v):
            raise DataShapeError(f"bad {what} row {i}: non-finite value {v}")
        values.append(v)
    return values


def run_compare(args):
    if not args.reference or not args.predictions:
        raise ConfigError("compare requires --reference and --predictions")
    names, rows = _read_table(args.reference, "reference")
    if names != ["index", "value"]:
        raise DataShapeError(
            f"reference {args.reference} must have header 'index,value'")
    reference = _finite_column([row["value"] for row in rows], "reference")
    names, rows = _read_table(args.predictions, "predictions")
    models = {col: _finite_column([row[col] for row in rows],
                                  f"predictions column {col}")
              for col in MODEL_COLUMNS if col in names}
    if not models:
        raise DataShapeError(f"no model columns found in {args.predictions}")
    for name, series in sorted(models.items()):
        if len(series) != len(reference):
            raise DataShapeError(
                f"model '{name}' has {len(series)} rows, reference has "
                f"{len(reference)}")
        if not series:
            raise DataShapeError(f"model '{name}' and the reference have no rows")
    out_dir = args.output or "."
    _make_output_dir(out_dir)
    report = {"rmse_per_model": {}, "ks_per_model": {}}
    for name, series in sorted(models.items()):
        report["rmse_per_model"][name] = rmse(reference, series)
        report["ks_per_model"][name] = ks_distance(reference, series)
        _write_cdf(os.path.join(out_dir, f"cdf_{name}.csv"), series)
    _write_cdf(os.path.join(out_dir, "cdf_reference.csv"), reference)
    path = os.path.join(out_dir, "compare.json")
    with _open_output(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_cdf(path, series):
    x, cdf = zip(*empirical_cdf(series))
    _write_csv(path, {"x": x, "cdf": cdf})


def run_print_defaults(args):
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    json.dump(cfg.defaults_dump(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="urbanprop",
        description="Site-specific urban radio propagation simulator")
    parser.add_argument("--config", help="scenario config JSON")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for route evaluation (at "
                        f"least 1); no more run than one per {POOL_BLOCKS} "
                        f"blocks of {BLOCK} positions or one per usable CPU")
    parser.add_argument("--output", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("identify", help="per-position visibility report")
    sub.add_parser("predict", help="per-position path loss CSV")
    sub.add_parser("doppler", help="per-position Doppler CSV")
    cmp_p = sub.add_parser("compare", help="metrics against a reference series")
    cmp_p.add_argument("--reference", help="reference CSV (index,value)")
    cmp_p.add_argument("--predictions", help="model predictions CSV")
    sub.add_parser("print-defaults", help="dump the effective configuration")
    return parser


COMMANDS = {
    "identify": run_identify,
    "predict": run_predict,
    "doppler": run_doppler,
    "compare": run_compare,
    "print-defaults": run_print_defaults,
}

# exit code of each error class, most specific first
EXIT_CODES = ((NumericalDomainError, 4), (DataShapeError, 3), (UrbanPropError, 2))


def main(argv=None):
    """Run one subcommand; print the path of the file it wrote, if any."""
    args = build_parser().parse_args(argv)
    try:
        path = COMMANDS[args.command](args)
    except UrbanPropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    if path is not None:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

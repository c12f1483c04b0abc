"""Command-line interface: scenario ingestion and deterministic emission.

Subcommands: ``identify``, ``predict``, ``doppler``, ``compare``,
``print-defaults``.  Exit codes: 0 success, 2 input/config error, 3
data-shape error, 4 numerical-domain error.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .config import csv_rows, load_config, load_route, ScenarioConfig
from .doppler import route_doppler, route_velocities
from .errors import ConfigError, DataShapeError, NumericalDomainError, UrbanPropError
from .geometry import load_map
from .metrics import empirical_cdf, ks_distance, rmse
from .pipeline import predict_route

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


def _load_scenario(args):
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
    _make_output_dir(cfg.output_dir)
    return cfg, gmap, route


def _write_csv(path, header, rows):
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_identify(args):
    cfg, gmap, route = _load_scenario(args)
    results = predict_route(cfg, gmap, route, workers=args.workers)
    path = os.path.join(cfg.output_dir, "identify.jsonl")
    with _open_output(path) as fh:
        for res in results:
            cls = res.vis.classification
            bp = cls.breakpoint
            rec = {
                "index": res.index,
                "los": cls.los,
                "bp": None if bp is None else bp.tolist(),
                "sides": res.vis.flat_sides(),
                "visible": res.vis.flat_visible(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def run_predict(args):
    cfg, gmap, route = _load_scenario(args)
    results = predict_route(cfg, gmap, route, workers=args.workers)
    path = os.path.join(cfg.output_dir, "predict.csv")
    _write_csv(path, ["index", "x", "y", "z", "los", "pl_model_db",
                      "pl_free_space_db", "n_stages", "e_abs", "e_arg",
                      "pl_simplified_db", "pl_gpp_db"], (
        [res.index, *map(_fmt, res.rx),
         int(res.full.los), _fmt(res.full.pl_db),
         _fmt(res.pl_friis_db), res.full.n_stages,
         _fmt(abs(res.full.e_total)),
         _fmt(float(np.angle(res.full.e_total))),
         _fmt(res.simplified.pl_db), _fmt(res.pl_gpp_db)]
        for res in results))
    return path


def run_doppler(args):
    cfg, gmap, route = _load_scenario(args)
    results = predict_route(cfg, gmap, route, workers=args.workers)
    samples = route_doppler(cfg, route, results)
    vels = route_velocities(route)
    path = os.path.join(cfg.output_dir, "doppler.csv")
    _write_csv(path, ["index", "x", "y", "speed_mps", "n_paths", "f_mean_hz",
                      "sigma_d_hz", "sigma_d_3gpp_hz",
                      "sigma_d_simplified_hz"], (
        [i, _fmt(xyz[0]), _fmt(xyz[1]),
         _fmt(float(np.linalg.norm(v))), len(full.shifts),
         _fmt(full.weighted_mean), _fmt(full.spread), _fmt(sigma_gpp),
         _fmt(simp.spread)]
        for i, (xyz, v, (full, simp, sigma_gpp))
        in enumerate(zip(route.xyz, vels, samples))))
    return path


def _read_reference(path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv_rows(fh)
            if reader.fieldnames != ["index", "value"]:
                raise DataShapeError(
                    f"reference {path} must have header 'index,value'")
            return [float(row["value"]) for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read reference file {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataShapeError(f"bad reference value: {exc}") from exc


def _read_predictions(path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv_rows(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read predictions file {path}: {exc}") from exc
    cols = {}
    for col in MODEL_COLUMNS:
        if rows and col in rows[0]:
            try:
                cols[col] = [float(r[col]) for r in rows]
            except (TypeError, ValueError) as exc:
                raise DataShapeError(f"bad value in column {col}: {exc}") from exc
    if not cols:
        raise DataShapeError(f"no model columns found in {path}")
    return cols


def run_compare(args):
    if not args.reference or not args.predictions:
        raise ConfigError("compare requires --reference and --predictions")
    reference = _read_reference(args.reference)
    models = _read_predictions(args.predictions)
    out_dir = args.output or "."
    _make_output_dir(out_dir)
    report = {"rmse_per_model": {}, "ks_per_model": {}}
    for name, series in sorted(models.items()):
        if len(series) != len(reference):
            raise DataShapeError(
                f"model '{name}' has {len(series)} rows, reference has "
                f"{len(reference)}")
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
    _write_csv(path, ["x", "cdf"],
               ([_fmt(x), _fmt(f)] for x, f in empirical_cdf(series)))


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
                        help="worker processes for route evaluation "
                        "(at least 1)")
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

"""Command line front end: geometry | simulate | estimate | diagnose."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import diagnostics, geometry
from .basis import BasisSpec
from .config import fixed_m, load_config, validate_config
from .errors import AddselError, ConfigError
from .estimate import rate_experiment
from .simulate import density_from_config, model_from_config, run_trials

ARTIFACT_VERSION = 1

def build_parser():
    parser = argparse.ArgumentParser(
        prog="addsel",
        description="Projection-norm variable selection for sparse additive models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("geometry", "population geometry report (angles, eigenvalue spread, norms)"),
        ("simulate", "seeded selection trials; JSON lines plus a summary record"),
        ("estimate", "split-sample component estimation risk across sample sizes"),
        ("diagnose", "empirical design diagnostics and selection error bounds"),
    ):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted so that old configs run; has no effect")
    return parser


def _manifest(args, cfg):
    # no output path or timings here: artifacts must be byte-identical for a
    # fixed seed regardless of where they are written or how long runs take
    return {
        "artifact_version": ARTIFACT_VERSION,
        "command": args.command,
        "config": args.config,
        "seed": cfg["seed"],
    }


def cmd_geometry(cfg, emit):
    spec = BasisSpec.create(cfg["q"], fixed_m(cfg, "geometry"))
    report = geometry.geometry_report(spec, density_from_config(cfg), cfg["qstar"],
                                      model=model_from_config(cfg))
    emit(asdict(report))


def cmd_simulate(cfg, emit):
    records, summary = run_trials(cfg)
    for rec in records:
        emit(rec)
    emit({"summary": summary})


def cmd_estimate(cfg, emit):
    emit(rate_experiment(cfg))


def cmd_diagnose(cfg, emit):
    emit(diagnostics.diagnose(cfg))


COMMANDS = {"geometry": cmd_geometry, "simulate": cmd_simulate,
            "estimate": cmd_estimate, "diagnose": cmd_diagnose}


def _plain(o):
    """``o`` as plain JSON values: numpy scalars and arrays become Python
    ones, and every non-finite float is written as None (strict JSON)."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, np.ndarray):
        return _plain(o.tolist())
    if isinstance(o, (list, tuple, set)):
        return [_plain(v) for v in o]
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, (float, np.floating)):
        return float(o) if np.isfinite(o) else None
    return o


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
            validate_config(cfg)
        try:
            out = open(args.out, "w") if args.out else sys.stdout
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.out}: {exc}") from exc
    except ConfigError as exc:
        json.dump({"error": {"type": "ConfigError", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2

    def emit(obj):
        json.dump(_plain(obj), out, sort_keys=True)
        out.write("\n")

    try:
        emit(_manifest(args, cfg))
        COMMANDS[args.command](cfg, emit)
        return 0
    except ConfigError as exc:
        emit({"error": {"type": "ConfigError", "message": str(exc)}})
        return 2
    except AddselError as exc:
        emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())

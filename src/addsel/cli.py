"""Command line front end: geometry | simulate | estimate | diagnose."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import diagnostics, geometry
from .basis import BasisSpec
from .config import fixed_m, load_config
from .errors import AddselError, ConfigError
from .estimate import rate_experiment
from .simulate import density_from_config, model_from_config, run_trials

ARTIFACT_VERSION = 1

log = logging.getLogger("addsel")


def _setup_logging():
    level = os.environ.get("ADDSEL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"ADDSEL_LOG must be one of error|info|debug, got {level!r}")
    logging.basicConfig(level=levels[level], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


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


def cmd_geometry(args, cfg, emit):
    spec = BasisSpec.create(cfg["q"], fixed_m(cfg, "geometry"), centered=True)
    report = geometry.geometry_report(spec, density_from_config(cfg), cfg["qstar"],
                                      model=model_from_config(cfg))
    emit(report.to_dict())


def cmd_simulate(args, cfg, emit):
    records, summary = run_trials(cfg)
    for rec in records:
        emit(rec)
    emit({"summary": summary})


def cmd_estimate(args, cfg, emit):
    emit(rate_experiment(cfg))


def cmd_diagnose(args, cfg, emit):
    emit(diagnostics.diagnose(cfg))


COMMANDS = {"geometry": cmd_geometry, "simulate": cmd_simulate,
            "estimate": cmd_estimate, "diagnose": cmd_diagnose}


def _finite(o):
    """``o`` with every non-finite float, Python or numpy, replaced by None."""
    if isinstance(o, dict):
        return {k: _finite(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, set)):
        return [_finite(v) for v in o]
    if isinstance(o, np.ndarray):
        return _finite(o.tolist())
    if isinstance(o, (float, np.floating)) and not np.isfinite(o):
        return None
    return o


class _Encoder(json.JSONEncoder):
    """numpy-aware strict JSON: NaN and infinities are written as null."""

    def iterencode(self, o, _one_shot=False):
        return super().iterencode(_finite(o), _one_shot)

    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        return super().default(o)


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
    except ConfigError as exc:
        json.dump({"error": {"type": "ConfigError", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2

    out = open(args.out, "w") if args.out else sys.stdout

    def emit(obj):
        json.dump(obj, out, cls=_Encoder, sort_keys=True)
        out.write("\n")

    try:
        emit(_manifest(args, cfg))
        log.info("running %s with config %s", args.command, args.config)
        COMMANDS[args.command](args, cfg, emit)
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

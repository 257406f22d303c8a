"""Command line front end: geometry | simulate | estimate | diagnose."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import diagnostics, geometry
from .basis import BasisSpec, build_design_blocks, full_block_gram
from .config import load_config
from .errors import AddselError, ConfigError
from .estimate import rate_experiment
from .simulate import DesignLaw, gen_model, make_density, run_trials

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
        p.add_argument("--threads", type=int, default=None, help="override config threads")
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


def _fixed_m(cfg):
    rule = cfg["m_rule"]
    return int(rule.split(":", 1)[1]) if rule.startswith("fixed:") else 5


def _model_and_density(cfg):
    law = DesignLaw(kind=cfg["design.kind"], r=cfg["design.r"],
                    table=cfg.get("design.table"))
    density = make_density(law, cfg["q"])
    model = gen_model(cfg["q"], cfg["s"], cfg["alpha"], cfg["K"], cfg["kappa1"],
                      tail_fraction=cfg["tail_fraction"], seed=cfg["seed"],
                      sigma=cfg["sigma"])
    return model, density


def cmd_geometry(args, cfg, emit):
    model, density = _model_and_density(cfg)
    spec = BasisSpec.create(cfg["q"], _fixed_m(cfg), centered=True)
    report = geometry.geometry_report(spec, density, cfg["qstar"], model=model)
    emit(report.to_dict())


def cmd_simulate(args, cfg, emit):
    records, summary = run_trials(cfg)
    for rec in records:
        emit(rec)
    emit({"summary": summary})


def cmd_estimate(args, cfg, emit):
    emit(rate_experiment(cfg))


def cmd_diagnose(args, cfg, emit):
    model, density = _model_and_density(cfg)
    spec = BasisSpec.create(cfg["q"], _fixed_m(cfg), centered=True)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    X = density.sample(cfg["n"], cfg["q"], rng)
    blocks = build_design_blocks(X, spec)
    qstar = cfg["qstar"]
    subsets = None
    # the candidate sets J, the empty one included, that RIP and event E range over
    n_subsets = geometry.count_subsets_up_to(cfg["q"], qstar, include_empty=True)
    if geometry.count_subsets_up_to(cfg["q"], qstar) > 20000:
        subsets = diagnostics.sample_subsets(cfg["q"], qstar, 2000, seed=cfg["seed"])
        n_subsets = len(subsets)
    delta_hat = diagnostics.rip_constant(blocks, qstar, J0=model.J0, subsets=subsets)
    G_pop = None
    if geometry.population_gram_is_identity(spec, density):
        rho = 0.0
    else:
        G_pop, slices = full_block_gram(spec, density)
        # the first k blocks hold every pair rho looks at (all q when not exchangeable)
        k = geometry.representative_spec(spec, density, qstar).q
        end = slices[k - 1].stop
        rho = geometry.rho_from_gram(G_pop[:end, :end], slices[:k], qstar)
    kappa, kappa_l = geometry.kappa_values(model, density)
    if G_pop is None:
        # P_U = I on every union U = J u J0, so E's normalized Gram is G_emp[U, U]
        # and its largest deviation is the RIP constant over the same unions
        max_dev = delta_hat
    else:
        _, max_dev = diagnostics.event_E_from_grams(
            blocks.full_gram(), G_pop, slices, qstar, model.J0, cfg["delta"], subsets=subsets)
    holds_A = diagnostics.event_A_check(X, model, spec, density, rho, kappa,
                                        cfg["cprime"])
    report = {
        "delta_qstar": delta_hat,
        "event_E_holds": {"delta": cfg["delta"], "holds": bool(max_dev <= cfg["delta"]),
                          "max_deviation": max_dev},
        "subset_collection": {"sampled": subsets is not None, "subsets": n_subsets},
        "event_A_holds": bool(holds_A),
        "rho": rho,
        "kappa": kappa,
        "kappa_l": list(kappa_l),
        "cprime_admissible": diagnostics.check_cprime(cfg["delta"], cfg["cprime"]),
    }
    s = len(model.J0)
    if s and kappa > 0 and diagnostics.check_cprime(cfg["delta"], cfg["cprime"]):
        total, terms = diagnostics.selection_error_bound(
            cfg["n"], cfg["sigma"] ** 2, rho, kappa_l[:s], d_l=[spec.d_l(l) for l in range(1, qstar + 1)],
            s=s, qstar=qstar, q=cfg["q"], delta=cfg["delta"], cprime=cfg["cprime"],
            return_terms=True)
        report["selection_error_bound"] = total
        report["bound_terms"] = terms
    emit(report)


COMMANDS = {"geometry": cmd_geometry, "simulate": cmd_simulate,
            "estimate": cmd_estimate, "diagnose": cmd_diagnose}


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (set, tuple)):
            return list(o)
        return super().default(o)


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.threads is not None:
            cfg["threads"] = args.threads
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

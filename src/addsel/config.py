"""Flat key=value experiment configuration files."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_INT = ("n", "q", "s", "qstar", "trials", "seed", "threads", "target",
        "m_target", "reps")
_FLOAT = ("sigma", "alpha", "K", "kappa1", "design.r", "cprime", "delta",
          "tail_fraction")

DEFAULTS = {
    "n": 200,
    "q": 8,
    "s": 2,
    "qstar": 2,
    "sigma": 0.5,
    "alpha": 2.0,
    "K": 40.0,
    "kappa1": 1.0,
    "design.kind": "independent-uniform",
    "design.r": 0.0,
    "m_rule": "fixed:5",
    "cprime": 0.001,
    "delta": 0.5,
    "trials": 100,
    "seed": 0,
    "threads": 1,
    "target": 0,
    "m_target": 0,
    "n_grid": [512, 1024, 2048, 4096],
    "reps": 10,
    "tail_fraction": 0.0,
    "search": "exhaustive",
}

ALLOWED = set(DEFAULTS) | {"design.table"}


def parse_config(text: str) -> dict:
    """Parse key=value lines (# comments, blank lines allowed) into a config dict."""
    cfg = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ALLOWED:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        cfg[key] = _convert(key, value, lineno)
    _validate(cfg)
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _convert(key, value, lineno):
    try:
        if key in _INT:
            return int(value)
        if key in _FLOAT:
            return float(value)
        if key == "n_grid":
            grid = [int(v) for v in value.split(",") if v.strip()]
            if not grid:
                raise ValueError("empty grid")
            return grid
        if key == "design.table":
            return np.array([float(v) for v in value.split(",") if v.strip()])
        return value
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {value!r} ({exc})") from exc


def _validate(cfg):
    if cfg["q"] < 1 or cfg["n"] < 1:
        raise ConfigError("n and q must be positive")
    if not 0 <= cfg["s"] <= cfg["q"]:
        raise ConfigError(f"need 0 <= s <= q, got s={cfg['s']}, q={cfg['q']}")
    if not 1 <= cfg["qstar"] <= cfg["q"]:
        raise ConfigError(f"need 1 <= qstar <= q, got qstar={cfg['qstar']}")
    if cfg["sigma"] < 0:
        raise ConfigError("sigma must be nonnegative")
    if cfg["design.kind"] not in ("independent-uniform", "gaussian-copula",
                                  "custom-density"):
        raise ConfigError(f"unknown design.kind {cfg['design.kind']!r}")
    if not -1.0 < cfg["design.r"] < 1.0:
        raise ConfigError("design.r must lie in (-1, 1)")
    parse_m_rule(cfg["m_rule"])
    if cfg["search"] not in ("exhaustive", "greedy"):
        raise ConfigError(f"search must be 'exhaustive' or 'greedy', got {cfg['search']!r}")
    if cfg["trials"] < 1 or cfg["reps"] < 1:
        raise ConfigError("trials and reps must be positive")
    if not 0 <= cfg["target"] < cfg["q"]:
        raise ConfigError(f"target must lie in [0, q), got {cfg['target']}")
    if not 0 < cfg["cprime"] < 1 or not 0 <= cfg["delta"] < 1:
        raise ConfigError("need 0 < cprime < 1 and 0 <= delta < 1")


def parse_m_rule(rule: str) -> int | None:
    """Truncation level of ``fixed:<m>`` (m >= 2), or None for ``eq7``."""
    if rule == "eq7":
        return None
    bad = ConfigError(f"m_rule must be 'eq7' or 'fixed:<int>', got {rule!r}")
    if not rule.startswith("fixed:"):
        raise bad
    try:
        m = int(rule.split(":", 1)[1])
    except ValueError:
        raise bad from None
    if m < 2:
        raise ConfigError("fixed truncation level must be >= 2")
    return m


def fixed_m(cfg: dict, command: str) -> int:
    """The config's fixed truncation level; ConfigError naming the command under eq7.

    Only ``simulate`` derives m from eq7; the other commands would otherwise
    run at some default level without saying so.
    """
    m = parse_m_rule(cfg.get("m_rule", DEFAULTS["m_rule"]))
    if m is None:
        raise ConfigError(f"{command} does not support m_rule = eq7 (only simulate "
                          "does); set m_rule = fixed:<m>")
    return m

"""Run-configuration schema: a single JSON document, validated before any
computation starts.  Unknown keys are rejected; every error names the
offending field.  README.md and ``demos/configs/`` show annotated examples.

This module checks what JSON can get wrong: keys, shapes, integers, a bool
posing as a number, a number beyond the float range.  Each range belongs to
one constructor; :func:`validate_config` builds the plan and turns their
``ParameterError`` into a :class:`ConfigError` naming the field::

    gamma, kappa                      EosPolytropic, for every family
    theta, eta                        ForceModel
    dt, t_end                         IntegratorConfig; t_end > 0 ExperimentPlan
    h_mode.value, h_mode.epsilon      select_h and the kernel, at every rung's h
    morse.c_a, .c_r, .l_a, .l_r, .r_cut  MorseInteraction (morse_2d only)
    resolutions, n_snapshots          ExperimentPlan
"""

import json
import sys
from dataclasses import fields

from .forces import MorseInteraction
from .experiments import FAMILIES, ExperimentPlan
from .params import ParameterError

__all__ = ["ConfigError", "load_config", "validate_config", "plan_from_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


_PLAN_NUMBERS = ("gamma", "kappa", "theta", "dt", "t_end", "n_snapshots", "eta")

# The plan's defaults for its numbers, and the config's own for the rest.
_DEFAULTS = {
    **{f.name: f.default for f in fields(ExperimentPlan) if f.name in _PLAN_NUMBERS},
    "h_mode": {"mode": "fixed", "value": 1.0},
    "init": {"mode": "equipartition"},
    "output_dir": "out",
    "workers": 1,
    "seed": 0,
    "verbosity": 1,
    "lp_budget": None,
    "meta": {},
}

_TOP_KEYS = {"family", "resolutions", "morse", *_DEFAULTS}

_MORSE_KEYS = {"c_a", "c_r", "l_a", "l_r", "r_cut"}

_H_KEY = {"fixed": "value", "scaled": "epsilon"}  # h_mode's number, by mode


def load_config(path):
    """Parse and validate a JSON config file; returns the resolved dict."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError("<file>", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("<file>", f"not valid JSON (line {err.lineno}): {err.msg}") from err
    except ValueError as err:  # an integer literal beyond Python's digit limit
        raise ConfigError("<file>", f"cannot parse {path}: {err}") from err
    return validate_config(raw)


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _require_number(field, val):
    if not (_is_int(val) or isinstance(val, float)):
        raise ConfigError(field, f"expected a number, got {val!r}")
    # Python's json reads NaN, Infinity and integers beyond the float range
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(field, f"must be finite, got {val!r}")


def _field(name, cfg):
    """The config field that feeds the constructor parameter ``name``."""
    if name == "h":
        return "h_mode." + _H_KEY[cfg["h_mode"]["mode"]]
    return "morse." + name if name in _MORSE_KEYS else {"k_eos": "kappa"}.get(name, name)


def validate_config(raw):
    """Validate a raw dict against the schema; returns it with defaults filled."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    if "family" not in raw:
        raise ConfigError("family", "required")
    if not isinstance(raw["family"], str) or raw["family"] not in FAMILIES:
        raise ConfigError(
            "family", f"must be one of {sorted(FAMILIES)}, got {raw['family']!r}"
        )
    if "resolutions" not in raw:
        raise ConfigError("resolutions", "required")

    cfg = dict(_DEFAULTS)
    cfg.update(raw)

    res = cfg["resolutions"]
    if not isinstance(res, list) or not all(map(_is_int, res)):
        raise ConfigError("resolutions", "must be a list of integers")
    for field in _PLAN_NUMBERS:
        if field != "n_snapshots":
            _require_number(field, cfg[field])
        elif not _is_int(cfg[field]):
            raise ConfigError(field, "must be an integer")

    hm = cfg["h_mode"]
    if not isinstance(hm, dict) or hm.get("mode") not in ("fixed", "scaled"):
        raise ConfigError("h_mode", "must be {'mode': 'fixed'|'scaled', ...}")
    key = _H_KEY[hm["mode"]]
    if set(hm) != {"mode", key}:
        raise ConfigError("h_mode", f"{hm['mode']} mode takes exactly {{'mode', {key!r}}}")
    _require_number(f"h_mode.{key}", hm[key])

    init = cfg["init"]
    if not isinstance(init, dict) or init.get("mode") not in ("equipartition", "iid"):
        raise ConfigError("init", "must be {'mode': 'equipartition'|'iid', ...}")
    if init["mode"] == "iid":
        if set(init) != {"mode", "seed"} or not _is_int(init.get("seed")):
            raise ConfigError("init.seed", "iid mode requires an integer seed")
    elif set(init) != {"mode"}:
        raise ConfigError("init", "equipartition mode takes only {'mode'}")

    if "morse" in raw:
        if cfg["family"] != "morse_2d":
            raise ConfigError("morse", "only valid for the morse_2d family")
        morse = cfg["morse"]
        if not isinstance(morse, dict) or set(morse) - _MORSE_KEYS:
            raise ConfigError("morse", f"allowed keys are {sorted(_MORSE_KEYS)}")
        for key, val in morse.items():
            _require_number(f"morse.{key}", val)
    elif cfg["family"] == "morse_2d":
        cfg["morse"] = {}

    # Every range rule is the rule of the constructor that uses the number.
    try:
        plan_from_config(cfg)
    except ParameterError as err:
        raise ConfigError(_field(err.name, cfg), str(err)) from err

    if not isinstance(cfg["output_dir"], str) or not cfg["output_dir"]:
        raise ConfigError("output_dir", "must be a nonempty string")
    if not _is_int(cfg["workers"]) or cfg["workers"] < 1:
        raise ConfigError("workers", "must be an integer >= 1")
    if not _is_int(cfg["seed"]):
        raise ConfigError("seed", "must be an integer")
    if not _is_int(cfg["verbosity"]) or cfg["verbosity"] not in (0, 1, 2):
        raise ConfigError("verbosity", "must be 0, 1, or 2")
    if cfg["lp_budget"] is not None and (not _is_int(cfg["lp_budget"]) or cfg["lp_budget"] < 1):
        raise ConfigError("lp_budget", "must be a positive integer")
    if not isinstance(cfg["meta"], dict):
        raise ConfigError("meta", "must be an object")
    return cfg


def plan_from_config(cfg):
    """Build the ExperimentPlan described by a validated config dict."""
    hm, init = cfg["h_mode"], cfg["init"]
    return ExperimentPlan(
        family=cfg["family"],
        resolutions=tuple(cfg["resolutions"]),
        **{key: cfg[key] for key in _PLAN_NUMBERS},
        h_mode=hm["mode"],
        h_value=hm[_H_KEY[hm["mode"]]],
        morse=MorseInteraction(**cfg["morse"]) if "morse" in cfg else None,
        init_mode=init["mode"],
        seed=init.get("seed", cfg["seed"]),
    )

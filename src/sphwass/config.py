"""Run-configuration schema: a single JSON document, validated before any
computation starts.  Unknown keys are rejected; every error names the
offending field.

Annotated example (1D expansion)::

    {
      "family": "expansion_1d",        // expansion_1d | rotating_square_2d | morse_2d
      "gamma": 2.0,                    // polytropic exponent (pressure families)
      "kappa": 1.0,                    // equation-of-state constant
      "theta": 1,                      // scheme switch, 0 or 1
      "h_mode": {"mode": "fixed", "value": 1.0},
                                        // or {"mode": "scaled", "epsilon": 1.5}
      "resolutions": [1, 2, 3],        // ladder exponents k; n = 2^k (1D), 4^k (2D)
      "dt": 1e-3,
      "t_end": 1.0,
      "n_snapshots": 10,               // shared comparison grid over [0, t_end]
      "eta": 0.0,                      // drag coefficient
      "init": {"mode": "equipartition"},
                                        // or {"mode": "iid", "seed": 42}
      "output_dir": "out",
      "workers": 1,
      "seed": 0,
      "verbosity": 1,
      "meta": {}                       // free-form, ignored by the runner
    }

The ``morse_2d`` family ignores gamma/kappa and accepts an optional
``"morse": {"c_a":..., "c_r":..., "l_a":..., "l_r":..., "r_cut":...}``
block plus a positive ``eta`` (typically 10 or 0.1) and coarser time
stepping (``dt = 1e-2``, ``t_end = 100``).
"""

import json
import sys

from .forces import MorseInteraction
from .experiments import FAMILIES, ExperimentPlan

__all__ = ["ConfigError", "load_config", "validate_config", "plan_from_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


_DEFAULTS = {
    "gamma": 2.0,
    "kappa": 1.0,
    "theta": 1,
    "h_mode": {"mode": "fixed", "value": 1.0},
    "dt": 1e-3,
    "t_end": 1.0,
    "n_snapshots": 10,
    "eta": 0.0,
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


def _require_number(field, val, positive=False, nonnegative=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(field, f"expected a number, got {val!r}")
    # Python's json reads NaN, Infinity and integers beyond the float range
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(field, f"must be finite, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(field, f"must be positive, got {val!r}")
    if nonnegative and val < 0:
        raise ConfigError(field, f"must be nonnegative, got {val!r}")


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
    if (
        not isinstance(res, list)
        or len(res) < 2
        or any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in res)
        or any(b <= a for a, b in zip(res, res[1:]))
    ):
        raise ConfigError(
            "resolutions", "must be a strictly increasing list of integers >= 1"
        )

    _require_number("gamma", cfg["gamma"], positive=True)
    _require_number("kappa", cfg["kappa"], positive=True)
    if cfg["theta"] not in (0, 1) or isinstance(cfg["theta"], bool):
        raise ConfigError("theta", f"must be 0 or 1, got {cfg['theta']!r}")
    _require_number("dt", cfg["dt"], positive=True)
    _require_number("t_end", cfg["t_end"], positive=True)
    if not isinstance(cfg["n_snapshots"], int) or cfg["n_snapshots"] < 2:
        raise ConfigError("n_snapshots", "must be an integer >= 2")
    _require_number("eta", cfg["eta"], nonnegative=True)

    hm = cfg["h_mode"]
    if not isinstance(hm, dict) or hm.get("mode") not in ("fixed", "scaled"):
        raise ConfigError("h_mode", "must be {'mode': 'fixed'|'scaled', ...}")
    if hm["mode"] == "fixed":
        if set(hm) != {"mode", "value"}:
            raise ConfigError("h_mode", "fixed mode takes exactly {'mode', 'value'}")
        _require_number("h_mode.value", hm["value"], positive=True)
    else:
        if set(hm) != {"mode", "epsilon"}:
            raise ConfigError("h_mode", "scaled mode takes exactly {'mode', 'epsilon'}")
        _require_number("h_mode.epsilon", hm["epsilon"], positive=True)

    init = cfg["init"]
    if not isinstance(init, dict) or init.get("mode") not in ("equipartition", "iid"):
        raise ConfigError("init", "must be {'mode': 'equipartition'|'iid', ...}")
    if init["mode"] == "iid":
        if set(init) != {"mode", "seed"} or not isinstance(init.get("seed"), int):
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
            _require_number(f"morse.{key}", val, positive=True)
    elif cfg["family"] == "morse_2d":
        cfg["morse"] = {}

    if not isinstance(cfg["output_dir"], str) or not cfg["output_dir"]:
        raise ConfigError("output_dir", "must be a nonempty string")
    if not isinstance(cfg["workers"], int) or cfg["workers"] < 1:
        raise ConfigError("workers", "must be an integer >= 1")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed", "must be an integer")
    if cfg["verbosity"] not in (0, 1, 2):
        raise ConfigError("verbosity", "must be 0, 1, or 2")
    if cfg["lp_budget"] is not None and (
        not isinstance(cfg["lp_budget"], int) or cfg["lp_budget"] < 1
    ):
        raise ConfigError("lp_budget", "must be a positive integer")
    if not isinstance(cfg["meta"], dict):
        raise ConfigError("meta", "must be an object")
    return cfg


def plan_from_config(cfg):
    """Build the ExperimentPlan described by a validated config dict."""
    hm = cfg["h_mode"]
    morse = None
    if cfg["family"] == "morse_2d":
        morse = MorseInteraction(**cfg.get("morse", {}) or {})
    init = cfg["init"]
    return ExperimentPlan(
        family=cfg["family"],
        resolutions=tuple(cfg["resolutions"]),
        gamma=cfg["gamma"],
        kappa=cfg["kappa"],
        theta=cfg["theta"],
        h_mode=hm["mode"],
        h_value=hm["value"] if hm["mode"] == "fixed" else hm["epsilon"],
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        n_snapshots=cfg["n_snapshots"],
        eta=cfg["eta"],
        morse=morse,
        init_mode=init["mode"],
        seed=init.get("seed", cfg["seed"]),
    )

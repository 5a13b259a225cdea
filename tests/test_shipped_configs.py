"""Every config under demos/configs/ loads, builds its plan, and validates
unchanged once resolved, as ``manifest.json`` stores it."""

import json
from pathlib import Path

import pytest

from sphwass.config import load_config, plan_from_config, validate_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def test_configs_are_shipped():
    assert len(CONFIGS) >= 3


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_loads_plans_and_round_trips(path):
    cfg = load_config(path)
    plan = plan_from_config(cfg)
    assert plan.family == cfg["family"]
    assert plan.resolutions == tuple(cfg["resolutions"])
    resolved = json.loads(json.dumps(cfg, sort_keys=True))
    assert validate_config(resolved) == cfg

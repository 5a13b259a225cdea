import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphwass.cli import main
from sphwass.config import ConfigError, validate_config
from sphwass.experiments import ExperimentPlan

BASE = {"family": "rotating_square_2d", "resolutions": [1, 2, 3]}
MORSE = {"family": "morse_2d", "resolutions": [1, 2, 3]}


def config_with(field, value):
    section, _, key = field.partition(".")
    if section == "h_mode":
        mode = "fixed" if key == "value" else "scaled"
        return {**BASE, "h_mode": {"mode": mode, key: value}}
    if section == "morse":
        return {**MORSE, "morse": {key: value}}
    return {**BASE, field: value}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["dt", "t_end", "gamma", "kappa", "eta", "h_mode.value", "h_mode.epsilon",
     "morse.c_a", "morse.r_cut"],
)
def test_nonfinite_numbers_rejected_naming_the_field(field, bad):
    with pytest.raises(ConfigError) as err:
        validate_config(config_with(field, bad))
    assert err.value.field == field


def test_integer_beyond_the_float_range_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config({**BASE, "t_end": 10**400})
    assert err.value.field == "t_end"


def test_nan_dt_from_json_exits_2(tmp_path, capsys):
    # Python's json accepts NaN and Infinity literals
    path = tmp_path / "cfg.json"
    path.write_text('{"family": "expansion_1d", "resolutions": [1, 2, 3], "dt": NaN}')
    assert main(["run", str(path)]) == 2
    assert "'dt'" in capsys.readouterr().err


def test_dt_too_small_for_t_end_exits_2_naming_dt(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, "dt": 5e-324, "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(path)]) == 2
    assert "'dt'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scaled_h_checked_at_every_rung_exits_2_naming_epsilon(tmp_path, capsys):
    # epsilon = 2e-77 lies within the kernel's range, but rung k runs at
    # h = epsilon * 2^-k, and 1e-77 < 2^-255 already at k = 1; select_h's note
    # on the customary range (a RuntimeWarning, an error here) is not given
    cfg = {**BASE, "h_mode": {"mode": "scaled", "epsilon": 2e-77}, "t_end": 0.01,
           "n_snapshots": 2, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    assert "'h_mode.epsilon'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilon, message", [
    ("-1.0", "h must come from a positive epsilon, got -1.0"),
    ("5e-324", "h must be positive; epsilon 5e-324 gives 0 at n = 4"),
])
def test_scaled_h_error_quotes_epsilon_as_written(epsilon, message, tmp_path, capsys):
    # a nonpositive epsilon is named by itself, not by the h it gives; one
    # that rounds h to 0 is named with the particle count of the rung
    path = tmp_path / "cfg.json"
    path.write_text('{"family": "rotating_square_2d", "resolutions": [1, 2, 3], '
                    '"h_mode": {"mode": "scaled", "epsilon": %s}}' % epsilon)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'h_mode.epsilon'" in err and message in err


def test_rung_beyond_2_to_the_62_particles_rejected():
    # the plan builds each rung's kernel, at a count that must stay an int64
    with pytest.raises(ConfigError) as err:
        validate_config({**BASE, "resolutions": [1, 2, 10**18]})
    assert err.value.field == "resolutions"
    validate_config({"family": "expansion_1d", "resolutions": [1, 2, 62]})


def test_more_snapshots_than_steps_exit_2_before_the_grid_is_built(
    tmp_path, capsys, monkeypatch
):
    def no_grid(plan):
        raise AssertionError("snapshot grid built")

    monkeypatch.setattr(ExperimentPlan, "snapshot_times", no_grid)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, "n_snapshots": 10**12}))
    assert main(["run", str(path)]) == 2
    assert "'n_snapshots'" in capsys.readouterr().err


def test_integer_literal_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    # json raises a plain ValueError here, not a JSONDecodeError
    path = tmp_path / "cfg.json"
    path.write_text('{"family": "expansion_1d", "resolutions": [1, 2, 3], "dt": %s}' % ("1" * 5000))
    assert main(["run", str(path)]) == 2
    assert "<file>" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("workers", {"workers": True}),
        ("seed", {"seed": True}),
        ("verbosity", {"verbosity": True}),
        ("lp_budget", {"lp_budget": True}),
        ("init.seed", {"init": {"mode": "iid", "seed": True}}),
    ],
)
def test_bool_for_an_integer_exits_2_naming_the_field(tmp_path, capsys, field, overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **overrides, "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unhashable_family_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config({"family": ["morse_2d"], "resolutions": [1, 2, 3]})
    assert err.value.field == "family"


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["fixed", "scaled", "equipartition", "iid", "morse_2d"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["mode", "value", "epsilon", "seed", "c_a", "r_cut", "x"]),
        children,
        max_size=3,
    ),
    max_leaves=8,
)
known_keys = st.sampled_from(
    ["family", "gamma", "kappa", "theta", "h_mode", "resolutions", "dt", "t_end",
     "n_snapshots", "eta", "morse", "init", "output_dir", "workers", "seed",
     "verbosity", "lp_budget", "meta", "unknown"]
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([BASE, MORSE, {"family": "expansion_1d", "resolutions": [1, 2, 3]}]),
    changes=st.dictionaries(known_keys, json_values, max_size=4),
    drop=st.lists(st.sampled_from(["family", "resolutions"]), max_size=1),
)
def test_fuzzed_configs_raise_only_config_errors(base, changes, drop):
    raw = {**base, **changes}
    for key in drop:
        raw.pop(key, None)
    try:
        validate_config(raw)
    except ConfigError:
        pass

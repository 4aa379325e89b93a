"""Strict config parsing: round trips, key naming, cross-field checks."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nldm import IntegratorSettings
from nldm.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    derived_seed,
)


def base_raw():
    return {
        "system": {"ident": "two_attractor", "params": {}},
        "model": {"delays": 2, "degree": 3},
        "train": [
            {
                "ic": [-0.5, 1.0],
                "t_span": [0.0, 10.0],
                "num_samples": 2000,
                "noise": {"sigma_pct": 0.1, "seed": 10},
            },
            {"ic": [1.5, 2.0], "t_span": [0.0, 10.0], "num_samples": 2000},
        ],
        "test": [
            {
                "ic": [0.025, 1.0],
                "t_span": [0.0, 10.0],
                "num_samples": 2000,
                "noise": {"sigma_pct": 0.1},
            }
        ],
        "basin": {
            "window": [[-3.0, 3.0], [-3.0, 3.0]],
            "resolution": 50,
            "steps": 500,
            "tol": 0.05,
        },
        "output_dir": "runs/demo",
        "global_seed": 7,
    }


def test_round_trip_is_identity():
    config = config_from_dict(base_raw())
    assert config_from_dict(config_to_dict(config)) == config
    assert config.integrator is None
    assert "integrator" not in config_to_dict(config)
    # Every study config reads back through JSON, as the manifest does.
    root = Path(__file__).resolve().parents[1]
    for path in [None, *sorted((root / "configs").glob("*.json"))]:
        config = config_from_dict(json.loads(path.read_text()) if path else base_raw())
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config


def test_round_trip_with_params_and_fixed_axes():
    raw = {
        "system": {"ident": "mfcd", "params": {"mu": 0.2, "a": -0.1}},
        "model": {"delays": 1, "degree": 2},
        "train": [{"ic": [1.0, 0.0, 2.0], "t_span": [0.0, 5.0], "num_samples": 500}],
        "basin": {
            "window": [[-2.0, 2.0], [-2.0, 2.0]],
            "resolution": 20,
            "fixed": {"2": 2.0},
        },
        "integrator": {"rel_tol": 5e-7, "abs_tol": 5e-10},
    }
    config = config_from_dict(raw)
    assert config.system.params == {"mu": 0.2, "a": -0.1}
    assert config.basin.fixed == ((2, 2.0),)
    assert config.integrator == IntegratorSettings(rel_tol=5e-7, abs_tol=5e-10)
    assert config_to_dict(config)["integrator"] == raw["integrator"]
    assert config.basin.steps == 1000  # default survives the trip
    assert config_from_dict(config_to_dict(config)) == config


def test_parsed_fields():
    config = config_from_dict(base_raw())
    assert config.system.ident == "two_attractor"
    assert config.model.delays == 2
    assert config.train[0].noise.seed == 10
    assert config.train[1].noise is None
    assert config.test[0].noise.seed is None
    assert config.train[0].dt == pytest.approx(10.0 / 1999)
    assert config.basin.resolution == 50
    assert config.output_dir == "runs/demo"
    assert config.global_seed == 7


def test_optional_sections_default():
    raw = base_raw()
    del raw["test"], raw["basin"], raw["output_dir"], raw["global_seed"]
    config = config_from_dict(raw)
    assert config.test == ()
    assert config.basin is None
    assert config.output_dir == "runs/experiment"
    assert config.global_seed == 0


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw.update(extra=1), "'extra' in config"),
        (lambda raw: raw["model"].update(order=2), "'order' in model"),
        (lambda raw: raw["train"][0].update(label="a"), "'label' in train[0]"),
        (lambda raw: raw["train"][0]["noise"].update(kind="g"), "'kind' in train[0].noise"),
        (lambda raw: raw["test"][0].update(bogus=0), "'bogus' in test[0]"),
        (lambda raw: raw["basin"].update(shape="disk"), "'shape' in basin"),
        (lambda raw: raw["system"].update(name="x"), "'name' in system"),
    ],
)
def test_unknown_keys_are_named(mutate, fragment):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(raw)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw.pop("model"), "'model' in config"),
        (lambda raw: raw.pop("train"), "'train' in config"),
        (lambda raw: raw["train"][1].pop("ic"), "'ic' in train[1]"),
        (lambda raw: raw["train"][0]["noise"].pop("sigma_pct"), "'sigma_pct' in train[0].noise"),
        (lambda raw: raw["basin"].pop("resolution"), "'resolution' in basin"),
        (lambda raw: raw["system"].pop("ident"), "'ident' in system"),
    ],
)
def test_missing_keys_are_named(mutate, fragment):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match="missing required key"):
        try:
            config_from_dict(raw)
        except ConfigError as exc:
            assert fragment in str(exc)
            raise


def test_ic_length_must_match_system():
    raw = base_raw()
    raw["train"][0]["ic"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError, match=r"train\[0\].ic has 3 entries"):
        config_from_dict(raw)


def test_series_must_cover_the_delay_window():
    raw = base_raw()
    raw["model"]["delays"] = 5
    raw["test"][0]["num_samples"] = 5
    raw["test"][0]["t_span"] = [0.0, 4 * 10.0 / 1999]
    with pytest.raises(ConfigError, match=r"test\[0\].num_samples=5"):
        config_from_dict(raw)


def test_all_series_share_one_sampling_interval():
    raw = base_raw()
    raw["test"][0]["num_samples"] = 1000
    with pytest.raises(ConfigError, match="sampling interval"):
        config_from_dict(raw)
    # Different spans with the same implied dt are fine.
    raw = base_raw()
    raw["test"][0]["t_span"] = [0.0, 5.0]
    raw["test"][0]["num_samples"] = 1000
    with pytest.raises(ConfigError, match="sampling interval"):
        config_from_dict(raw)
    raw["test"][0]["t_span"] = [5.0, 15.0]
    raw["test"][0]["num_samples"] = 2000
    config_from_dict(raw)


def test_system_errors_are_wrapped():
    raw = base_raw()
    raw["system"]["ident"] = "pendulum"
    with pytest.raises(ConfigError, match="system: unknown system"):
        config_from_dict(raw)
    raw = base_raw()
    raw["system"]["params"] = {"gamma": 1.0}
    with pytest.raises(ConfigError, match="system: unknown parameter"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw["model"].update(delays=0), "model.delays"),
        (lambda raw: raw["model"].update(degree=0), "model.degree"),
        (lambda raw: raw["train"][0].update(ic=[]), "ic must be"),
        (lambda raw: raw["train"][0].update(ic=[np.inf, 0.0]), "ic must be"),
        (lambda raw: raw["train"][0].update(t_span=[1.0, 1.0]), "t_span must increase"),
        # Finite ends whose width overflows: once exit 3 in the simulate.
        (lambda raw: raw["train"][0].update(t_span=[-1e308, 1e308]),
         "train[0].t_span must increase by a width finite as a float"),
        (lambda raw: raw["train"][0].update(t_span=[0.0]), "t_span must be"),
        (lambda raw: raw["train"][0].update(num_samples=1), "num_samples must be >= 2"),
        (lambda raw: raw["train"][0]["noise"].update(sigma_pct=-0.1), "sigma_pct"),
        (lambda raw: raw["train"][0]["noise"].update(seed=-1), "seed must be >= 0"),
        (lambda raw: raw["basin"].update(window=[[1.0, -1.0], [0.0, 1.0]]), "positive extent"),
        (lambda raw: raw["basin"].update(window=[[-1e308, 1e308], [0.0, 1.0]]), "finite as a float"),
        (lambda raw: raw["basin"].update(resolution=1), "basin.resolution"),
        (lambda raw: raw["basin"].update(steps=0), "basin.steps"),
        (lambda raw: raw["basin"].update(tol=0.0), "basin.tol"),
        (lambda raw: raw.update(train=[]), "at least one series"),
        (lambda raw: raw.update(output_dir=""), "output_dir"),
        (lambda raw: raw.update(global_seed=-3), "global_seed"),
        (lambda raw: raw.update(integrator={"rel_tol": 0.0}), "integrator.rel_tol must be positive"),
        (lambda raw: raw.update(integrator={"abs_tol": -1e-9}), "integrator.abs_tol must be positive"),
        (lambda raw: raw.update(integrator={"rel_tol": -1.0}), "integrator.rel_tol must be positive"),
        (lambda raw: raw.update(integrator={"abs_tol": 0.0}), "integrator.abs_tol must be positive"),
        # A shape past the feature capacity once failed only in training.
        (lambda raw: raw.update(model={"delays": 30, "degree": 30}), "model: feature space of size"),
        (lambda raw: raw.update(model={"delays": 10**9, "degree": 10**9}), "model: feature space of size"),
    ],
)
def test_value_checks(mutate, fragment):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment.replace("[", r"\[")):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda raw: raw["train"][0].update(num_samples=None), "train[0].num_samples must be int"),
        (lambda raw: raw["train"][0]["noise"].update(sigma_pct=None), "sigma_pct must be float"),
        (lambda raw: raw["model"].update(delays="two"), "model.delays must be int"),
        (lambda raw: raw["basin"].update(tol=None), "basin.tol must be float"),
        (lambda raw: raw.update(global_seed=[1]), "global_seed must be int"),
        (lambda raw: raw["basin"].update(fixed=[1]), "basin.fixed must map axes"),
        (lambda raw: raw["basin"].update(fixed={"x": 1.0}), "basin.fixed axis must be int"),
        (lambda raw: raw["basin"].update(fixed={"0": None}), "basin.fixed value must be float"),
        (lambda raw: raw["basin"].update(fixed={"2": 1.0}), "must lie in 0..1"),
        (lambda raw: raw["basin"].update(fixed={"-1": 1.0}), "must lie in 0..1"),
        (lambda raw: raw["train"][0].update(ic=None), "train[0].ic must be list"),
        (lambda raw: raw["train"][0].update(ic=[None, 1.0]), "train[0].ic must be float"),
        (lambda raw: raw["train"][0].update(t_span=None), "train[0].t_span must be list"),
        (lambda raw: raw["train"][0].update(t_span=[0.0, None]), "t_span must be float"),
        (lambda raw: raw["basin"].update(window=None), "basin.window must be list"),
        (lambda raw: raw["basin"].update(window=[[0.0, 1.0], None]), "basin.window must be list"),
        (lambda raw: raw["system"].update(params={"x": None}), "system.params.x must be float"),
        (lambda raw: raw["system"].update(params=None), "system.params must be dict"),
        (lambda raw: raw["train"].append(None), "train[2] must be a mapping"),
        (lambda raw: raw["test"].append(None), "test[1] must be a mapping"),
        (lambda raw: raw.update(test=3), "test must be list"),
        (lambda raw: raw.update(system=5), "system must be a mapping"),
        (lambda raw: raw.update(model=3), "model must be a mapping"),
        (lambda raw: raw.update(basin=5), "basin must be a mapping"),
        (lambda raw: raw["train"][0].update(noise=0.1), "train[0].noise must be a mapping"),
        (lambda raw: raw.update(output_dir=None), "output_dir must be a non-empty string"),
        (lambda raw: raw.update(output_dir=5), "output_dir must be a non-empty string"),
        (lambda raw: raw.update(output_dir=["runs"]), "output_dir must be a non-empty string"),
        (lambda raw: raw.update(integrator={"rel_tol": None}), "integrator.rel_tol must be float"),
        (lambda raw: raw.update(integrator={"max_step": 0.1}), "'max_step' in integrator"),
        (lambda raw: raw.update(integrator=None), "integrator must be a mapping"),
        # Integer fields take integers only; real fields no bools or strings;
        # list and mapping fields no strings.
        (lambda raw: raw["model"].update(delays=float("inf")), "model.delays must be int, got inf"),
        (lambda raw: raw["model"].update(delays=2.7), "model.delays must be int, got 2.7"),
        (lambda raw: raw["model"].update(degree=True), "model.degree must be int, got True"),
        (lambda raw: raw["basin"].update(resolution="30"), "basin.resolution must be int, got '30'"),
        (lambda raw: raw["basin"].update(steps=500.0), "basin.steps must be int, got 500.0"),
        (lambda raw: raw["train"][0].update(num_samples=float("inf")),
         "train[0].num_samples must be int, got inf"),
        (lambda raw: raw["train"][0]["noise"].update(seed=10.0), "train[0].noise.seed must be int, got 10.0"),
        (lambda raw: raw.update(global_seed=True), "global_seed must be int, got True"),
        (lambda raw: raw["train"][0]["noise"].update(sigma_pct=True), "sigma_pct must be float, got True"),
        # Real fields take finite numbers only; JSON's NaN and Infinity parse
        # as floats, and an integer past the float range overflows.
        (lambda raw: raw["basin"].update(window=[[-np.inf, 2.0], [-2.0, 2.0]]),
         "basin.window must be finite, got -inf"),
        (lambda raw: raw["train"][0]["noise"].update(sigma_pct=np.inf),
         "train[0].noise.sigma_pct must be finite, got inf"),
        (lambda raw: raw["system"].update(params={"delta": np.nan}),
         "system.params.delta must be finite, got nan"),
        (lambda raw: raw["basin"].update(tol=10**400), "basin.tol must be finite, got inf"),
        (lambda raw: raw["train"][0].update(num_samples=10**400),
         "train[0].num_samples must be finite, got inf"),  # once an OverflowError in dt
        (lambda raw: raw.update(integrator={"rel_tol": float("nan")}),
         "integrator.rel_tol must be finite, got nan"),
        (lambda raw: raw.update(integrator={"abs_tol": float("inf")}),
         "integrator.abs_tol must be finite, got inf"),
        (lambda raw: raw["basin"].update(tol="0.05"), "basin.tol must be float, got '0.05'"),
        (lambda raw: raw.update(integrator={"rel_tol": "1e-9"}),
         "integrator.rel_tol must be float, got '1e-9'"),
        (lambda raw: raw["train"][0].update(ic="12"), "train[0].ic must be list, got '12'"),
        (lambda raw: raw["basin"].update(window=["03", [0.0, 1.0]]), "basin.window must be list, got '03'"),
        (lambda raw: raw["system"].update(params=[]), "system.params must be dict, got []"),
        (lambda raw: raw.update(test="ab"), "test must be list, got 'ab'"),
        # A top-level section is given or left out, never null.
        (lambda raw: raw.update(basin=None), "basin must be a mapping, got None"),
        (lambda raw: raw.update(test=None), "test must be list, got None"),
    ],
)
def test_malformed_values_are_config_errors(mutate, fragment):
    # Each of these once escaped as a TypeError, AttributeError or
    # IndexError instead of a ConfigError naming the field.
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment.replace("[", r"\[")):
        config_from_dict(raw)


def _paths(node, path=()):
    """Every path into a JSON-shaped value, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _replaced(raw, path, value):
    if not path:
        return value
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def _property_raw():
    raw = base_raw()
    raw["basin"]["fixed"] = {}
    return raw


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200)
@given(st.sampled_from(list(_paths(_property_raw()))), _JSON_VALUES)
def test_any_json_value_anywhere_parses_or_is_a_config_error(path, value):
    raw = _replaced(_property_raw(), path, value)
    try:
        config_from_dict(raw)
    except ConfigError:
        pass


def mfcd_raw(**basin):
    return {
        "system": {"ident": "mfcd"},
        "model": {"delays": 1, "degree": 2},
        "train": [{"ic": [1.0, 0.0, 2.0], "t_span": [0.0, 5.0], "num_samples": 500}],
        "basin": {"window": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": 20, **basin},
    }


def lorenz_raw():
    raw = mfcd_raw(fixed={"2": 25.0})
    raw["system"] = {"ident": "lorenz"}
    return raw


@pytest.mark.parametrize(
    "raw, fragment",
    [
        (lorenz_raw(), "basin: system 'lorenz' declares no attractors"),
        (mfcd_raw(), "basin: grid needs exactly 2 free axes, got 3"),
        (dict(base_raw(), basin=dict(base_raw()["basin"], fixed={"0": 1.0})),
         "basin: grid needs exactly 2 free axes, got 1"),
        (mfcd_raw(fixed={"2": 1.0, "02": 2.0}), "basin.fixed names axis 2 twice"),
    ],
)
def test_basin_section_must_describe_a_scan_of_the_system(raw, fragment):
    # Each of these once parsed, and the run failed (or silently kept the
    # later value) only after simulating and training.
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(raw)


def test_derived_seed_is_deterministic_and_distinct():
    assert derived_seed(7, "train", 3) == derived_seed(7, "train", 3)
    seeds = {
        derived_seed(g, role, i)
        for g in (0, 7)
        for role in ("train", "test")
        for i in (0, 1, 2)
    }
    assert len(seeds) == 12


def test_derived_seed_matches_seed_sequence():
    expected = int(np.random.SeedSequence([7, 0, 3]).generate_state(1)[0])
    assert derived_seed(7, "train", 3) == expected
    expected = int(np.random.SeedSequence([9, 1, 0]).generate_state(1)[0])
    assert derived_seed(9, "test", 0) == expected
    with pytest.raises(KeyError):
        derived_seed(1, "validate", 0)


def test_study_configs_parse_and_are_in_the_readme():
    # The studies are too costly to run here; this keeps every config
    # valid against the parser and listed in the README's study table.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    table = readme.split("## Studies", 1)[1].split("\n## ", 1)[0]
    paths = sorted((root / "configs").glob("*.json"))
    assert paths
    for path in paths:
        config_from_dict(json.loads(path.read_text()))
        assert f"--config configs/{path.name}" in table, path.name

"""Loading a configuration file: every section takes its own fields only,
integer fields take integral numbers only, real fields finite JSON numbers,
and a valid file hashes as it always has."""

import json

import pytest

from efq.config import config_from_dict, config_hash, config_to_dict, default_config, load_config
from efq.errors import ConfigError

# The default configuration's hash, as every earlier artifact records it.
DEFAULT_SHA256 = "87981f035e6882d371848ff619d74d06f8c8ba6e523fc93e1f07feab8388bb82"


def default_dict():
    return json.loads(json.dumps(config_to_dict(default_config())))


def with_field(path, value):
    data = default_dict()
    *parents, name = path.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    node[name] = value
    return data


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("bits_list", [2.7, True], "bits_list[0]"),
        ("bits_list", [3, True], "bits_list[1]"),
        ("lambda_list", [1, 2.5], "lambda_list[1]"),
        ("n_points", 8192.9, "n_points"),
        ("n_points", True, "n_points"),
        ("n_points", "8192", "n_points"),
        ("fit.order", 4.5, "fit.order"),
        ("sim.length", 1e4 + 0.5, "sim.length"),
        ("sim.seeds", [1.5], "sim.seeds[0]"),
        ("sim.seeds", [0, False], "sim.seeds[1]"),
    ],
)
def test_non_integral_or_boolean_integer_rejected(field, value, named):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(with_field(field, value))
    assert str(exc.value).startswith(f"{named}: must be an integer, got ")


@pytest.mark.parametrize("field", ["loading_factor", "sim.ct_pole"])
@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_real_rejected(tmp_path, field, text):
    # JSON files spell these as bare words, which json.loads accepts.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_field(field, 1.25)).replace("1.25", text))
    with pytest.raises(ConfigError, match=rf"{field}: must be a finite positive number"):
        load_config(path)


@pytest.mark.parametrize(
    "field, value, named",
    [
        # a bool or a string where a number belongs
        ("loading_factor", True, "loading_factor"),
        ("loading_factor", "4", "loading_factor"),
        ("sim.ct_pole", False, "sim.ct_pole"),
        ("plant.sample_period", "0.1", "plant.sample_period"),
        ("plant.num", [1.0, True], "plant.num[1]"),
        ("plant.den", ["1", 2.0], "plant.den[0]"),
        ("fit.method", 1, "fit.method"),
        # a list where a scalar belongs
        ("loading_factor", [4.0], "loading_factor"),
        ("n_points", [8192], "n_points"),
        ("fit.method", ["yw"], "fit.method"),
        ("sim.length", [60000], "sim.length"),
        # a scalar where a list or an object belongs
        ("bits_list", 3, "bits_list"),
        ("plant.den", 1.0, "plant.den"),
        ("sim.seeds", 0, "sim.seeds"),
        ("plant", "plant.json", "plant"),
        ("fit", None, "fit"),
        ("sim", [1], "sim"),
        # an unknown key at each level
        ("typo_field", 1, "typo_field"),
        ("plant.gain", 2.0, "plant.gain"),
        ("fit.metod", "yw", "fit.metod"),
        ("sim.lenght", 5000, "sim.lenght"),
    ],
)
def test_wrong_kind_of_value_or_unknown_key_rejected(field, value, named):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(with_field(field, value))
    assert str(exc.value).startswith(f"{named}: ")


@pytest.mark.parametrize("field", ["plant", "plant.num", "plant.sample_period"])
def test_missing_required_field_rejected(field):
    data = default_dict()
    *parents, name = field.split(".")
    node = data
    for parent in parents:
        node = node[parent]
    del node[name]
    with pytest.raises(ConfigError, match=rf"^{field}: required field is missing$"):
        config_from_dict(data)


def test_omitted_fields_take_their_defaults():
    data = {"plant": default_dict()["plant"]}
    data["plant"]["den"][0] = 1  # an integral JSON number loads as a real
    assert config_hash(config_from_dict(data)) == DEFAULT_SHA256


def test_integral_floats_load_as_integers():
    data = with_field("n_points", 6e4)
    data["bits_list"] = [1.0, 8e0]
    data["sim"]["seeds"] = [0.0, 2e1]
    cfg = config_from_dict(data)
    assert cfg.n_points == 60000 and type(cfg.n_points) is int
    assert cfg.bits_list == (1, 8) and cfg.sim.seeds == (0, 20)
    assert config_hash(cfg) == config_hash(config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))))


def test_existing_config_keeps_its_hash():
    assert config_hash(default_config()) == DEFAULT_SHA256
    assert config_hash(config_from_dict(default_dict())) == DEFAULT_SHA256

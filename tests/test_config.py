"""Loading a configuration file: every section takes its own fields only,
integer fields take integral numbers only, real fields finite JSON numbers,
and a valid file hashes as it always has."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from efq.config import (
    canonical_json,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    validate_config,
)
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


def with_order(order):
    cfg = default_config()
    return dataclasses.replace(cfg, fit=dataclasses.replace(cfg.fit, order=order))


def test_fit_order_is_bounded_by_the_grid():
    """yule_walker_fit's limit n_points // 4 holds for every fit: an order of
    10**400 fails here, before a fit could build a list that long."""
    limit = default_config().n_points // 4
    validate_config(with_order(limit))
    for order in (10**400, limit + 1, 0):
        with pytest.raises(ConfigError, match=rf"fit.order: must be an integer from 1 to n_points // 4 = {limit}, got "):
            validate_config(with_order(order))


@pytest.mark.parametrize("seeds, named", [((2**64,), "sim.seeds[0]"), ((0, 2**63), "sim.seeds[1]")])
def test_seed_beyond_int64_rejected(seeds, named):
    """Seeds fill an int64 column: 2**64 made an object array and 2**63 among
    small seeds a float64 one."""
    cfg = default_config()
    with pytest.raises(ConfigError, match=re.escape(f"{named}: must be an integer from 0 to 2**63 - 1, got {seeds[-1]}")):
        validate_config(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seeds=seeds)))


@pytest.mark.parametrize("seeds, named", [((3, 3), "sim.seeds[1]: repeats sim.seeds[0] (3)"), ((0, 1, 2, 1), "sim.seeds[3]: repeats sim.seeds[1] (1)")])
def test_repeated_seed_rejected(seeds, named):
    """A repeated seed runs the same lane twice, whose two equal runs read as
    a spread of zero."""
    cfg = default_config()
    with pytest.raises(ConfigError, match=re.escape(named)):
        validate_config(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seeds=seeds)))


@pytest.mark.parametrize("bits, named", [([1100], "bits_list[0]"), ([8, 600], "bits_list[1]")])
def test_bit_count_beyond_a_finite_gamma_rejected(bits, named):
    """gamma = 3 (2^bits - 1)^2 / loading_factor^2 must be a float: 1100 bits
    raised an OverflowError and 600 gave gamma = inf, then alpha = NaN."""
    with pytest.raises(ConfigError, match=re.escape(f"{named}: ") + ".*beyond the float range"):
        config_from_dict(with_field("bits_list", bits))


@pytest.mark.parametrize(
    "bits, lambdas, named",
    [
        ([8], [80], [(0, 0)]),
        ([260], [2], [(0, 0)]),
        ([180], [3], [(0, 0)]),
        ([2, 8], [1, 80], [(1, 1)]),
        ([8, 300], [1, 2, 10**400], [(1, 1), (0, 2), (1, 2)]),
    ],
    ids=["8x80", "260x2", "180x3", "one_cell_of_four", "huge_lambda"],
)
def test_cell_beyond_a_finite_nu_power_rejected(bits, lambdas, named):
    """The bound and the collapse identity's design take nu^lambda, which
    must be a float: (8, 80) raised an OverflowError in rd-curve and verify
    where the plant let the design solve."""
    data = with_field("bits_list", bits)
    data["lambda_list"] = lambdas
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    lines = str(exc.value).splitlines()[1:]
    assert len(lines) == len(named), lines
    for line, (i, j) in zip(lines, named):
        assert line.strip().startswith(f"bits_list[{i}], lambda_list[{j}]: nu^lambda is beyond the float range"), line


@pytest.mark.parametrize("bits, lambdas", [([250], [2]), ([511], [1]), (list(range(1, 9)), [1, 2, 3, 4, 70])])
def test_cell_with_a_finite_nu_power_validates(bits, lambdas):
    data = with_field("bits_list", bits)
    data["lambda_list"] = lambdas
    config_from_dict(data)


@pytest.mark.parametrize("lambdas, named", [([0], "lambda_list[0]"), ([1, -2], "lambda_list[1]")])
def test_oversampling_factor_below_one_rejected(lambdas, named):
    with pytest.raises(ConfigError, match=re.escape(f"{named}: must be a positive integer, got {lambdas[-1]}")):
        config_from_dict(with_field("lambda_list", lambdas))


@pytest.mark.parametrize("root", [[], "config", 1, None])
def test_config_root_that_is_not_an_object_rejected(tmp_path, root):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(root))
    with pytest.raises(ConfigError, match="^configuration root must be a JSON object$"):
        load_config(path)


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_unsupported_schema_version_rejected(version):
    with pytest.raises(ConfigError, match=re.escape(f"schema_version: unsupported value {version!r} (expected 1)")):
        config_from_dict(with_field("schema_version", version))


def test_largest_int64_seed_validates():
    cfg = default_config()
    validate_config(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seeds=(0, 2**63 - 1))))


def replaced(path, value):
    """The default config with the field at the dotted ``path`` set to ``value``."""
    cfg = default_config()
    if "." not in path:
        return dataclasses.replace(cfg, **{path: value})
    section, name = path.split(".")
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **{name: value})})


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("bits_list", (True, 2), "bits_list[0]"),
        ("lambda_list", (1, True), "lambda_list[1]"),
        ("fit.order", True, "fit.order"),
        ("sim.length", True, "sim.length"),
        ("sim.seeds", (False,), "sim.seeds[0]"),
        ("loading_factor", True, "loading_factor"),
        ("loading_factor", "4", "loading_factor"),
        ("sim.ct_pole", "x", "sim.ct_pole"),
        ("plant.num", ("1.0",), "plant.num[0]"),
        ("n_points", 8192.0, "n_points"),
        ("bits_list", [1, 2], "bits_list"),
    ],
)
def test_validate_refuses_what_the_loader_refuses(field, value, named):
    """A bool is no number and a string is refused with its path, as the
    loader refuses them: bools validated, and strings raised TypeError."""
    with pytest.raises(ConfigError, match=re.escape(f"{named}: must be ")):
        validate_config(replaced(field, value))


SCALARS = st.one_of(
    st.booleans(), st.integers(-2, 2**64), st.floats(), st.text(max_size=2), st.sampled_from(["yw", "white"])
)
FIELDS = (
    "bits_list lambda_list loading_factor n_points fit.method fit.order"
    " sim.length sim.seeds sim.input_kind sim.ct_pole plant.num plant.sample_period"
).split()


@settings(max_examples=300, deadline=None)
@example(field="plant.sample_period", value=math.nan)  # NaN != NaN, so it must not validate
@example(field="plant.sample_period", value=math.inf)
@given(field=st.sampled_from(FIELDS), value=st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.lists(SCALARS, max_size=3).map(tuple)))
def test_a_config_that_validates_reads_back_from_its_json_text(field, value):
    cfg = replaced(field, value)
    try:
        validate_config(cfg)
    except ConfigError:
        return
    back = config_from_dict(json.loads(canonical_json(config_to_dict(cfg))))
    assert back == cfg and config_hash(back) == config_hash(cfg)

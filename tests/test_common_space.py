"""Tests for the generic configuration-space abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng
from repro.common.space import (
    BoolParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
)


@pytest.fixture()
def toy_space():
    return ConfigurationSpace(
        [
            IntParameter("alpha.count", 1, 10, 4),
            FloatParameter("beta.ratio", 0.0, 1.0, 0.5),
            CategoricalParameter("gamma.mode", ("a", "b", "c"), "a"),
            BoolParameter("delta.flag", True),
        ],
        name="toy",
    )


class TestIntParameter:
    def test_sample_within_range(self):
        p = IntParameter("x", 2, 9, 5)
        rng = derive_rng("int-sample")
        values = set(ConfigurationSpace([p]).sample(200, rng)[:, 0].tolist())
        assert min(values) >= 2 and max(values) <= 9
        assert len(values) == 8  # all values reachable

    def test_validate_rejects_out_of_range(self):
        p = IntParameter("x", 2, 9, 5)
        with pytest.raises(ValueError):
            p.validate(11)

    def test_validate_accepts_out_of_range_default(self):
        # Table-2 quirk: spark.memory.offHeap.size default 0, range 10-1000.
        p = IntParameter("x", 10, 1000, 0)
        assert p.validate(0) == 0

    def test_encode_decode_roundtrip_endpoints(self):
        p = IntParameter("x", 2, 9, 5)
        assert p.decode(p.encode(2)) == 2
        assert p.decode(p.encode(9)) == 9

    def test_decode_clips(self):
        p = IntParameter("x", 2, 9, 5)
        assert p.decode(-0.5) == 2
        assert p.decode(1.5) == 9

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            IntParameter("x", 9, 2, 5)


class TestFloatParameter:
    def test_sample_within_range(self):
        p = FloatParameter("y", 0.5, 1.0, 0.75)
        rng = derive_rng("float-sample")
        for value in ConfigurationSpace([p]).sample(50, rng)[:, 0]:
            assert 0.5 <= value <= 1.0

    def test_encode_is_normalized(self):
        p = FloatParameter("y", 10.0, 20.0, 15.0)
        assert p.encode(10.0) == 0.0
        assert p.encode(20.0) == 1.0
        assert p.encode(15.0) == pytest.approx(0.5)

    def test_validate_rejects_out_of_range(self):
        p = FloatParameter("y", 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            p.validate(1.2)


class TestCategoricalParameter:
    def test_default_must_be_choice(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ("a", "b"), "z")

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ("a", "a"), "a")

    def test_encode_decode_all_choices(self):
        p = CategoricalParameter("c", ("a", "b", "c"), "a")
        for choice in p.choices:
            assert p.decode(p.encode(choice)) == choice

    def test_grid_returns_choices(self):
        p = CategoricalParameter("c", ("a", "b", "c"), "a")
        assert p.grid() == ["a", "b", "c"]

    def test_bool_parameter_is_two_choice(self):
        p = BoolParameter("flag", False)
        assert p.choices == (False, True)
        assert p.default is False


class TestConfiguration:
    def test_default_configuration_values(self, toy_space):
        config = toy_space.default()
        assert config["alpha.count"] == 4
        assert config["gamma.mode"] == "a"

    def test_missing_value_rejected(self, toy_space):
        with pytest.raises(ValueError, match="missing"):
            Configuration(toy_space, {"alpha.count": 4})

    def test_unknown_parameter_rejected(self, toy_space):
        values = toy_space.default().as_dict()
        values["zeta"] = 1
        with pytest.raises(ValueError, match="unknown"):
            Configuration(toy_space, values)

    def test_replacing_values(self, toy_space):
        config = toy_space.default().replacing_values({"alpha.count": 7})
        assert config["alpha.count"] == 7
        assert toy_space.default()["alpha.count"] == 4  # original untouched

    def test_replacing_underscore_alias(self, toy_space):
        config = toy_space.default().replacing_values({"alpha_count": 9})
        assert config["alpha.count"] == 9

    def test_equality_and_hash(self, toy_space):
        a = toy_space.default()
        b = toy_space.default()
        assert a == b and hash(a) == hash(b)
        c = a.replacing_values({"alpha.count": 5})
        assert a != c

    def test_mapping_protocol(self, toy_space):
        config = toy_space.default()
        assert len(config) == 4
        assert set(config) == set(toy_space.names)


class TestConfigurationSpace:
    def test_duplicate_names_rejected(self):
        p = IntParameter("x", 1, 2, 1)
        with pytest.raises(ValueError):
            ConfigurationSpace([p, p])

    def test_resolve_name_alias(self, toy_space):
        assert toy_space.resolve_name("alpha_count") == "alpha.count"
        with pytest.raises(KeyError):
            toy_space.resolve_name("nope")

    def test_from_dict_fills_defaults(self, toy_space):
        config = toy_space.from_dict({"beta.ratio": 0.9})
        assert config["beta.ratio"] == 0.9
        assert config["alpha.count"] == 4

    def test_encode_shape(self, toy_space):
        vec = toy_space.encode(toy_space.default())
        assert vec.shape == (4,)
        assert np.all((vec >= 0) & (vec <= 1))

    def test_decode_wrong_length(self, toy_space):
        with pytest.raises(ValueError):
            toy_space.decode([0.5, 0.5])

    def test_encode_many(self, toy_space):
        rng = derive_rng("many")
        configs = toy_space.configurations(toy_space.sample(5, rng))
        mat = toy_space.encode_many(configs)
        assert mat.shape == (5, 4)

    def test_encode_many_empty(self, toy_space):
        assert toy_space.encode_many([]).shape == (0, 4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_encode_decode_roundtrip(self, seed):
        """decode(encode(c)) == c for any randomly sampled configuration."""
        space = ConfigurationSpace(
            [
                IntParameter("alpha.count", 1, 10, 4),
                FloatParameter("beta.ratio", 0.0, 1.0, 0.5),
                CategoricalParameter("gamma.mode", ("a", "b", "c"), "a"),
                BoolParameter("delta.flag", True),
            ]
        )
        config = space.random(np.random.default_rng(seed))
        roundtrip = space.decode(space.encode(config))
        # Ints and categoricals are exact; floats decode within resolution.
        assert roundtrip["alpha.count"] == config["alpha.count"]
        assert roundtrip["gamma.mode"] == config["gamma.mode"]
        assert roundtrip["delta.flag"] == config["delta.flag"]
        assert roundtrip["beta.ratio"] == pytest.approx(config["beta.ratio"], abs=1e-9)

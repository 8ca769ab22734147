"""The batched Configuration Generator against its scalar oracle.

``ConfigurationSpace.sample`` replays NumPy's scalar ``integers`` /
``uniform`` stream from raw 64-bit words; these tests hold it to the
parameter-at-a-time oracle bit for bit — values, Python types and the
generator state it leaves behind.
"""

import copy

import numpy as np
import pytest

from repro.common.rng import derive_rng, draw_rounds
from repro.common.space import (
    BoolParameter,
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
)
from repro.core.collecting import Collector, raw_columns
from repro.odc.confspace import HADOOP_CONF_SPACE
from repro.sparksim.confspace import SPARK_CONF_SPACE
from repro.workloads.registry import get_workload
from tests.oracles.collecting import raw_value
from tests.oracles.space import random_configuration

# About half of all draws of a span-2**31 integer are Lemire rejections.
REJECTING_SPACE = ConfigurationSpace(
    [
        IntParameter("wide", 0, 2**31, 0),
        FloatParameter("ratio", 0.0, 1.0, 0.5),
        IntParameter("wider", -5, 2**31 + 100, 0),
        BoolParameter("flag", False),
        IntParameter("full", 0, 2**32 - 1, 0),
    ],
    name="rejecting",
)

# Zero-width knobs draw nothing; the float one still takes a word.
DEGENERATE_SPACE = ConfigurationSpace(
    [
        IntParameter("fixed", 7, 7, 7),
        CategoricalParameter("only", ("x",), "x"),
        IntParameter("small", 1, 3, 1),
        FloatParameter("flat", 2.5, 2.5, 2.5),
        CategoricalParameter("mode", ("a", "b", "c"), "a"),
        IntParameter("fixed.neg", -4, -4, -4),
    ],
    name="degenerate",
)

SPACES = {
    "spark": SPARK_CONF_SPACE,
    "odc": HADOOP_CONF_SPACE,
    "rejecting": REJECTING_SPACE,
    "degenerate": DEGENERATE_SPACE,
}


def _oracle_matrix(space, configs):
    return np.array(
        [[raw_value(p, c[p.name]) for p in space.parameters] for c in configs]
    ).reshape(len(configs), len(space.parameters))


def _assert_same(space, batched_rng, oracle_rng, n):
    values = space.sample(n, batched_rng)
    configs = [random_configuration(space, oracle_rng) for _ in range(n)]
    assert values.shape == (n, len(space.parameters))
    assert np.array_equal(values, _oracle_matrix(space, configs))
    drawn = space.configurations(values)
    assert drawn == configs
    for got, want in zip(drawn, configs):
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    np.testing.assert_equal(
        batched_rng.bit_generator.state, oracle_rng.bit_generator.state
    )


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
def test_batch_equals_oracle_over_seeds(name, n):
    space = SPACES[name]
    for seed in range(12):
        _assert_same(space, derive_rng("cg", seed), derive_rng("cg", seed), n)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_batch_of_2000_equals_oracle(name):
    space = SPACES[name]
    for seed in (3, 2024):
        _assert_same(space, derive_rng("cg", seed), derive_rng("cg", seed), 2000)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_back_to_back_batches_keep_buffer_parity(name):
    """Odd and even batch lengths leave a buffered half or none; the
    next batch (and a plain scalar draw) must pick up from it."""
    space = SPACES[name]
    batched, oracle = derive_rng("parity", name), derive_rng("parity", name)
    for n in (1, 2, 3, 1, 4, 7, 0, 5, 2):
        _assert_same(space, batched, oracle, n)
        assert batched.integers(0, 10) == oracle.integers(0, 10)


@pytest.mark.parametrize("buffered", [False, True])
def test_batch_starts_from_a_buffered_half(buffered):
    batched, oracle = derive_rng("prebuffer"), derive_rng("prebuffer")
    if buffered:  # leave a high half in the bit generator's buffer
        assert batched.integers(0, 5) == oracle.integers(0, 5)
    assert bool(batched.bit_generator.state["has_uint32"]) is buffered
    for space in SPACES.values():
        _assert_same(space, batched, oracle, 9)


@pytest.mark.parametrize(
    "bitgen", [np.random.PCG64DXSM, np.random.SFC64, np.random.Philox]
)
def test_other_buffered_64_bit_generators(bitgen):
    batched, oracle = np.random.Generator(bitgen(7)), np.random.Generator(bitgen(7))
    for space in SPACES.values():
        _assert_same(space, batched, oracle, 33)


def test_interleaved_arrivals_style_draws_stay_equal():
    """generate_trace interleaves random()/exponential() with one CG
    draw per job on the same generator."""
    for seed in range(20):
        batched, oracle = derive_rng("arrivals", seed), derive_rng("arrivals", seed)
        for _ in range(6):
            assert batched.random() == oracle.random()
            assert SPARK_CONF_SPACE.random(batched) == random_configuration(
                SPARK_CONF_SPACE, oracle
            )
            assert batched.exponential(2.0) == oracle.exponential(2.0)
        assert batched.bit_generator.state == oracle.bit_generator.state


def test_wide_span_rejects_about_half_of_its_draws():
    """Lemire sampling on halves taken low then high, by hand: a 2**31
    span rejects a half whose low product bits fall below 2**31 - 1."""
    rng = derive_rng("reject-count")
    words = copy.deepcopy(rng).bit_generator.random_raw(2000).tolist()
    halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
    excl = 2**31 + 1
    keep = [(h * excl) & 0xFFFFFFFF >= 2**32 % excl for h in halves]
    accepted = [(h * excl) >> 32 for h, ok in zip(halves, keep) if ok]
    assert draw_rounds(rng, [2**31], 1000)[:, 0].tolist() == accepted[:1000]
    last = [i for i, ok in enumerate(keep) if ok][999]
    rejected = last + 1 - 1000
    assert 800 < rejected < 1200


def test_draw_rounds_rejects_what_it_cannot_replay():
    with pytest.raises(ValueError, match="spans above"):
        draw_rounds(derive_rng("wide"), [2**32], 1)
    with pytest.raises(TypeError, match="MT19937"):
        draw_rounds(np.random.Generator(np.random.MT19937(0)), [3], 1)


def test_plan_batches_carry_their_read_only_rows():
    batches = Collector(get_workload("KM"), seed=5).plan(23, stream="train")
    rng = derive_rng("collector", "KM", 5, "train")
    oracle = [random_configuration(SPARK_CONF_SPACE, rng) for _ in range(23)]
    assert [r.config for b in batches for r in b.requests] == oracle
    for batch in batches:
        assert not batch.values.flags.writeable
        assert np.array_equal(
            batch.values,
            raw_columns(SPARK_CONF_SPACE, [r.config for r in batch.requests]),
        )

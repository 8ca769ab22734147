"""Tests for JobSpec/StageSpec validation and DAG utilities."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import GB
from repro.sparksim.dag import JobSpec, StageSpec


def linear_job():
    return JobSpec(
        program="toy",
        datasize_bytes=1 * GB,
        stages=(
            StageSpec(name="a", input_bytes=1 * GB, shuffle_out_ratio=0.5),
            StageSpec(name="b", parents=("a",), shuffle_out_ratio=0.2),
            StageSpec(name="c", parents=("b",)),
        ),
    )


class TestStageSpec:
    def test_rejects_zero_repeat(self):
        with pytest.raises(ValueError, match="repeat"):
            StageSpec(name="x", repeat=0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            StageSpec(name="x", input_bytes=-1)

    def test_rejects_implausible_shuffle_ratio(self):
        with pytest.raises(ValueError):
            StageSpec(name="x", shuffle_out_ratio=50.0)

    def test_defaults_are_sane(self):
        s = StageSpec(name="x")
        assert s.repeat == 1 and s.parents == () and s.cache_output is None


class TestJobSpec:
    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            JobSpec("p", 1.0, (StageSpec(name="a"), StageSpec(name="a")))

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec("p", 1.0, (StageSpec(name="a", parents=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            JobSpec(
                "p",
                1.0,
                (
                    StageSpec(name="a", parents=("b",)),
                    StageSpec(name="b", parents=("a",)),
                ),
            )

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("p", 1.0, ())

    def test_topological_order_respects_dependencies(self):
        order = [s.name for s in linear_job().topological_stages()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_diamond_topology(self):
        job = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="root", input_bytes=1.0, shuffle_out_ratio=1.0),
                StageSpec(name="left", parents=("root",), shuffle_out_ratio=1.0),
                StageSpec(name="right", parents=("root",), shuffle_out_ratio=1.0),
                StageSpec(name="join", parents=("left", "right")),
            ),
        )
        order = [s.name for s in job.topological_stages()]
        assert order[0] == "root" and order[-1] == "join"

    def test_stage_lookup(self):
        job = linear_job()
        assert job.stage("b").parents == ("a",)
        with pytest.raises(KeyError):
            job.stage("zzz")

    def test_total_input_bytes(self):
        assert linear_job().total_input_bytes == 1 * GB

    def test_graph_edges(self):
        edges = {
            (parent, stage.name)
            for stage in linear_job().stages
            for parent in stage.parents
        }
        assert edges == {("a", "b"), ("b", "c")}

    def test_self_parent_is_a_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            JobSpec("p", 1.0, (StageSpec(name="a", parents=("a",)),))

    def test_repeated_parent_counts_as_one_edge(self):
        job = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="b", parents=("a", "a")),
                StageSpec(name="a"),
                StageSpec(name="c"),
            ),
        )
        assert [s.name for s in job.topological_stages()] == ["a", "b", "c"]

    def test_pickle_round_trip_keeps_order(self):
        job = JobSpec(
            "p",
            1.0,
            (
                StageSpec(name="z"),
                StageSpec(name="m", parents=("z",)),
                StageSpec(name="a", parents=("z",)),
            ),
        )
        revived = pickle.loads(pickle.dumps(job))
        assert revived == job
        assert [s.name for s in revived.topological_stages()] == ["z", "a", "m"]

    def test_topological_stages_returns_a_fresh_list(self):
        job = linear_job()
        job.topological_stages().clear()
        assert [s.name for s in job.topological_stages()] == ["a", "b", "c"]

    def test_order_is_outside_the_dataclass_fields(self):
        """Equality, hashing and repr (which the engine cache key hashes)
        see only the declared fields."""
        job = linear_job()
        assert job == linear_job() and hash(job) == hash(linear_job())
        assert "_order" not in repr(job)


@st.composite
def random_dags(draw):
    """Stages with shuffled names; stage i may only depend on stages < i."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"s{k:02d}" for k in range(n)]))
    stages = []
    for i, name in enumerate(names):
        parents = draw(st.lists(st.sampled_from(names[:i]), max_size=3)) if i else []
        stages.append(StageSpec(name=name, parents=tuple(parents)))
    return tuple(draw(st.permutations(stages)))


class TestTopologicalOrder:
    @given(random_dags())
    @settings(max_examples=100, deadline=None)
    def test_each_stage_is_the_smallest_ready_name(self, stages):
        """Lexicographic topological order: every emitted stage is the
        smallest-named stage whose parents have all been emitted."""
        order = [s.name for s in JobSpec("p", 1.0, stages).topological_stages()]
        assert sorted(order) == sorted(s.name for s in stages)
        done = set()
        for name in order:
            ready = [
                s.name
                for s in stages
                if s.name not in done and set(s.parents) <= done
            ]
            assert name == min(ready)
            done.add(name)

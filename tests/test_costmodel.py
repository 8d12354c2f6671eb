"""Unit tests for the executor's learned job cost model."""

import pytest

from repro.experiments import fig11_convergence_analysis as fig11
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.costmodel import DEFAULT_SEED_S, STATIC_SEED_S, CostModel

JOB = lambda: fig20.jobs("fast")[0]  # noqa: E731 - tiny factory


class TestColdPredictions:
    def test_static_seed_when_never_observed(self):
        model = CostModel()
        jb = JOB()
        assert model.predict(jb) == STATIC_SEED_S[jb.scenario]
        assert model.observations(jb) == 0

    def test_analysis_scenarios_predict_microseconds(self):
        # The magnitude routes these onto the inline fast path; a pool
        # round-trip costs milliseconds, so the margin must be huge.
        model = CostModel()
        for jb in (JOB(), fig11.jobs("fast")[0]):
            assert model.predict(jb) < 1e-3

    def test_unknown_scenario_gets_the_default_seed(self):
        import dataclasses

        model = CostModel()
        jb = dataclasses.replace(JOB(), scenario="mystery_scenario")
        assert model.predict(jb) == DEFAULT_SEED_S

    def test_paper_scale_predicts_slower_than_fast(self):
        import dataclasses

        model = CostModel()
        fast = JOB()
        paper = dataclasses.replace(fast, scale="paper")
        assert model.predict(paper) > model.predict(fast)


class TestWarmUpdates:
    def test_first_observation_replaces_the_seed(self):
        model = CostModel()
        jb = JOB()
        model.observe(jb, 2.0)
        assert model.predict(jb) == 2.0
        assert model.observations(jb) == 1

    def test_later_observations_move_the_ewma_toward_new_values(self):
        model = CostModel()
        jb = JOB()
        model.observe(jb, 1.0)
        model.observe(jb, 3.0)
        predicted = model.predict(jb)
        assert 1.0 < predicted < 3.0
        assert model.observations(jb) == 2

    def test_key_is_scenario_and_scale(self):
        import dataclasses

        jb = JOB()
        assert CostModel.key(jb) == f"{jb.scenario}:fast"
        model = CostModel()
        model.observe(jb, 5.0)
        # A different scale is a different key: still cold.
        paper = dataclasses.replace(jb, scale="paper")
        assert model.observations(paper) == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_invalid_wall_times_are_ignored(self, bad):
        model = CostModel()
        jb = JOB()
        model.observe(jb, bad)
        assert model.observations(jb) == 0
        assert model.predict(jb) == STATIC_SEED_S[jb.scenario]

"""Unit tests for the executor's static job cost model."""

from repro.experiments import fig11_convergence_analysis as fig11
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.costmodel import DEFAULT_SEED_S, STATIC_SEED_S, CostModel

JOB = lambda: fig20.jobs("fast")[0]  # noqa: E731 - tiny factory


class TestColdPredictions:
    def test_static_seed_when_never_observed(self):
        model = CostModel()
        jb = JOB()
        assert model.predict(jb) == STATIC_SEED_S[jb.scenario]

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

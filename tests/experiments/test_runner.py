"""Method dispatch, and each paper table's grid form, on a tiny MLP scenario.

Fast end-to-end coverage: every table and figure bench is a
:class:`~repro.experiments.grid.GridSpec` whose cells go through
:func:`~repro.experiments.runner.run_method` (or the ``beta_probe``
runner), so these run each bench's grid shape at toy size.
"""

import pytest

from repro.experiments.grid import GridSpec, run_grid, scenario_scope
from repro.experiments.protocol import Scenario
from repro.experiments.runner import make_edde_config, run_method


@pytest.fixture
def tiny_scenario(tiny_image_split, mlp_factory):
    return Scenario(name="tiny", split=tiny_image_split, factory=mlp_factory,
                    ensemble_size=2, epochs_per_model=2,
                    edde_first_epochs=2, edde_later_epochs=1,
                    lr=0.05, batch_size=32, gamma=0.1, beta=0.7,
                    weight_decay=0.0)


class TestRunMethod:
    @pytest.mark.parametrize("method", ["single", "bagging", "adaboost_m1",
                                        "adaboost_nc", "snapshot", "bans",
                                        "edde"])
    def test_dispatch(self, method, tiny_scenario):
        result = run_method(method, tiny_scenario, rng=0)
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_unknown_method(self, tiny_scenario):
        with pytest.raises(ValueError):
            run_method("gradient-boosting", tiny_scenario)

    def test_overrides_forwarded(self, tiny_scenario):
        result = run_method("edde", tiny_scenario, rng=0, num_models=3)
        assert len(result.ensemble) == 3

    @pytest.mark.parametrize("method", ["edde", "single", "adaboost_nc"])
    def test_misspelled_override_rejected(self, method, tiny_scenario):
        with pytest.raises(ValueError, match="gama") as raised:
            run_method(method, tiny_scenario, rng=0, gama=0.0, num_models=2,
                       bogus=1)
        assert "bogus" in str(raised.value)
        assert "num_models" not in str(raised.value)


class TestEddeConfig:
    def test_matches_budget(self, tiny_scenario):
        config = make_edde_config(tiny_scenario)
        assert config.num_models == tiny_scenario.edde_num_models()
        assert config.gamma == tiny_scenario.gamma

    def test_half_budget_note(self, tiny_scenario):
        tiny_scenario.notes["edde_half_budget"] = True
        full = tiny_scenario.total_budget
        config = make_edde_config(tiny_scenario)
        assert config.total_epochs() <= max(tiny_scenario.edde_first_epochs,
                                            full // 2) + 1


class TestRunners:
    """The paper tables' grid forms (benches Tables II-VI, Figs. 1/5/8)."""

    @pytest.fixture(autouse=True)
    def _tiny(self, tiny_scenario):
        with scenario_scope("tiny", tiny_scenario):
            yield

    @staticmethod
    def _grid(name, factors, **spec):
        grid = run_grid(GridSpec(name=name,
                                 factors={"scenario": ["tiny"], **factors},
                                 checkpoint=False, **spec))
        assert grid.complete, [record.error for record in grid.failures]
        return grid

    def test_effectiveness_subset(self):
        grid = self._grid("t_effectiveness", {"method": ["single", "edde"]})
        assert [r.factors["method"] for r in grid.records] == \
            ["single", "edde"]
        for record in grid.records:
            assert 0.0 <= record.metrics["final_accuracy"] <= 1.0

    def test_gamma_sweep(self):
        grid = self._grid("t_gamma", {"method": ["edde"],
                                      "gamma": [0.0, 0.5]})
        assert [r.factors["gamma"] for r in grid.records] == [0.0, 0.5]
        for record in grid.records:
            assert 0.0 <= record.metrics["final_accuracy"] <= 1.0

    def test_diversity_analysis(self):
        grid = self._grid(
            "t_diversity", {"method": ["snapshot", "edde", "adaboost_nc"]},
            base={"num_models": 2}, collect="diversity")
        for record in grid.records:
            matrix = record.metrics["similarity_matrix"]
            assert [len(row) for row in matrix] == [2, 2]
            assert 0.0 <= record.metrics["diversity"] <= 1.0

    def test_ablation(self):
        cases = {
            "edde": {"method": "edde"},
            "normal_loss": {"method": "edde", "overrides": {"gamma": 0.0}},
            "transfer_all": {"method": "edde", "overrides": {"beta": 1.0}},
            "transfer_none": {"method": "edde", "overrides": {"beta": 0.0}},
            "adaboost_nc_transfer": {"method": "adaboost_nc",
                                     "overrides": {"transfer": True}},
        }
        grid = self._grid("t_ablation", {}, cases=cases, collect="diversity")
        assert [r.factors["case"] for r in grid.records] == list(cases)

    def test_ablation_extended(self):
        cases = {
            "edde": {"method": "edde"},
            "cumulative_weights": {"method": "edde", "overrides": {
                "update_weights_from_initial": False}},
            "correlate_previous": {"method": "edde", "overrides": {
                "correlate_target": "previous"}},
        }
        grid = self._grid("t_ablation_extended", {}, cases=cases,
                          collect="diversity")
        assert [r.factors["case"] for r in grid.records] == list(cases)

    def test_misspelled_override_fails_the_cell(self):
        spec = GridSpec(name="t_typo", factors={
            "scenario": ["tiny"], "method": ["edde"], "gama": [0.0]},
            checkpoint=False)
        (record,) = run_grid(spec).records
        assert record.status == "failed"
        assert "gama" in record.error

    def test_bias_variance(self):
        grid = self._grid("t_bias_variance", {"method": ["snapshot", "edde"]},
                          collect="bias_variance")
        assert len(grid.records) == 2
        for record in grid.records:
            assert 0.0 <= record.metrics["bias"] <= 1.0
            assert 0.0 <= record.metrics["variance"] <= 1.0

    def test_beta_sweep(self):
        grid = self._grid("t_beta", {"beta": [1.0, 0.5]}, runner="beta_probe",
                          base={"n_folds": 4, "probe_epochs": 1,
                                "teacher_epochs": 1})
        assert [r.metrics["beta"] for r in grid.records] == [1.0, 0.5]

"""Golden fingerprints for the experiment grid's paper-table paths.

Every paper table runs as a :class:`~repro.experiments.grid.GridSpec`,
and each grid cell draws its generator from the spec's name and factor
assignment alone, so a (spec, scenario) pair names every fitted weight,
metric and aggregate bit for bit.  These digests pin the Table VI
ablation grid (including the two beyond-paper cases, as plain EDDE
override bundles), the Fig. 5 β-probe grid and the fold-teacher β
search of :func:`repro.core.transfer.select_beta`.  A refactor of the
runners, the fold-teacher step or the config plumbing is neutral
exactly when they still match.  The digests hold under the suite's
float64 pin.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.transfer import select_beta
from repro.data.synthetic_images import ImageConfig, make_image_dataset
from repro.experiments.grid import GridSpec, run_grid, scenario_scope
from repro.experiments.protocol import Scenario
from repro.models import MLP, ModelFactory

ABLATION_GRID_SHA256 = \
    "90c458f03ce047dc58f43bf2cf4be8ebf46f99bf4e8ce33b61d2a57a391d0aa6"
BETA_PROBE_GRID_SHA256 = \
    "e0d349519701a06ddcaa61340a458c3d9d69269c0a6975e18997ad92585e9c1f"
SELECT_BETA_SHA256 = \
    "83e881fb22b6adbe924839a5feab81c116a55e35a13f3b5c5d9c030ebd1ee05e"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _grid_payload(grid) -> dict:
    return {"aggregates": grid.aggregates,
            "records": [{"factors": dict(record.factors),
                         "metrics": record.metrics}
                        for record in grid.records]}


@pytest.fixture(scope="module")
def split():
    config = ImageConfig(num_classes=4, image_size=8, train_size=160,
                         test_size=80, noise_std=0.9, jitter=1,
                         occlusion_prob=0.1, mix_prob=0.0, label_noise=0.1,
                         prototypes_per_class=1, name="tiny-images")
    return make_image_dataset(config, rng=7)


@pytest.fixture
def factory(split):
    return ModelFactory(MLP, input_dim=int(np.prod(split.train.x.shape[1:])),
                        num_classes=split.num_classes, hidden=(24,))


@pytest.fixture
def tiny(split, factory):
    scenario = Scenario(name="tiny", split=split, factory=factory,
                        ensemble_size=2, epochs_per_model=2,
                        edde_first_epochs=2, edde_later_epochs=1,
                        lr=0.05, batch_size=32, gamma=0.1, beta=0.7,
                        weight_decay=0.0)
    with scenario_scope("tiny", scenario):
        yield scenario


def test_ablation_grid_matches_golden(tiny):
    spec = GridSpec(
        name="golden_ablation",
        factors={"scenario": ["tiny"], "seed": [0, 1]},
        cases={
            "edde": {"method": "edde"},
            "normal_loss": {"method": "edde", "overrides": {"gamma": 0.0}},
            "cumulative_weights": {
                "method": "edde",
                "overrides": {"update_weights_from_initial": False}},
            "correlate_previous": {
                "method": "edde",
                "overrides": {"correlate_target": "previous"}},
        },
        collect="diversity",
        checkpoint=False,
    )
    grid = run_grid(spec)
    assert grid.complete
    assert _digest(_grid_payload(grid)) == ABLATION_GRID_SHA256


def test_beta_probe_grid_matches_golden(tiny):
    spec = GridSpec(
        name="golden_beta",
        factors={"scenario": ["tiny"], "beta": [1.0, 0.5]},
        base={"n_folds": 4, "probe_epochs": 1, "teacher_epochs": 1},
        runner="beta_probe",
    )
    grid = run_grid(spec)
    assert grid.complete
    assert _digest(_grid_payload(grid)) == BETA_PROBE_GRID_SHA256


def test_select_beta_matches_golden(split, factory):
    selection = select_beta(factory, split.train, n_folds=4,
                            betas=(1.0, 0.5, 0.0), tolerance=-1.0,
                            teacher_epochs=1, probe_epochs=1, lr=0.05,
                            batch_size=32, rng=0)
    payload = {"beta": selection.beta,
               "probes": [(probe.beta, probe.accuracy_seen_fold,
                           probe.accuracy_unseen_fold)
                          for probe in selection.probes]}
    assert _digest(payload) == SELECT_BETA_SHA256

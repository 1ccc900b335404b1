"""Compare every ensemble method on the synthetic CIFAR-100 CV task.

The scenario machinery applies the paper's protocol (equal epoch budgets,
per-architecture γ/β, SGD schedules) so a user-facing comparison is a few
lines.  Takes several minutes on a laptop CPU; shrink via env vars, e.g.

    REPRO_SCALE=0.5 REPRO_TRAIN_SIZE=400 python examples/cv_ensemble_comparison.py
"""

from repro.analysis import format_table, percent, render_curves
from repro.core import ensemble_diversity
from repro.experiments import build_scenario, run_method
from repro.utils import new_rng, spawn_rng

METHODS = ("single", "snapshot", "bans", "edde")


def main() -> None:
    scenario = build_scenario("c100-resnet", rng=0)
    print(f"scenario: {scenario.name}, budget {scenario.total_budget} epochs, "
          f"gamma={scenario.gamma}, beta={scenario.beta}")

    rng = new_rng(0)
    results = [run_method(method, scenario, rng=spawn_rng(rng))
               for method in METHODS]

    rows = []
    for result in results:
        diversity = float("nan")
        if len(result.ensemble) >= 2:
            probs = result.ensemble.member_probs(scenario.split.test.x)
            diversity = ensemble_diversity(probs)
        rows.append([result.method,
                     percent(result.final_accuracy),
                     percent(result.average_member_accuracy()),
                     f"{diversity:.4f}" if diversity == diversity else "—",
                     result.total_epochs])
    print(format_table(
        ["Method", "Ensemble acc", "Avg member acc", "Div_H", "Epochs"],
        rows, title="Ensemble methods on synthetic CIFAR-100 (ResNet)"))

    print()
    print(render_curves(results,
                        title="Ensemble accuracy vs cumulative epochs"))


if __name__ == "__main__":
    main()

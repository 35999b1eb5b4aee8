"""The experiment registry, which is also the manifest of ``results/``.

One entry per *run*: the driver function, the ids ``repro experiment``
accepts for it, the files it produces, and the scale and seed the committed
copies of those files are at.  ``repro experiment all --results-dir
results`` walks this table and must leave ``git diff results/`` empty; there
is no hash column because git already stores the bytes.

Names only — a driver module is imported when its entry is run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Run:
    ids: Tuple[str, ...]          # CLI ids; several when one run prints several figures
    module: str                   # under repro.experiments
    outputs: Tuple[str, ...]      # file names under results/
    function: str = "run"
    scale: str = "default"        # what the committed outputs are at
    seed: int = 0

    def execute(self, scale, *, seed: int) -> tuple:
        """Run the driver; always a tuple of reports."""
        module = importlib.import_module(f"repro.experiments.{self.module}")
        result = getattr(module, self.function)(scale, seed=seed)
        return result if isinstance(result, tuple) else (result,)


RUNS: Tuple[Run, ...] = (
    Run(("table1",), "exp_table1", ("table1.txt",)),
    Run(("fig1",), "exp_fig1", ("fig1.txt",)),
    Run(("table2",), "exp_table2", ("table2.txt",)),
    Run(("fig4", "fig5"), "exp_fig4_5", ("fig4.txt", "fig5.txt")),
    Run(("fig6", "table3"), "exp_fig6_table3", ("fig6_table3.txt", "table3.txt")),
    Run(("fig7",), "exp_fig7", ("fig7.txt",)),
    Run(("fig8",), "exp_fig8", ("fig8.txt",)),
    Run(("fig9", "fig10"), "exp_fig9_10", ("fig9.txt", "fig10.txt")),
    Run(("fig11",), "exp_fig11", ("fig11.txt",)),
    Run(("fig12",), "exp_fig12_13", ("fig12.txt",), function="run_fig12"),
    Run(("fig13",), "exp_fig12_13", ("fig13.txt",), function="run_fig13"),
    Run(("ablation-model",), "exp_ablation_model", ("ablation-online-model.txt",)),
    Run(("ablation-speculation",), "exp_ablation_speculation",
        ("ablation-speculation.txt",)),
    Run(("multijob",), "exp_multijob", ("multijob.txt",)),
    Run(("sec2.4",), "exp_section24",
        ("sec2.4-spare-variance.txt", "sec3.2-quota-sizing.txt")),
    Run(("chaos",), "exp_chaos", ("exp_chaos.json",), scale="smoke"),
    Run(("fleet",), "exp_fleet", ("exp_fleet.json",), scale="smoke"),
    Run(("market",), "exp_market", ("exp_market.json",), scale="smoke"),
    Run(("predict",), "exp_predict", ("exp_predict.json",), scale="smoke"),
)

#: CLI id -> run; ``fig4`` and ``fig5`` are the same entry.
EXPERIMENTS: Dict[str, Run] = {exp_id: run for run in RUNS for exp_id in run.ids}

__all__ = ["EXPERIMENTS", "RUNS", "Run"]

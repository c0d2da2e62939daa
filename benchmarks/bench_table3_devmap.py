"""Table 3: OpenCL heterogeneous device mapping (reduced size)."""

from repro.pipeline import run_experiment
from repro.simulator.microarch import TAHITI_7970


def test_table3_device_mapping(once, capsys):
    run = once(run_experiment, "table3", overrides=dict(
        gpus=(TAHITI_7970,), max_kernels=40, points_per_kernel=3, folds=4,
        epochs=15, include_baselines=("Static mapping", "Grewe et al.",
                                      "DeepTune", "inst2vec")))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    rows = result[TAHITI_7970.name]
    mga = rows["MGA"]
    static = rows["Static mapping"]
    # shape: MGA above the static mapping in accuracy and speedup, and a
    # usable fraction of the oracle speedup
    assert mga["accuracy"] >= static["accuracy"] - 1e-9
    assert mga["speedup_over_static"] >= 0.9 * static["speedup_over_static"]
    assert mga["accuracy"] >= 60.0

"""Figure 4: OpenMP thread prediction, k-fold cross validation (reduced size).

Expected shape (paper): MGA and the other DL tuners are much closer to the
oracle than the Default configuration and the search/Bayesian tuners.
"""

from repro.evaluation.metrics import geometric_mean
from repro.pipeline import run_experiment


def test_fig4_thread_prediction(once, capsys):
    run = once(run_experiment, "fig4", overrides=dict(
        max_kernels=14, num_inputs=4, folds=3, epochs=25, budget=5))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    table = result["normalized"]
    mga = geometric_mean([v for v in table["MGA"] if v > 0])
    default = geometric_mean([v for v in table["Default"] if v > 0])
    opentuner = geometric_mean([v for v in table["OpenTuner"] if v > 0])
    assert mga > default            # DL tuning beats the default config
    assert mga > 0.7                # close to the oracle
    assert mga >= opentuner - 0.05  # at least on par with per-loop search

"""Figure 7 + Table 2: larger search space, leave-one-application-out
(reduced: fewer applications / inputs, full Table-2 space).

The reduced experiment needs 4 inputs per application and 60 training epochs
for the MGA tuner to separate from noise (with the seed's 3 inputs / 20
epochs the leave-one-application-out folds train on 21 samples and the
quality assertions are a coin flip).  ``REPRO_BENCH_QUICK=1`` runs a tiny
smoke configuration that only checks the experiment machinery end to end.
"""

from repro.pipeline import run_experiment

from conftest import QUICK


def test_fig7_larger_search_space(once, capsys):
    kwargs = (dict(max_apps=4, num_inputs=2, epochs=4, budget=4)
              if QUICK else dict(max_apps=8, num_inputs=4, epochs=60, budget=8))
    run = once(run_experiment, "fig7", overrides=kwargs)
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    summary = result["summary"]
    assert summary["search_space_size"] == 7 * 3 * 7
    if QUICK:
        assert summary["num_apps"] == kwargs["max_apps"]
        return
    # MGA achieves a large fraction of the oracle speedup overall
    assert summary["geomean_mga"] >= 0.7 * summary["geomean_oracle"]
    # and is within the oracle for at least half of the applications at 0.85
    assert summary["apps_above_085"] >= summary["num_apps"] // 2

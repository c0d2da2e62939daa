"""Figure 1 (motivation): kmeans thread sweep + best-thread distribution."""

from repro.pipeline import run_experiment


def test_fig1_motivation(once, capsys):
    run = once(run_experiment, "fig1",
               overrides={"max_kernels": 20, "num_inputs": 8})
    fig1a, fig1b = run.result["fig1a"], run.result["fig1b"]
    with capsys.disabled():
        print()
        print(run.text)
    # shape checks: tuning matters for a substantial fraction of combinations
    assert fig1b["percent_non_default"] > 30.0
    assert min(fig1a, key=fig1a.get) != 1

"""Figure 5: static vs dynamic feature ablation (reduced size)."""

from repro.pipeline import run_experiment


def test_fig5_static_dynamic_ablation(once, capsys):
    run = once(run_experiment, "fig5", overrides=dict(
        max_kernels=12, num_inputs=4, epochs=25, budget=5))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    # shape: the full MGA model (static + dynamic) does not lose to the
    # static-only variant, and everything stays below the oracle
    assert result["MGA"] >= result["MGA-Static"] - 0.1
    assert result["Oracle"] >= result["MGA"] - 1e-9
    assert result["MGA"] >= 0.95

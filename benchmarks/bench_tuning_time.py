"""§4.1.4: tuning-cost comparison (MGA vs search tuners)."""

from repro.pipeline import run_experiment


def test_tuning_cost_comparison(once, capsys):
    run = once(run_experiment, "tuning_time", overrides=dict(
        budget=8, train_kernels=8, train_inputs=3, epochs=8))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    mga = result["MGA"]
    for name in ("ytopt", "OpenTuner", "BLISS"):
        assert result[name]["kernel_executions"] > mga["kernel_executions"]
        assert (result[name]["simulated_tuning_seconds"]
                >= mga["simulated_tuning_seconds"])

"""Figure 8: counter comparison (default vs tuned config) for 2mm."""

from repro.pipeline import run_experiment


def test_fig8_counters(once, capsys):
    run = once(run_experiment, "fig8")
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    assert result["predicted_time"] <= result["default_time"]
    norm = result["normalized_counters"]
    assert norm["PAPI_L3_LDM"][0] <= norm["PAPI_L3_LDM"][1] * 1.2

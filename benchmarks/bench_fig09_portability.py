"""Figure 9: µ-architecture portability (train Comet Lake, predict Broadwell /
Sandy Bridge) at reduced size."""

from repro.evaluation.metrics import geometric_mean
from repro.pipeline import run_experiment


def test_fig9_microarch_portability(once, capsys):
    run = once(run_experiment, "fig9", overrides=dict(
        max_kernels=10, num_inputs=3, epochs=20))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    for arch, data in result["per_arch"].items():
        pred = geometric_mean(data["predicted"])
        oracle = geometric_mean(data["oracle"])
        assert pred > 0.6 * oracle      # portable predictions remain useful
        assert pred >= 0.75             # and do not regress far below the default

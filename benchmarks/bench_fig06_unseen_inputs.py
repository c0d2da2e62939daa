"""Figure 6: unseen loops and unseen input sizes (reduced size)."""

from repro.evaluation.metrics import geometric_mean
from repro.pipeline import run_experiment


def test_fig6_unseen_loops_and_inputs(once, capsys):
    run = once(run_experiment, "fig6", overrides=dict(
        max_kernels=12, num_inputs=5, folds=3, epochs=25))
    result = run.result
    with capsys.disabled():
        print()
        print(run.text)
    norm = geometric_mean([v for v in result["MGA_normalized"] if v > 0])
    assert norm > 0.6               # still a usable fraction of the oracle
    assert all(m <= o + 1e-9 for m, o in zip(result["MGA"], result["Oracle"]))

"""Figure 7: proportion of writes triggering filter-cache invalidates."""

from conftest import run_once

from repro.experiments.figures import figure7


def test_figure7_write_invalidate_rate(benchmark, options):
    result = run_once(benchmark, figure7, **options)
    print("\n" + result.to_markdown())
    rates = result.series["write fcache-invalidate rate"]
    # Rates are proportions, and most stores hit data already held privately,
    # so the broadcast is needed for well under half of the writes on average
    # (the paper's Figure 7 tops out around 0.6 for the worst workloads).
    assert all(0.0 <= rate <= 1.0 for rate in rates.values())
    mean = sum(rates.values()) / len(rates)
    assert mean < 0.6

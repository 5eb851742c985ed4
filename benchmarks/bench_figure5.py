"""Figure 5: filter-cache size sweep (fully associative), Parsec."""

from conftest import run_once

from repro.experiments.figures import figure5


def test_figure5_filter_cache_size_sweep(benchmark, options):
    result = run_once(benchmark, figure5, **options)
    print("\n" + result.to_markdown())
    # The paper: tiny filter caches hurt badly, 2048 bytes is enough that no
    # benchmark slows down appreciably.
    smallest = result.geomeans["64B"]
    tuned = result.geomeans["2048B"]
    assert tuned <= smallest

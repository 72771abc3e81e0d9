"""The repository's benchmark: out-of-core training epochs and fleet
serving measured end to end, with per-layer attribution taken from
outside the program. See ``bench/README.md`` and ``BENCHMARK.json``."""

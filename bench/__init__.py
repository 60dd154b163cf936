"""Outside-in benchmark of the whole repro stack; see bench/README.md."""

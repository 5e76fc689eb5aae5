//! Simulator benchmarks: the `kernel_bench` perf snapshot lives in
//! `src/bin/`, the criterion component micro-benches in `benches/`.

#!/bin/bash
# Paper-figure benches (benchmarks/README.md). The end-to-end benchmark
# of record is separate: python3 perf/run.py (perf/README.md).
cd "$(dirname "$0")/.." || exit 1
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
echo "BENCH_RUN_COMPLETE" >> bench_output.txt

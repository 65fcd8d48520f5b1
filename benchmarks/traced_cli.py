#!/usr/bin/env python3
"""Run one ``qvqpp`` CLI command with every layer traced, then write the spans.

    python3 benchmarks/traced_cli.py SPANS.jsonl predict --config cfg.yaml

Exits with the command's own exit code; the spans file is written either way.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_trace  # noqa: E402
import qvqpp.cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    try:
        return qvqpp.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the batch evaluation over the committed fixture pairs and write a
results directory (per-pair JSON, summary.csv, summary.json).

This is the offline stand-in for a corpus-scale run: the pair list matches
tests/fixtures/expected_breakdowns.json, so the printed averages can be
checked against the frozen oracle values by eye.

Usage:  python3 scripts/evaluate_fixture_corpus.py [results_dir] [--jobs N]
"""

import argparse
import json
from pathlib import Path

from bpmnkit.batch import batch_evaluate, render_report
from bpmnkit.embeddings import HashingEmbedder

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"


def fixture_pairs() -> list[tuple[Path, Path]]:
    """The (truth, reconstruction) fixture paths of expected_breakdowns.json, in its order."""
    expected = json.loads((FIXTURES / "expected_breakdowns.json").read_text())
    return [(FIXTURES / f"{left}.bpmn", FIXTURES / f"{right}.bpmn")
            for left, right in (key.split("__") for key in expected["pairs"])]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", nargs="?", default="results")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    expected = json.loads((FIXTURES / "expected_breakdowns.json").read_text())
    report = batch_evaluate(fixture_pairs(), HashingEmbedder(), jobs=args.jobs,
                            results_dir=args.results_dir)
    print(render_report(report, "csv").decode())
    for dim, value in report.averages.items():
        drift = abs(value - expected["averages"][dim])
        print(f"{dim:20s} {value:.10f}  (|delta| vs oracle {drift:.2e})")


if __name__ == "__main__":
    main()

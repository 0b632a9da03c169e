"""bpmnkit benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload corpus-evaluate --seed 1 --seconds 12 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
It generates the workload's inputs from --seed, computes the expected scores
with scripts/similarity_oracle.py, measures set-up time in fresh processes,
runs the workload for --seconds in a worker process and checks every output.
The last line on stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
measured untraced; with --trace 1 they are the per-layer ones from a traced
run (see README.md). Progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("corpus-evaluate", "compare-large", "pipeline-mock")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "peak_rss_mb": "MB"}
# Set-up probes before and after the workload, so a burst of load on the
# machine moves at most a few of them.
SETUP_PROBES = {"full": (4, 3), "toy": (1, 1)}
PROBE_TIMEOUT = 60
WORKER_GRACE = 120  # seconds a worker may run past --seconds (last cycle, checks)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def oracle_breakdowns(pairs: list[list[str]], inputs: Path) -> list[dict]:
    """Expected breakdowns from the independent scipy oracle (read-only)."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "scripts")]
    import similarity_oracle
    from bpmnkit.embeddings import HashingEmbedder

    embedder = HashingEmbedder()
    return [similarity_oracle.breakdown(inputs / a, inputs / b, embedder) for a, b in pairs]


def setup_seconds(count: int) -> list[float]:
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), "--setup-probe"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; toy is for selftest.py")
    parser.add_argument("--inject-fault", choices=("wrong-score",),
                        help="perturb every compare result (selftest.py)")
    args = parser.parse_args(argv)

    needed = [REPO / "src" / "bpmnkit" / "__init__.py", REPO / "scripts" / "similarity_oracle.py"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        log(f"error: bpmnkit sources not found: {', '.join(missing)}")
        return 2

    runs = HERE / "_work" / "runs"
    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, runs: Path) -> int:
    inputs = work / "inputs"
    manifest = gen.write_inputs(args.workload, args.seed, args.scale, inputs)
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.scale}"
    (runs / f"{stem}.inputs.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                              encoding="utf-8")
    digest = hashlib.sha256(json.dumps(manifest["sha256"], sort_keys=True).encode()).hexdigest()
    log(f"{args.workload} seed={args.seed}: {len(manifest['sha256'])} inputs, "
        f"sha256 of input hashes {digest}")

    spec = {"workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
            "work": str(inputs), "result": str(work / "result.json"),
            "trace_file": str(runs / f"{stem}.spans.jsonl"), "fault": args.inject_fault,
            "jobs": len(os.sched_getaffinity(0))}
    if args.workload in ("corpus-evaluate", "compare-large"):
        spec["pairs"] = manifest["pairs"]
        spec["oracle"] = oracle_breakdowns(manifest["pairs"], inputs)
    else:
        spec["cases"] = manifest["cases"]
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    before, after = (0, 0) if args.trace else SETUP_PROBES[args.scale]
    setup = setup_seconds(before)
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=args.seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired:
        log("error: the workload did not finish in time")
        return 1
    if done.stdout:
        log(done.stdout.rstrip())
    if done.returncode != 0:
        log(f"error: workload process exited with {done.returncode}")
        return 1
    setup += setup_seconds(after)
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))

    for failure in result["failures"][:10]:
        log(f"FAILED {failure}")
    attempted = result["attempted"]
    failed = min(result["failed"], attempted)
    if args.trace:
        if result["missing_spans"]:
            log(f"error: expected spans never fired on {args.workload}: "
                + ", ".join(result["missing_spans"]))
            return 1
        log(f"traced {attempted} ops, {result['spans']} spans -> {result['trace_file']}")
        log(f"{'span':42s} {'calls/op':>9s} {'self ms/op':>11s}")
        for name, (calls, self_ms) in result["self_time"].items():
            log(f"{name:42s} {calls:9.2f} {self_ms:11.3f}")
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in layers.METRICS.items()}
    else:
        latencies = result["latencies"]
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": attempted / result["busy"],
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        if result["oracle_max_abs_diff"] is not None:
            log(f"largest |score - oracle| over all compared pairs: "
                f"{result['oracle_max_abs_diff']:.3e}")
        log(f"{attempted} ops, {failed} failed; setup samples "
            + ", ".join(f"{s:.4f}" for s in setup))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

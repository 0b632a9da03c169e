"""Self-test of the benchmark at toy sizes (under a minute on two cores).

    python3 perfbench/selftest.py

Checks that the generated truth models are compliant and build without
warnings and that the pipeline models carry exactly the seeded R1-R3 defects;
that every workload prints every metric named in BENCHMARK.json with its
unit, in both modes, with no failed op; that the same seed gives the same
input hashes and another seed other ones; that a deliberately wrong score is
caught as failed ops; and that the benchmark refuses to run without the
bpmnkit sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SCRATCH = HERE / "_work" / "selftest"


def bench(*args: str, cwd: Path = REPO, script: Path = HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done, result


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for workload in run.WORKLOADS:
        first = gen.write_inputs(workload, 7, "toy", SCRATCH / "a")["sha256"]
        again = gen.write_inputs(workload, 7, "toy", SCRATCH / "b")["sha256"]
        other = gen.write_inputs(workload, 8, "toy", SCRATCH / "c")["sha256"]
        expect(first == again, f"{workload}: seed 7 twice gives identical input hashes",
               failures)
        expect(first != other, f"{workload}: seed 8 gives other inputs", failures)

    sys.path.insert(0, str(REPO / "src"))
    from bpmnkit import build_graph, parse, validate

    clean = [truth for _, truth, _ in gen.corpus(5, "full")]
    clean += [a for _, a, _ in gen.compare_pairs(5, "full")]
    reports = [(validate(parse(x)), build_graph(parse(x))[1]) for x in clean]
    expect(all(r.compliant and not warnings for r, warnings in reports),
           f"{len(clean)} generated truth models are compliant and build without warnings",
           failures)
    codes = [sorted({d.code.value for d in validate(parse(case.source)).diagnostics})
             for case in gen.pipeline_cases(5, "full")]
    expect(all(c == ["R1_DEFAULT_FLOW", "R2_CONDITION_EXPR", "R3_DATA_REF_ORDER"] for c in codes),
           "every pipeline model carries exactly the seeded R1, R2 and R3 defects", failures)

    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(run.WORKLOADS), "BENCHMARK.json lists the three workloads", failures)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            done, result = bench("--workload", workload, "--seed", "3", "--trace", str(trace),
                                 "--scale", "toy")
            label = f"{workload} --trace {trace}"
            if result is None:
                expect(False, f"{label}: ran ({done.stderr[-500:]})", failures)
                continue
            printed = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(printed == units, f"{label}: prints every {key} metric with its unit",
                   failures)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: {result['attempted']} ops, none failed", failures)

    for workload in ("corpus-evaluate", "compare-large"):
        done, result = bench("--workload", workload, "--seed", "3", "--scale", "toy",
                             "--inject-fault", "wrong-score")
        caught = result is not None and result["failed"] > 0 and not result["correct"]
        expect(caught, f"{workload}: a score off by 1e-6 is counted as failed ops", failures)

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
    done, result = bench("--workload", "corpus-evaluate", "--seed", "1", cwd=bare,
                         script=bare / HERE.name / "run.py")
    expect(done.returncode != 0 and result is None,
           "without the bpmnkit sources it exits non-zero and prints no result", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in a process of its own, so its peak memory is that of
the workload alone. Started by run.py as

    python3 perfbench/worker.py SPEC.json     # timed run, writes spec["result"]
    python3 perfbench/worker.py --setup-probe # prints bpmnkit set-up seconds

A run is one client in a closed loop: each op starts when the previous one
returned. Inputs are visited in whole cycles, so every run times the same
multiset of ops whatever its length. Every op's output is checked; the check
is not part of the op's time.
"""

from __future__ import annotations

import time

_PROBE_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def setup_probe() -> None:
    """Set-up as a user pays it: import bpmnkit and its CLI, then build the
    embedding provider and a chat client."""
    import bpmnkit  # noqa: F401
    import bpmnkit.cli  # noqa: F401
    from bpmnkit.embeddings import ProviderConfig, make_provider
    from bpmnkit.llm import MockChatClient

    make_provider(ProviderConfig())
    MockChatClient([])
    print(repr(time.perf_counter() - _PROBE_START))


if __name__ == "__main__" and sys.argv[1:] == ["--setup-probe"]:
    setup_probe()
    sys.exit(0)

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

from bpmnkit import batch, cli, compliance, embeddings, layout, llm, model  # noqa: E402
from bpmnkit import pipeline, similarity, xmlio  # noqa: E402

import layers  # noqa: E402
from tracer import Patches, SpanTree, Tracer  # noqa: E402

MODULES = {"xmlio": xmlio, "model": model, "compliance": compliance, "layout": layout,
           "embeddings": embeddings, "similarity": similarity, "llm": llm,
           "pipeline": pipeline, "batch": batch, "cli": cli}

DIMENSIONS = ("structural", "type_distribution", "semantic_name", "semantic_type",
              "semantic_name_type", "overall")
TOLERANCE = 1e-9

# Checks call the originals, so they add no spans to a traced run.
_validate = compliance.validate
_parse = xmlio.parse


def check_breakdown(label: str, got: dict, want: dict) -> tuple[str | None, float]:
    """(problem or None, largest |score - oracle|) for one breakdown."""
    worst = 0.0
    for dim in DIMENSIONS:
        value = got.get(dim)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            return f"{label}: {dim}={value!r} is not a score in [0, 1]", worst
        worst = max(worst, abs(value - want[dim]))
        if abs(value - want[dim]) > TOLERANCE:
            return f"{label}: {dim}={value!r} differs from the oracle {want[dim]!r}", worst
    return None, worst


@dataclasses.dataclass
class Cycle:
    latencies: list[float]  # seconds, one per op
    busy: float  # wall seconds the client spent inside ops
    failures: list[str]  # what went wrong
    failed: int  # ops that raised or failed their check


class Workload:
    """A fixed list of ops run one after the other; subclasses define `_op`."""

    ROOT = "bench.op"  # span name of one op in a traced run
    region = None  # Tracer.region while a traced cycle runs
    oracle_diff: float | None = None  # largest |score - oracle| seen
    count = 0

    def _region(self):
        return self.region(self.ROOT) if self.region else contextlib.nullcontext()

    def _op(self, index: int, failures: list[str]) -> float:
        raise NotImplementedError

    def _score(self, label: str, got: dict, want: dict) -> str | None:
        problem, worst = check_breakdown(label, got, want)
        self.oracle_diff = max(self.oracle_diff or 0.0, worst)
        return problem

    def warmup(self) -> None:
        self._op(0, [])

    def cycle(self) -> Cycle:
        failures: list[str] = []
        failed = 0
        latencies = []
        for index in range(self.count):
            before = len(failures)
            latencies.append(self._op(index, failures))
            failed += len(failures) > before
        return Cycle(latencies, sum(latencies), failures, failed)

    def final_check(self) -> list[str]:
        return []

    def traced_checks(self, per_op: list[dict]) -> tuple[list[str], int]:
        return [], 0


class CorpusEvaluate(Workload):
    """batch_evaluate over the whole corpus at jobs = nproc; an op is a pair."""

    ROOT = "batch.pair"

    def __init__(self, spec: dict, work: Path):
        self.work = work
        self.pairs = [(work / a, work / b) for a, b in spec["pairs"]]
        self.ids = []
        seen: dict[str, int] = {}
        for truth, _ in self.pairs:
            count = seen.get(truth.stem, 0)
            seen[truth.stem] = count + 1
            self.ids.append(truth.stem if count == 0 else f"{truth.stem}_{count}")
        self.oracle = dict(zip(self.ids, spec["oracle"]))
        self.jobs = spec["jobs"]
        self.provider = embeddings.make_provider(embeddings.ProviderConfig())
        # times each pair, in the untraced runs too
        self.timing = Tracer()
        module, name, span = layers.PAIR_TARGET
        self.timing.install_function(MODULES[module], name, span)
        self.calls = 0
        self.last_report: dict | None = None

    def _evaluate(self, pairs, jobs: int):
        self.calls += 1
        out = self.work / "results" / f"c{self.calls}"
        try:
            start = time.perf_counter()
            report = batch.batch_evaluate(pairs, self.provider, jobs=jobs, results_dir=out)
            return report, time.perf_counter() - start
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def warmup(self) -> None:
        self._evaluate(self.pairs[:2], self.jobs)

    def cycle(self) -> Cycle:
        first = len(self.timing.spans)
        report, busy = self._evaluate(self.pairs, self.jobs)
        latencies = [s.duration for s in self.timing.spans[first:]]
        failures = [f"{e.get('model_id')}: {e.get('error')}" for e in report.errors]
        records = {r["model_id"]: r for r in report.per_model}
        failed = 0
        for pair_id in self.ids:
            record = records.get(pair_id)
            if record is None:
                problem = f"{pair_id}: no breakdown in the report"
            else:
                problem = self._score(pair_id, record["breakdown"], self.oracle[pair_id])
            if problem:
                failures.append(problem)
                failed += 1
        if len(latencies) != len(self.pairs):
            failures.append(f"{len(latencies)} pair evaluations timed for "
                            f"{len(self.pairs)} pairs")
            failed = len(self.pairs)
        self.last_report = report.to_dict()
        return Cycle(latencies, busy, failures, failed)

    def final_check(self) -> list[str]:
        """An untimed jobs=1 run must give the same report as jobs=nproc."""
        report, _ = self._evaluate(self.pairs, 1)
        if report.to_dict() != self.last_report:
            return [f"jobs=1 report differs from the jobs={self.jobs} report"]
        return []


class CompareLarge(Workload):
    """`bpmnkit compare A B --embed-fallback` in-process; an op is one call."""

    def __init__(self, spec: dict, work: Path):
        self.pairs = [(work / a, work / b) for a, b in spec["pairs"]]
        self.oracle = spec["oracle"]
        self.count = len(self.pairs)

    def _op(self, index: int, failures: list[str]) -> float:
        a, b = self.pairs[index]
        label = f"compare {a.name} {b.name}"
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), self._region():
                start = time.perf_counter()
                code = cli.main(["compare", str(a), str(b), "--embed-fallback"])
                elapsed = time.perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        if code != 0:
            failures.append(f"{label}: exit code {code}")
            return elapsed
        try:
            got = json.loads(out.getvalue())
        except ValueError as exc:
            failures.append(f"{label}: output is not JSON ({exc})")
            return elapsed
        problem = self._score(label, got, self.oracle[index])
        if problem:
            failures.append(problem)
        return elapsed


def _ids_by_element(doc) -> dict:
    return {e.get("id"): e for e in doc.root.iter() if e.get("id")}


class PipelineMock(Workload):
    """translate -> correct -> describe -> reconstruct per model against a
    scripted MockChatClient; an op is one model through all four."""

    def __init__(self, spec: dict, work: Path):
        self.cases = []
        for name in spec["cases"]:
            self.cases.append((
                name,
                (work / f"{name}.bpmn").read_bytes(),
                json.loads((work / f"{name}.script.json").read_text(encoding="utf-8")),
                json.loads((work / f"{name}.expected.json").read_text(encoding="utf-8")),
            ))
        self.count = len(self.cases)

    def _op(self, index: int, failures: list[str]) -> float:
        name, source, script, expected = self.cases[index]
        client = llm.MockChatClient(script)
        start = time.perf_counter()
        try:
            with self._region():
                start = time.perf_counter()
                doc = xmlio.parse(source)
                translated, warnings = pipeline.translate_model(doc, client)
                corrected = pipeline.correct_model(translated, client)
                description = pipeline.generate_description(corrected.document, client)
                rebuilt, _ = pipeline.reconstruct(description, client)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        problems = self._check(expected, _parse(source), translated, warnings, corrected,
                               description, rebuilt, client)
        failures.extend(f"{name}: {p}" for p in problems)
        return elapsed

    @staticmethod
    def _check(expected, source, translated, warnings, corrected, description, rebuilt,
               client) -> list[str]:
        problems = []
        if len(warnings) != expected["untranslated_locations"]:
            problems.append(f"{len(warnings)} translation warnings, expected "
                            f"{expected['untranslated_locations']}")
        for stage, doc in (("translated", translated), ("corrected", corrected.document)):
            elements = _ids_by_element(doc)
            wrong = [eid for eid, label in expected["labels"].items()
                     if eid not in elements or elements[eid].get("name", "") != label]
            if wrong:
                problems.append(f"{stage} labels differ at {wrong[:5]}")
        if not corrected.report.compliant or not _validate(corrected.document).compliant:
            problems.append("corrected model is not compliant")
        if corrected.document.element_ids() != source.element_ids():
            problems.append("correction changed element ids")
        accepted = [entry["accepted"] for entry in corrected.log]
        if corrected.iterations != expected["iterations"] or accepted != expected["accepted"]:
            problems.append(f"correction ran {corrected.iterations} iteration(s) with "
                            f"accepted={accepted}, expected {expected['accepted']}")
        if description != expected["description"]:
            problems.append("description differs from the scripted one")
        if not _validate(rebuilt).compliant:
            problems.append("reconstructed model is not compliant")
        di_ids = {e.get("id") for e in rebuilt.root.iter()
                  if e.tag.startswith("{" + xmlio.BPMNDI_NS) and e.get("id")}
        if rebuilt.element_ids() - di_ids != set(expected["semantic_ids"]):
            problems.append("reconstructed model has other element ids than stage 6")
        shapes = [e.get("bpmnElement") for e in rebuilt.root.iter()
                  if e.tag == "{%s}BPMNShape" % xmlio.BPMNDI_NS]
        if sorted(shapes) != sorted(expected["flow_nodes"]):
            problems.append(f"layout has {len(shapes)} shapes for "
                            f"{len(expected['flow_nodes'])} flow nodes")
        if client.call_count != expected["script_length"]:
            problems.append(f"{client.call_count} LLM calls for a script of "
                            f"{expected['script_length']}")
        return problems

    def traced_checks(self, per_op: list[dict]) -> tuple[list[str], int]:
        """Exact counts the traced run must reproduce, op by op."""
        problems = []
        failed = 0
        for (name, _, _, expected), metrics in zip(itertools.cycle(self.cases), per_op):
            wrong = [f"{name}: {metric}={metrics[metric]}, expected {expected[key]}"
                     for metric, key in (("llm.complete_calls", "script_length"),
                                         ("llm.schema_reprompts", "schema_reprompts"),
                                         ("xmlio.reinsert_fuzzy_lookups", "fuzzy_lookups"))
                     if metrics[metric] != expected[key]]
            problems += wrong
            failed += bool(wrong)
        return problems, failed


WORKLOADS = {"corpus-evaluate": CorpusEvaluate, "compare-large": CompareLarge,
             "pipeline-mock": PipelineMock}


def inject_wrong_score(patches: Patches) -> None:
    """Self-test fault: every compare result is off by 1e-6 in one dimension."""

    def make(compare):
        def wrong(*args, **kwargs):
            result = compare(*args, **kwargs)
            return dataclasses.replace(result, semantic_type=result.semantic_type + 1e-6)
        return wrong

    patches.function(similarity, "compare", make)


def run_untraced(workload, seconds: float) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    failed = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        cycle = workload.cycle()
        latencies += cycle.latencies
        busy += cycle.busy
        failures += cycle.failures
        failed += cycle.failed
        if time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    final = workload.final_check()
    failures += final
    failed += bool(final)
    return {"latencies": latencies, "busy": busy, "failures": failures, "failed": failed,
            "attempted": len(latencies), "peak_rss_kb": peak_kb,
            "oracle_max_abs_diff": workload.oracle_diff}


def run_traced(workload, seconds: float, workload_name: str, trace_path: Path) -> dict:
    """Alternate untraced and traced cycles; the per-layer numbers come from
    the traced ones, the overhead from the difference of the two."""
    tracer = Tracer()
    failures: list[str] = []
    plain = traced = 0.0
    plain_ops = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        cycle = workload.cycle()
        plain += cycle.busy
        plain_ops += len(cycle.latencies)
        failures += cycle.failures
        failed += cycle.failed
        attempted += len(cycle.latencies)
        layers.install(tracer, MODULES)
        workload.region = tracer.region
        try:
            cycle = workload.cycle()
        finally:
            workload.region = None
            tracer.uninstall()
        traced += cycle.busy
        failures += cycle.failures
        failed += cycle.failed
        attempted += len(cycle.latencies)
        if time.perf_counter() >= deadline:
            break

    fired = {s.name for s in tracer.spans}
    missing = [name for name in layers.EXPECTED[workload_name] if name not in fired]
    tree = SpanTree(tracer.spans)
    roots = [s for s in tracer.spans if s.name == workload.ROOT]
    per_op = [layers.op_metrics(tree, root) for root in roots]
    per_batch = [layers.batch_metrics(tree, s) for s in tracer.spans
                 if s.name == "batch.batch_evaluate"]
    problems, wrong = workload.traced_checks(per_op)
    failures += problems
    failed += wrong
    metrics = layers.summarize(per_op, per_batch)
    metrics["trace.overhead_ms"] = (traced - plain) / plain_ops * 1000
    metrics["trace.overhead_ratio"] = (traced - plain) / plain
    tracer.write(trace_path)
    table = layers.self_time_table(tree, roots)
    return {"metrics": metrics, "missing_spans": missing, "failures": failures,
            "failed": failed, "attempted": attempted, "self_time": table,
            "spans": len(tracer.spans), "trace_file": str(trace_path)}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    patches = Patches()
    if spec.get("fault") == "wrong-score":
        inject_wrong_score(patches)
    workload = WORKLOADS[spec["workload"]](spec, work)
    workload.warmup()
    if spec["trace"]:
        result = run_traced(workload, spec["seconds"], spec["workload"],
                            Path(spec["trace_file"]))
    else:
        result = run_untraced(workload, spec["seconds"])
    patches.restore()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

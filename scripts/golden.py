#!/usr/bin/env python3
"""Recompute the named digests of bpmnkit's outputs and freeze them into
tests/fixtures/golden.json.

A digest is a sha256 over a fixed set of outputs; each function below gives
its recipe. tests/test_golden.py recomputes them and names every digest that
moved. A change that moves one on purpose reruns this script and says which
digest moved and why. tests/fixtures/expected_breakdowns.json stays the
exactness oracle: it says the scores are right, the digests say that nothing
else moved.

Encoding: a digest takes a sequence of items, each preceded by its length. A
float enters formatted to 10 decimal places, a string as UTF-8, bytes as they
are, and a JSON value or file re-encoded with its floats so formatted. The
rounding keeps a digest independent of the BLAS kernel in practice: which
kernel numpy's matrix product runs moves some scores in their last bits (up
to 2.2e-16), which flips the 10th decimal only for a score that sits at a
rounding boundary.

Run from the repository root:  python3 scripts/golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT = REPO / "tests" / "fixtures" / "golden.json"
sys.path.insert(0, str(REPO / "perfbench"))  # the benchmark's input generator, read only

import gen  # noqa: E402
from evaluate_fixture_corpus import fixture_pairs  # noqa: E402

from bpmnkit import batch, pipeline, similarity  # noqa: E402
from bpmnkit.compliance import validate  # noqa: E402
from bpmnkit.embeddings import HashingEmbedder  # noqa: E402
from bpmnkit.llm import MockChatClient  # noqa: E402
from bpmnkit.model import build_graph  # noqa: E402
from bpmnkit.xmlio import parse, serialize  # noqa: E402

CHECKOUT = b"<checkout>"  # stands for the repository's path in output files


def _rounded(value):
    if isinstance(value, float):
        return f"{value:.10f}"
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


class Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, *items: float | str | bytes) -> None:
        for item in items:
            item = _rounded(item)
            if isinstance(item, str):
                item = item.encode("utf-8")
            self._sha.update(b"%d:" % len(item))
            self._sha.update(item)

    def add_json(self, value) -> None:
        self.add(json.dumps(_rounded(value), ensure_ascii=False))

    def add_file(self, name: str, data: bytes) -> None:
        """A file's name, then its content: a .json file as one JSON value,
        a .jsonl file as one per line, any other as its bytes."""
        self.add(name)
        if name.endswith(".json"):
            self.add_json(json.loads(data))
        elif name.endswith(".jsonl"):
            for line in data.splitlines():
                self.add_json(json.loads(line))
        else:
            self.add(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _graph(data: bytes):
    return build_graph(parse(data))[0]


def breakdowns() -> str:
    """`breakdowns`: the six scores of 590 similarity breakdowns, in order.

    1. ``compare(a, b, HashingEmbedder(), context)`` for ``context`` True,
       then False, and for every ordered pair (a, b) of the 16
       tests/fixtures/*.bpmn graphs sorted by path, self-pairs included (512).
    2. For seed 1, then 51: ``compare(truth, reconstruction,
       HashingEmbedder())`` over ``gen.compare_pairs(seed, "full")``, then over
       every reconstruction of ``gen.corpus(seed, "full")`` (2 x 39).

    Graphs are ``build_graph(parse(bytes))[0]``. The sha256 of
    ``json.dumps([b.to_dict() for b in breakdowns])`` over the same list is
    this recipe with exact float bits.
    """
    embedder = HashingEmbedder()
    paths = sorted((REPO / "tests" / "fixtures").glob("*.bpmn"))
    fixtures = [_graph(path.read_bytes()) for path in paths]
    results = [similarity.compare(a, b, embedder, context)
               for context in (True, False) for a in fixtures for b in fixtures]
    for seed in (1, 51):
        pairs = [(truth, reco) for _, truth, reco in gen.compare_pairs(seed, "full")]
        pairs += [(truth, reco) for _, truth, recos in gen.corpus(seed, "full") for reco in recos]
        results += [similarity.compare(_graph(truth), _graph(reco), embedder)
                    for truth, reco in pairs]
    digest = Digest()
    for result in results:
        digest.add(*result.to_dict().values())
    return digest.hexdigest()


def pipeline_outputs() -> str:
    """`pipeline`: everything the LLM pipeline produces for the 28 cases of
    ``gen.pipeline_cases(seed, "full")``, seed 1 then 61.

    Each case runs as the pipeline-mock benchmark runs it, against
    ``MockChatClient(case.script)``: ``translate_model`` of the parsed source,
    ``correct_model`` of the translation, ``generate_description`` of the
    corrected model, and ``reconstruct(description, client, run_dir=tmp)``.
    Per case, in order: its name; the translated XML and each translation
    warning; the corrected XML, its compliance report and each correction-log
    entry; the description; the reconstructed XML and its compliance report;
    the role and content of every message of every call in ``client.calls``;
    and every file in ``tmp`` by sorted name.
    """
    digest = Digest()
    for seed in (1, 61):
        for case in gen.pipeline_cases(seed, "full"):
            client = MockChatClient(case.script)
            translated, warnings = pipeline.translate_model(parse(case.source), client)
            corrected = pipeline.correct_model(translated, client)
            description = pipeline.generate_description(corrected.document, client)
            with tempfile.TemporaryDirectory() as tmp:
                rebuilt, _ = pipeline.reconstruct(description, client, run_dir=tmp)
                files = [(path.name, path.read_bytes()) for path in sorted(Path(tmp).iterdir())]
            digest.add(case.name, serialize(translated), *warnings, serialize(corrected.document))
            digest.add_json(corrected.report.to_dict())
            for entry in corrected.log:
                digest.add_json(entry)
            digest.add(description, serialize(rebuilt))
            digest.add_json(validate(rebuilt).to_dict())
            for messages in client.calls:
                for message in messages:
                    digest.add(message.role, message.content)
            for name, data in files:
                digest.add_file(name, data)
    return digest.hexdigest()


def fixture_corpus() -> str:
    """`fixture-corpus`: every file ``batch_evaluate`` writes for the pairs of
    scripts/evaluate_fixture_corpus.py with the hashing embedder, at
    ``jobs=1``, then ``jobs=3``: per run, each file by sorted name, with the
    repository's path replaced by ``<checkout>``."""
    digest = Digest()
    for jobs in (1, 3):
        with tempfile.TemporaryDirectory() as tmp:
            batch.batch_evaluate(fixture_pairs(), HashingEmbedder(), jobs=jobs, results_dir=tmp)
            for path in sorted(Path(tmp).iterdir()):
                digest.add_file(path.name, path.read_bytes().replace(str(REPO).encode(), CHECKOUT))
    return digest.hexdigest()


DIGESTS = {"breakdowns": breakdowns, "pipeline": pipeline_outputs,
           "fixture-corpus": fixture_corpus}


def compute(names=tuple(DIGESTS)) -> dict[str, str]:
    return {name: DIGESTS[name]() for name in names}


def moved(names=tuple(DIGESTS)) -> list[str]:
    """The named digests whose recomputed value differs from golden.json."""
    frozen = json.loads(OUTPUT.read_text(encoding="utf-8"))
    return [name for name, value in compute(names).items() if frozen.get(name) != value]


def main():
    digests = compute()
    OUTPUT.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    for name, value in digests.items():
        print(f"{name:15s} {value}")


if __name__ == "__main__":
    main()

"""bpmnkit: validate, repair, reconstruct, and compare BPMN 2.0 models.

The package exports the library names of the README; everything else is
imported from its submodule (``bpmnkit.pipeline``, ``bpmnkit.layout``, ...).
``compare`` and ``HashingEmbedder`` need numpy and load on first use.
"""

import importlib

from .compliance import validate
from .model import build_graph
from .xmlio import parse

__version__ = "0.1.0"

_LAZY = {"compare": "similarity", "HashingEmbedder": "embeddings"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)

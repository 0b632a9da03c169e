"""bpmnkit: validate, repair, reconstruct, and compare BPMN 2.0 models.

The package exports the library names of the README; everything else is
imported from its submodule (``bpmnkit.pipeline``, ``bpmnkit.layout``, ...).
"""

from .compliance import validate
from .embeddings import HashingEmbedder
from .model import build_graph
from .similarity import compare
from .xmlio import parse

__version__ = "0.1.0"

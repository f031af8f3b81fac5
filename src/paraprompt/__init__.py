"""Retrieval-augmented paraphrase prompting toolkit.

The pieces, bottom up: ``textcore`` normalizes and tokenizes text;
``metrics`` scores paraphrases (BLEU, self-BLEU, TER, iBLEU, SARI,
embedding cosine); ``novelty`` buckets pairs into low/medium/high
novelty by TER; ``retrieval`` does exact kNN over sentence embeddings
and returns the rows it finds; ``promptkit`` assembles manual,
exemplar, retrieval-augmented, and novelty-conditioned prompt layouts;
``paramcount`` counts trainable parameters for adaptation methods;
``backend`` talks to generation and embedding services (or a
deterministic mock); ``dataio`` loads and writes the file formats;
``cli`` wires it all into commands.

Of the names exported here, only the four from ``retrieval``
(``RetrievalIndex``, ``build_index``, ``query_knn``, ``query_random``)
need numpy, and only ``index`` and ``generate`` use them. They load
``retrieval`` on first access and are then cached, so ``import
paraprompt`` loads neither numpy nor ``http.client`` and each CLI stage
pays start-up only for the modules it runs.
"""

from .dataio import DatasetSplit, ParaphrasePair
from .novelty import NoveltyClass, NoveltyThresholds, classify, label_dataset
from .promptkit import (
    PromptExample,
    PromptLayout,
    SlotSpec,
    assemble_exemplar,
    assemble_manual,
    assemble_ncrapt,
    assemble_rapt,
    render_text,
)
from .textcore import NormalizationConfig, TokenSeq, normalize

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("RetrievalIndex", "build_index", "query_knn", "query_random"):
        from . import retrieval
        globals()[name] = value = getattr(retrieval, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DatasetSplit",
    "NormalizationConfig",
    "NoveltyClass",
    "NoveltyThresholds",
    "ParaphrasePair",
    "PromptExample",
    "PromptLayout",
    "RetrievalIndex",
    "SlotSpec",
    "TokenSeq",
    "assemble_exemplar",
    "assemble_manual",
    "assemble_ncrapt",
    "assemble_rapt",
    "build_index",
    "classify",
    "label_dataset",
    "normalize",
    "query_knn",
    "query_random",
    "render_text",
    "__version__",
]

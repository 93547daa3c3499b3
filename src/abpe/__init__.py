"""Toolkit for BPE over discrete token streams.

Pipeline: continuous feature rows are discretized by k-means into base
token ids, frequent adjacent units are merged by a trained BPE model, an
n-gram sequence model scores and continues the resulting unit sequences,
and an evaluation suite measures compression, syntax discrimination,
generation diversity, and sample cross-entropy.
"""

__version__ = "0.1.0"

from .bpe import BpeModel
from .codec import REGION_SIZE, tokens_to_unicode, unicode_to_tokens
from .corpus import (
    Corpus,
    FeatureMatrix,
    SynthSpec,
    TokenSequence,
    dump_tokens,
    load_features,
    load_tokens,
    save_features,
    save_tokens,
    synth_corpus,
)
from .errors import FormatError
from .kmeans import KMeansModel
from .metrics import (
    CompressionReport,
    CrossEntropyReport,
    VertReport,
    auto_bleu,
    compression_stats,
    cross_entropy,
    self_bleu,
    shuffle_corrupt,
    syntax_accuracy,
    vert,
)
from .rescore import CandidateSet, RescoreResult, rescore, topx_accuracy
from .slm import NgramModel

__all__ = [
    "BpeModel",
    "CandidateSet",
    "CompressionReport",
    "Corpus",
    "CrossEntropyReport",
    "FeatureMatrix",
    "FormatError",
    "KMeansModel",
    "NgramModel",
    "REGION_SIZE",
    "RescoreResult",
    "SynthSpec",
    "TokenSequence",
    "VertReport",
    "auto_bleu",
    "compression_stats",
    "cross_entropy",
    "dump_tokens",
    "load_features",
    "load_tokens",
    "rescore",
    "save_features",
    "save_tokens",
    "self_bleu",
    "shuffle_corrupt",
    "syntax_accuracy",
    "synth_corpus",
    "tokens_to_unicode",
    "topx_accuracy",
    "unicode_to_tokens",
    "vert",
]

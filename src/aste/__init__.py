"""Aspect sentiment triplet extraction with a distance-biased encoder.

The package is a self-contained numpy implementation: a mini transformer
whose attention can be additively biased by relative or dependency
distance embeddings, a B/I/O + biaffine + grid-decoding triplet parser,
joint training, corpus tooling, and evaluation/benchmark harnesses.
"""

from .data import Corpus, Sentence, Span, Triplet, Vocabulary
from .encoder import EncodedSequence, Encoder, EncoderConfig, count_params
from .evaluation import BenchReport, MatchScores, aggregate, bench_distance, exact_match, score_corpus
from .model import TripletModel
from .numerics import ParamGroup, Tensor, cross_entropy, grad_check, linear, softmax
from .parser import (
    ParserConfig,
    SentimentRelationMap,
    TripletParser,
    build_gold,
    decode_bio,
    decode_grid,
)
from .structure import (
    DependencyGraph,
    StructureConfig,
    dependency_distance_matrix,
    distance_to_index,
    relative_distance_matrix,
)
from .training import TrainConfig, TrainHistory, joint_loss, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "BenchReport", "Corpus", "DependencyGraph", "EncodedSequence", "Encoder",
    "EncoderConfig", "MatchScores", "ParamGroup", "ParserConfig", "Sentence",
    "SentimentRelationMap", "Span", "StructureConfig", "Tensor",
    "TrainConfig", "TrainHistory", "Triplet", "TripletModel", "TripletParser",
    "Vocabulary", "aggregate", "bench_distance", "build_gold", "count_params",
    "cross_entropy", "decode_bio", "decode_grid", "dependency_distance_matrix",
    "distance_to_index", "exact_match", "grad_check", "joint_loss", "linear",
    "lr_at", "relative_distance_matrix", "score_corpus", "softmax", "train",
]

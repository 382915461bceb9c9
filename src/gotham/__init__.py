"""Prototype-based class-incremental node classification on growing graphs.

Training is episodic: k labeled shots per class are extended with random-walk
neighbors, class prototypes are built from the extended supports (optionally
merged with encoded class semantics), and clustering/segregation/alignment
losses shape the metric space. Streaming sessions add few-shot and zero-shot
classes; a frozen teacher distills the previous session's knowledge into the
student. Classification is nearest prototype. A Monte-Carlo verifier checks
the prototype-distortion lower bound on growing graphs.
"""
from .config import RunConfig
from .graphstore import (CSDTable, DatasetBundle, DatasetError, GraphSnapshot,
                         LabelTable, SessionSpec, StreamSchedule, graph_at,
                         load_dataset, synth_generate, write_dataset)
from .prototypes import build_prototype_tensors
from .sampler import (Episode, build_class_split, extend_support,
                      sample_episode, session_supports)
from .trainer import SessionReport, classify, run_stream

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "DatasetBundle", "DatasetError", "GraphSnapshot", "LabelTable",
    "CSDTable", "SessionSpec", "StreamSchedule", "graph_at", "load_dataset",
    "write_dataset", "synth_generate", "build_prototype_tensors", "Episode",
    "build_class_split", "extend_support", "sample_episode",
    "session_supports", "SessionReport", "classify", "run_stream",
    "__version__",
]

"""Prototype-based class-incremental node classification on growing graphs.

Training is episodic: k labeled shots per class are extended with random-walk
neighbors, class prototypes are built from the extended supports (optionally
merged with encoded class semantics), and clustering/segregation/alignment
losses shape the metric space. Streaming sessions add few-shot and zero-shot
classes; a frozen teacher distills the previous session's knowledge into the
student. Classification is nearest prototype. A Monte-Carlo verifier checks
the prototype-distortion lower bound on growing graphs.

The root re-exports nothing: import from the modules (``gotham.trainer``,
...), so that ``gotham.cli`` loads only what a command needs.
"""

__version__ = "0.1.0"

"""slukit: concept tagging over noisy speech transcriptions at desk scale.

Modules map onto the stages of the experiment: synthetic corpus
generation (`grammar`, `corpus`), a recognizer noise channel with
confusion networks (`alignment`), shared token features (`features`),
word-confidence estimation (`confidence`), and metrics and system
combination (`evaluation`).  The two taggers (`crf`, `eda`) and the
command line driver (`cli`) are planned and do not exist yet.
"""

__version__ = "0.1.0"

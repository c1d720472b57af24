"""f0priv: pitch-contour anonymization transforms and linkability metrics.

The toolkit operates on F0 trajectories (uniformly sampled pitch contours
with 0 marking unvoiced frames): it extracts them from WAV audio, applies
nine low-complexity anonymization modifications, computes the
speaker-identifying F0 statistics they are meant to destroy, and quantifies
the remaining speaker linkability with EER and Cllr under the OO/OA/AA
attack scenarios.
"""

from .evaluation import (
    Recording,
    ScenarioReport,
    ScoreSet,
    SpeakerCorpus,
    cllr,
    cllr_min,
    eer,
    run_scenario,
)
from .modifiers import ModifierSpec, apply, post_rules
from .pitch import AudioBuffer, PitchConfig, extract_f0, read_wav
from .spline import SplineModel, fit
from .trajectory import (
    F0Stats,
    F0Trajectory,
    read_f0_csv,
    stats,
    validate,
    voiced_mean,
    write_f0_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "F0Stats",
    "F0Trajectory",
    "ModifierSpec",
    "PitchConfig",
    "Recording",
    "ScenarioReport",
    "ScoreSet",
    "SpeakerCorpus",
    "SplineModel",
    "apply",
    "cllr",
    "cllr_min",
    "eer",
    "extract_f0",
    "fit",
    "post_rules",
    "read_f0_csv",
    "read_wav",
    "run_scenario",
    "stats",
    "validate",
    "voiced_mean",
    "write_f0_csv",
    "__version__",
]

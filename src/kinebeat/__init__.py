"""Motion-to-rhythm extraction and dance-music alignment toolkit.

Each module, and each public name below, loads on first use (PEP 562), so
`import kinebeat.audio` loads audio and what audio imports, and nothing else.
"""

import sys

_PUBLIC = {
    "audio": ["AudioClip", "BeatList", "OnsetEnvelope", "TempoEstimate", "beats_from_rhythm",
              "estimate_tempo", "onset_envelope", "pick_beats", "read_wav"],
    "inversion": ["EncoderParams", "FrozenModel", "ModelDims", "Sample", "TrainingConfig",
                  "batch_loss", "batch_loss_and_gradients", "build_frozen", "gradcheck",
                  "init_encoder_params", "make_teacher_student_dataset", "train"],
    "metrics": ["AggregateReport", "AlignmentReport", "PhaseAlignment", "aggregate_reports",
                "f1_score", "match_beats", "phase_align", "tempo_difference"],
    "pose": ["ClipSpec", "PoseSequence", "interpolate_low_confidence", "parse_pose_file",
             "segment_clips", "serialize_pose_file"],
    "rhythm": ["DirectionalVelocity", "DiscreteAcceleration", "RhythmConfig", "RhythmSequence",
               "TotalAcceleration", "VelocityField", "compute_velocity", "detect_kinematic_beats",
               "direction_discretize", "discrete_acceleration", "extract_rhythm",
               "total_acceleration"],
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is the import statement's own path, which -X importtime reports (importlib's
    # is not); it binds the submodule as an attribute here, so a module name comes here once
    __import__(f"{__name__}.{module}")
    module = sys.modules[f"{__name__}.{module}"]
    return module if name in _PUBLIC else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_PUBLIC, *__all__})

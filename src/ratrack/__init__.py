"""mmWave OFDM sensing simulator and multi-target tracking pipeline."""

from .channel import (
    BeamCodebook,
    SceneConfig,
    TargetTruth,
    advance,
    array_factor,
    default_codebook,
)
from .detector import (
    CfarConfig,
    Cluster,
    DbscanConfig,
    MtiFilter,
    ca_cfar,
    cluster_detections,
    dbscan,
)
from .errors import (
    ConfigError,
    FormatError,
    FrameError,
    NumericalError,
    RatrackError,
    SingularGeometryError,
    StreamError,
)
from .metrics import RunReport, Scorer
from .receiver import RaTensor, range_profile, sweep
from .tracker import (
    Tracker,
    TrackerConfig,
    TrackState,
    TrackStatus,
    associate,
    ekf_predict,
    ekf_update,
    hungarian,
    measurement_model,
    polar_to_cartesian,
)
from .waveform import ResourceGrid, WaveformConfig, build_grid

__version__ = "0.1.0"

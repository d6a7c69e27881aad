"""Broadcast football game-log pipeline and detector evaluation toolkit.

The package turns two per-frame streams (player/digit detection records
and scoreboard clock text) into an indexed per-play game log, and scores
detector output with the usual AP/AR machinery.
"""

from .clock import (
    ClockParseError,
    ClockStreamError,
    ClockStreamResult,
    SegmenterConfig,
    format_clock_line,
    format_mmss,
    format_play_windows,
    label_quarters,
    parse_clock_line,
    parse_clock_stream,
    parse_mmss,
    parse_play_windows,
    segment_plays,
)
from .config import (
    DEFAULTS,
    ConfigError,
    build_game_config,
    format_config,
    load_config,
    parse_config_text,
)
from .core import (
    BoundingBox,
    ClockReading,
    DigitDetection,
    GameLogEntry,
    InvariantError,
    PixelImage,
    PlayWindow,
    PlayerDetection,
    Roster,
)
from .gamelog import (
    DetectionLoadResult,
    GameConfig,
    RecordError,
    emit_game_log,
    group_by_frame,
    iter_detections,
    load_detections,
    load_roster,
    parse_detection,
    parse_game_log,
    presence_table,
    resolve_names,
    roster_lines,
    serialize_detection,
    synchronize,
    synchronize_presence,
)
from .imageops import (
    binary_threshold,
    gaussian_blur,
    gaussian_kernel1d,
    invert,
    pad_to_square,
    read_image,
    scale,
    to_grayscale,
    write_image,
)
from .jersey import AssemblyConfig, assemble_number, suppress_digits
from .matching import (
    Assignment,
    SizeBucket,
    hungarian_assign,
    iou,
    iou_matrix,
    match_detections,
    size_bucket,
)
from .metrics import (
    ClassDistribution,
    ConfusionMatrix,
    DegenerateMetricWarning,
    EvalReport,
    confusion_matrix,
    evaluate_detections,
    focal_loss,
    prf1,
)
from .synth import SynthConfig, SynthConfigError, SynthGame, generate_game
from .teamcolor import (
    ChannelHistogram,
    ProfileError,
    TeamColorProfile,
    channel_histogram,
    classify_team,
    extract_strip,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

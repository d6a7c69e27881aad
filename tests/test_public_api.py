"""The package's public names, pinned: adding or removing one edits this list."""

import os
import subprocess
import sys
from pathlib import Path

import playlog

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = (
    "AssemblyConfig", "Assignment", "BoundingBox", "ChannelHistogram", "ClassDistribution", "ClockParseError",
    "ClockReading", "ClockStreamError", "ClockStreamResult", "ConfigError", "ConfusionMatrix", "DEFAULTS",
    "DegenerateMetricWarning", "DetectionLoadResult", "DigitDetection", "EvalReport", "GameConfig", "GameLogEntry",
    "InvariantError", "PixelImage", "PlayWindow", "PlayerDetection", "ProfileError", "RecordBlock", "RecordError",
    "Roster", "SegmenterConfig", "SizeBucket", "SynthConfig", "SynthConfigError", "SynthGame", "TeamColorProfile",
    "assemble_number", "binary_threshold", "build_game_config", "channel_histogram", "classify_team",
    "confusion_matrix", "emit_game_log", "evaluate_detections", "extract_strip", "focal_loss", "format_clock_line",
    "format_config", "format_mmss", "format_play_windows", "gaussian_blur", "gaussian_kernel1d", "generate_game",
    "group_by_frame", "hungarian_assign", "invert", "iou", "iter_detections", "label_quarters",
    "load_config", "load_detections", "load_roster", "match_detections", "pad_to_square", "parse_clock_line",
    "parse_clock_stream", "parse_config_text", "parse_detection", "parse_game_log", "parse_mmss", "parse_play_windows",
    "presence_table", "prf1", "read_image", "read_records", "resolve_names", "roster_lines", "scale", "segment_plays",
    "serialize_detection", "size_bucket", "suppress_digits", "synchronize", "synchronize_presence", "to_grayscale",
    "write_image",
)


def test_public_names_are_pinned():
    # a change here is a change of public API: record it in CHANGES.md
    assert tuple(sorted(playlog.__all__)) == PUBLIC_API


def test_import_leaves_scipy_unloaded():
    # scipy.optimize takes longer to import than a CLI run takes to start; only hungarian_assign loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, playlog, playlog.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

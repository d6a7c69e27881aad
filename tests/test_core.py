"""Value-object construction rules."""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    RefInvariant,
    RefRecordError,
    ref_box,
    ref_digit,
    ref_jersey_number,
    ref_parse_detection,
    ref_player,
    ref_team,
)

from playlog import (
    BoundingBox,
    ClockReading,
    DigitDetection,
    GameLogEntry,
    InvariantError,
    PixelImage,
    PlayWindow,
    PlayerDetection,
    RecordError,
    Roster,
    parse_detection,
    serialize_detection,
)
from playlog.core import _checked_pixels


class TestBoundingBox:
    def test_derived_geometry(self):
        b = BoundingBox(3, 4, 10, 20)
        assert (b.right, b.bottom) == (13, 24)
        assert b.area == 200
        assert (b.center_x, b.center_y) == (8, 14)

    @pytest.mark.parametrize("kwargs", [
        dict(x=-1, y=0, w=5, h=5),
        dict(x=0, y=-1, w=5, h=5),
        dict(x=0, y=0, w=0, h=5),
        dict(x=0, y=0, w=5, h=-2),
        dict(x=float("nan"), y=0, w=5, h=5),
        dict(x=0, y=0, w=float("inf"), h=5),
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(InvariantError):
            BoundingBox(**kwargs)

    def test_frozen(self):
        b = BoundingBox(0, 0, 5, 5)
        with pytest.raises(AttributeError):
            b.x = 4

    def test_invariant_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            BoundingBox(-1, 0, 5, 5)


class TestDigitDetection:
    def test_accepts_valid(self):
        d = DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=7, confidence=0.99)
        assert d.digit == 7

    @pytest.mark.parametrize("digit", [-1, 10, 3.5, "7"])
    def test_digit_domain(self, digit):
        with pytest.raises(InvariantError):
            DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=digit, confidence=0.9)

    @pytest.mark.parametrize("conf", [-0.1, 1.0001, float("nan")])
    def test_confidence_domain(self, conf):
        with pytest.raises(InvariantError):
            DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=1, confidence=conf)


class TestPlayerDetection:
    def test_defaults(self):
        d = PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9)
        assert d.digits == ()
        assert d.number is None
        assert d.team == "unknown"

    def test_digits_normalized_to_tuple(self):
        digit = DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=2, confidence=0.98)
        d = PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9, digits=[digit])
        assert isinstance(d.digits, tuple)

    @pytest.mark.parametrize("team", ["home", "away", "unknown"])
    def test_team_labels(self, team):
        d = PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9, team=team)
        assert d.team == team

    def test_rejects_other_team_labels(self):
        with pytest.raises(InvariantError):
            PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9, team="offense")

    @pytest.mark.parametrize("number", [-1, 100])
    def test_number_domain(self, number):
        with pytest.raises(InvariantError):
            PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9, number=number)

    def test_with_number_replaces_only_the_number(self):
        digit = DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=1, confidence=0.98)
        d = PlayerDetection(frame_index=3, box=BoundingBox(1, 2, 40, 60), score=0.5,
                            digits=(digit,), team="home")
        numbered = d.with_number(18)
        assert numbered == PlayerDetection(frame_index=3, box=BoundingBox(1, 2, 40, 60), score=0.5,
                                           digits=(digit,), number=18, team="home")
        assert d.number is None
        assert numbered.with_number(None) == d
        with pytest.raises(AttributeError):
            numbered.number = 4

    def test_with_team_replaces_only_the_team(self):
        digit = DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=1, confidence=0.98)
        d = PlayerDetection(frame_index=3, box=BoundingBox(1, 2, 40, 60), score=0.5,
                            digits=(digit,), number=18)
        away = d.with_team("away")
        assert away == PlayerDetection(frame_index=3, box=BoundingBox(1, 2, 40, 60), score=0.5,
                                       digits=(digit,), number=18, team="away")
        assert d.team == "unknown"
        assert away.with_team("unknown") == d
        with pytest.raises(AttributeError):
            away.team = "home"

    @pytest.mark.parametrize("clone", [
        lambda d: pickle.loads(pickle.dumps(d)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    def test_slotted_record_round_trips(self, clone):
        digits = (DigitDetection(box=BoundingBox(0, 0, 10, 14), digit=1, confidence=0.98),
                  DigitDetection(box=BoundingBox(12, 0, 10, 14), digit=8, confidence=0.97))
        d = PlayerDetection(frame_index=3, box=BoundingBox(1, 2, 40, 60), score=0.5,
                            digits=digits, number=18, team="home")
        twin = clone(d)
        assert twin == d
        assert (twin.box, twin.digits, twin.number, twin.team) == (d.box, digits, 18, "home")
        for value in (d, d.box, d.digits[0]):
            assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("number, message", [
        (100, "PlayerDetection.number in 0..99 violated (got 100)"),
        (-1, "PlayerDetection.number in 0..99 violated (got -1)"),
        ("7", "PlayerDetection.number must be an integer (got '7')"),
    ])
    def test_with_number_checks_the_number(self, number, message):
        d = PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9)
        with pytest.raises(InvariantError) as info:
            d.with_number(number)
        assert str(info.value) == message

    @pytest.mark.parametrize("team", ["visitor", "", None])
    def test_with_team_checks_the_team(self, team):
        d = PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9)
        with pytest.raises(InvariantError) as info:
            d.with_team(team)
        assert str(info.value) == f"PlayerDetection.team must be one of ['away', 'home', 'unknown'] (got {team!r})"
        with pytest.raises(InvariantError) as built:
            PlayerDetection(frame_index=0, box=BoundingBox(0, 0, 40, 60), score=0.9, team=team)
        assert str(built.value) == str(info.value)


BOX = BoundingBox(0, 0, 5, 5)
DIGIT = DigitDetection(box=BOX, digit=1, confidence=0.9)


def _player(**kwargs):
    base = dict(frame_index=0, box=BOX, score=0.9)
    base.update(kwargs)
    return PlayerDetection(**base)


# The exact text of every detection invariant's error: type, finiteness,
# range and team.  Validation builds these only on failure, so a wrong
# message would otherwise go unseen on the success path.
INVARIANT_MESSAGES = [
    (lambda: BoundingBox("a", 0, 5, 5), "BoundingBox.x must be a number (got 'a')"),
    (lambda: BoundingBox(0, True, 5, 5), "BoundingBox.y must be a number (got True)"),
    (lambda: BoundingBox(float("nan"), 0, 5, 5), "BoundingBox.x must be finite (got nan)"),
    (lambda: BoundingBox(0, 0, float("inf"), 5), "BoundingBox.w must be finite (got inf)"),
    (lambda: BoundingBox(-1, 0, 5, 5), "BoundingBox.x >= 0 violated (got -1)"),
    (lambda: BoundingBox(0, -0.5, 5, 5), "BoundingBox.y >= 0 violated (got -0.5)"),
    (lambda: BoundingBox(0, 0, 0, 5), "BoundingBox.w > 0 violated (got 0)"),
    (lambda: BoundingBox(0, 0, 5, -2), "BoundingBox.h > 0 violated (got -2)"),
    (lambda: DigitDetection(box=(0, 0, 5, 5), digit=1, confidence=0.9),
     "DigitDetection.box must be a BoundingBox"),
    (lambda: DigitDetection(box=BOX, digit=3.5, confidence=0.9),
     "DigitDetection.digit must be an integer (got 3.5)"),
    (lambda: DigitDetection(box=BOX, digit=10, confidence=0.9),
     "DigitDetection.digit in 0..9 violated (got 10)"),
    (lambda: DigitDetection(box=BOX, digit=1, confidence="0.9"),
     "DigitDetection.confidence must be a number (got '0.9')"),
    (lambda: DigitDetection(box=BOX, digit=1, confidence=float("nan")),
     "DigitDetection.confidence must be finite (got nan)"),
    (lambda: DigitDetection(box=BOX, digit=1, confidence=2),
     "DigitDetection.confidence in [0, 1] violated (got 2.0)"),
    (lambda: _player(frame_index=1.5), "PlayerDetection.frame_index must be an integer (got 1.5)"),
    (lambda: _player(frame_index=-1), "PlayerDetection.frame_index >= 0 violated (got -1)"),
    (lambda: _player(box=None), "PlayerDetection.box must be a BoundingBox"),
    (lambda: _player(score=None), "PlayerDetection.score must be a number (got None)"),
    (lambda: _player(score=float("-inf")), "PlayerDetection.score must be finite (got -inf)"),
    (lambda: _player(score=1.5), "PlayerDetection.score in [0, 1] violated (got 1.5)"),
    (lambda: _player(digits=(DIGIT, "x")), "PlayerDetection.digits must hold DigitDetection values"),
    (lambda: _player(number="7"), "PlayerDetection.number must be an integer (got '7')"),
    (lambda: _player(number=100), "PlayerDetection.number in 0..99 violated (got 100)"),
    (lambda: _player(team="offense"),
     "PlayerDetection.team must be one of ['away', 'home', 'unknown'] (got 'offense')"),
]


@pytest.mark.parametrize(
    "build, message", INVARIANT_MESSAGES, ids=[m for _, m in INVARIANT_MESSAGES]
)
def test_invariant_message_text(build, message):
    with pytest.raises(InvariantError) as info:
        build()
    assert str(info.value) == message


def test_record_error_names_line_and_invariant():
    with pytest.raises(RecordError) as info:
        parse_detection("0 10 20 40 60 1.5 home - 0", 4)
    assert str(info.value) == "record line 4: PlayerDetection.score in [0, 1] violated (got 1.5)"


# -- record constructors and the record parser against tests/oracles.py ----
#
# The record types accept a value through one fast test and fall back to
# their detailed checks otherwise; these properties hold both paths to the
# plain checks in tests/oracles.py: the same stored fields (each with its
# type) or the same error type and text.


class _Real(float):
    """A float subclass: a number, but not the exact float type."""


class _Count(int):
    """An int subclass: an integer, but not the exact int type."""


class _Box(BoundingBox):
    __slots__ = ()


class _Digit(DigitDetection):
    __slots__ = ()


def _typed(value):
    """Stored fields as nested tuples of (type, repr) leaves; record values become their field tuples."""
    if isinstance(value, BoundingBox):
        value = (value.x, value.y, value.w, value.h)
    elif isinstance(value, DigitDetection):
        value = (value.box, value.digit, value.confidence)
    elif isinstance(value, PlayerDetection):
        value = (value.frame_index, value.box, value.score, value.digits, value.number, value.team)
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value), repr(value))


def outcome(build, *args):
    """What a constructor (or its reference) gives: its fields, or its error's kind and text."""
    try:
        value = build(*args)
    except (InvariantError, RefInvariant) as exc:
        return ("invariant", str(exc))
    except (RecordError, RefRecordError) as exc:
        return ("record", str(exc))
    except (TypeError, OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", _typed(value))


NAN, INF = float("nan"), float("inf")
# the edges of every range, the other number types and a few non-numbers
reals = st.floats() | st.integers(-3, 10**6) | st.sampled_from([
    0.0, -0.0, 0.5, 1.0, 1.0000000000000002, 5e-324, -5e-324, 1e308, INF, -INF, NAN,
    0, 1, -1, True, False, 10**400, _Real(0.5), _Real(0.0), _Real(-1.0), _Count(2), "1", None, [1.0],
])
integers = st.integers(-3, 10**7) | st.sampled_from([
    0, 9, 10, 99, 100, -1, True, False, 10**400, _Count(3), _Count(-1), 3.0, NAN, "3", None,
])
valid_boxes = st.builds(BoundingBox, st.floats(0, 1e6), st.floats(0, 1e6), st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))
any_boxes = (
    valid_boxes
    | st.builds(_Box, st.floats(0, 10), st.floats(0, 10), st.just(1.0), st.just(2.0))
    | st.sampled_from([None, (0.0, 0.0, 1.0, 1.0), "box"])
)
valid_digits = st.builds(DigitDetection, valid_boxes, st.integers(0, 9), st.floats(0, 1))
digit_sequences = (
    st.lists(valid_digits, max_size=3).map(tuple)
    | st.lists(valid_digits, max_size=3)
    | st.lists(valid_digits | st.builds(_Digit, valid_boxes, st.just(4), st.just(0.5)), max_size=3).map(tuple)
    | st.sampled_from([(DIGIT, "x"), ("x",), 5, None, [DIGIT]])
)
numbers = st.none() | integers
teams = st.sampled_from(["home", "away", "unknown", "Home", "", "offense", None, ["home"], 3])


def _ref_player(frame, box, score, digits, number, team):
    return ref_player(frame, box, score, digits, number, team, box_ok=isinstance(box, BoundingBox),
                      is_digit=lambda d: isinstance(d, DigitDetection))


class TestRecordChecksMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(reals, reals, reals, reals)
    @example(0.0, 0.0, 0.0, 1.0)
    @example(0.0, 0.0, 1.0, 0.0)
    @example(-0.0, -0.0, 1.0, 1.0)
    @example(-5e-324, 0.0, 1.0, 1.0)
    @example(0.0, 0.0, INF, 1.0)
    @example(0.0, NAN, 1.0, 1.0)
    @example(0.0, 0.0, 1.0, _Real(1.0))
    @example(0, True, 1.0, 1.0)
    def test_bounding_box(self, x, y, w, h):
        assert outcome(BoundingBox, x, y, w, h) == outcome(ref_box, x, y, w, h)

    @settings(max_examples=400, deadline=None)
    @given(any_boxes, integers, reals)
    @example(BOX, 10, 0.5)
    @example(BOX, -1, 0.5)
    @example(BOX, True, 0.5)
    @example(BOX, 3, 1.0000000000000002)
    @example(BOX, 3, -0.0)
    @example(BOX, 3, NAN)
    @example(BOX, 3, 1)
    def test_digit_detection(self, box, digit, confidence):
        assert outcome(DigitDetection, box, digit, confidence) == outcome(
            lambda *a: ref_digit(*a, box_ok=isinstance(box, BoundingBox)), box, digit, confidence
        )

    @settings(max_examples=400, deadline=None)
    @given(integers, any_boxes, reals, digit_sequences, numbers, teams)
    @example(-1, BOX, 0.5, (), None, "home")
    @example(0, BOX, 0.5, (), 100, "home")
    @example(0, BOX, 0.5, (), True, "home")
    @example(0, BOX, 1.0000000000000002, (), None, "home")
    @example(0, BOX, 0.5, (DIGIT, "x"), None, ["home"])
    @example(0, BOX, 0.5, [DIGIT], 7, "away")
    @example(0, BOX, 0.5, (), None, "Home")
    def test_player_detection(self, frame, box, score, digits, number, team):
        assert outcome(PlayerDetection, frame, box, score, digits, number, team) == outcome(
            _ref_player, frame, box, score, digits, number, team
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), valid_boxes, st.floats(0, 1), st.lists(valid_digits, max_size=3).map(tuple),
           st.none() | st.integers(0, 99), st.sampled_from(["home", "away", "unknown"]), numbers, teams)
    @example(4, BOX, 0.5, (), None, "home", 100, "Home")
    @example(4, BOX, 0.5, (), None, "home", True, None)
    def test_copies_check_only_the_new_field(self, frame, box, score, digits, number, team, new_number, new_team):
        d = PlayerDetection(frame, box, score, digits, number, team)

        def ref_with_number(n):
            if n is not None:
                ref_jersey_number(n)
            return (frame, box, score, digits, n, team)

        def ref_with_team(t):
            ref_team(t)
            return (frame, box, score, digits, number, t)

        assert outcome(d.with_number, new_number) == outcome(ref_with_number, new_number)
        assert outcome(d.with_team, new_team) == outcome(ref_with_team, new_team)


# Tokens that replace or join the fields of a well-formed record line:
# non-finite and out-of-range numbers, spellings int() or float() may or
# may not take, teams, digit classes and the "-" of an unassembled number.
TOKEN_POOL = [
    "nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "-0", "1e999", "-1e999", "1e-400", "-1", "1_0", "0x10",
    "True", "true", "False", "None", "+1", "1.5", "0", "1", "9", "10", "99", "100", "-", "home", "away",
    "unknown", "Home", "blue", "\u0663", "\u00b2", "1e2", "3.0", "0.97", "1.0000000000000002",
]
record_lines = st.builds(
    lambda *fields: serialize_detection(PlayerDetection(*fields)),
    st.integers(0, 10**6), valid_boxes, st.floats(0, 1), st.lists(valid_digits, max_size=3).map(tuple),
    st.none() | st.integers(0, 99), st.sampled_from(["home", "away", "unknown"]),
)


@st.composite
def edited_record_lines(draw):
    """A well-formed record line with up to two tokens replaced, dropped or added."""
    tokens = draw(record_lines).split()
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["replace", "replace", "replace", "drop", "add"]))
        if edit == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif edit == "add":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKEN_POOL)))
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKEN_POOL))
    return " ".join(tokens)


class TestRecordParserMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(edited_record_lines(), st.none() | st.integers(1, 10**6))
    @example("0 10 20 0 60 0.9 home - 0", 3)
    @example("0 10 20 40 60 0.9 home - 1 10 0.99 -1 0 5 5", 3)
    @example("0 10 20 40 60 0.9 home - 1 True 0.99 -1 0 5 5", 3)
    @example("0 10 20 40 60 0.9 home - 1 1 true -1 0 5 5", 3)
    @example("-1 10 20 40 60 0.9 home - 1 10 0.99 0 0 5 5", 3)
    @example("0 10 20 40 60 1.5 Home 100 0", None)
    @example("0 10 20 40 60 0.9 home 1_0 1 1 nan 0 0 5 5", 3)
    @example("0 10 20 40 60 0.9 home - 1 1 0.5 0 0 5", 3)
    @example("0 0 0 9007199254740993 1e16 0.9 unknown - 1 1 0.5 0 0 18014398509481985.0 5", 3)
    @example("0 10 20 40\xa060 0.9 home - 0", 3)
    def test_parse_detection(self, line, line_number):
        assert outcome(parse_detection, line, line_number) == outcome(ref_parse_detection, line, line_number)


class TestClockReading:
    def test_absent(self):
        assert ClockReading(frame_index=0).absent
        assert not ClockReading(frame_index=0, game_clock=900).absent
        assert not ClockReading(frame_index=0, play_clock=0).absent

    def test_zero_is_a_real_reading(self):
        r = ClockReading(frame_index=0, game_clock=0, play_clock=0)
        assert not r.absent

    @pytest.mark.parametrize("kwargs", [
        dict(game_clock=901),
        dict(game_clock=-1),
        dict(play_clock=41),
        dict(play_clock=-1),
    ])
    def test_clock_ranges(self, kwargs):
        with pytest.raises(InvariantError):
            ClockReading(frame_index=0, **kwargs)


class TestPlayWindow:
    def test_valid(self):
        w = PlayWindow(play_number=1, quarter=1, frame_start=100, frame_end=250,
                       start_time=900, end_time=894)
        assert w.frame_start <= w.frame_end

    @pytest.mark.parametrize("kwargs", [
        dict(play_number=0),
        dict(quarter=0),
        dict(quarter=5),
        dict(frame_start=50, frame_end=40),
        dict(start_time=894, end_time=900),  # clock runs down, not up
        dict(start_time=901),
    ])
    def test_rejections(self, kwargs):
        base = dict(play_number=1, quarter=1, frame_start=0, frame_end=10,
                    start_time=900, end_time=890)
        base.update(kwargs)
        with pytest.raises(InvariantError):
            PlayWindow(**base)

    def test_single_frame_constant_clock(self):
        PlayWindow(play_number=1, quarter=4, frame_start=5, frame_end=5,
                   start_time=10, end_time=10)


class TestRoster:
    def test_lookup_and_order(self):
        r = Roster(team_name="Alabama", entries={3: ("Calvin Ridley", "Bradley Sylve"), 10: ("A",)})
        assert 3 in r
        assert 4 not in r
        assert r.entries[3] == ("Calvin Ridley", "Bradley Sylve")

    def test_entries_read_only(self):
        r = Roster(team_name="T", entries={1: ("A",)})
        with pytest.raises(TypeError):
            r.entries[2] = ("B",)

    @pytest.mark.parametrize("entries", [
        {100: ("A",)},
        {-1: ("A",)},
        {5: ()},
        {5: ("",)},
        {5: ("  ",)},
    ])
    def test_rejections(self, entries):
        with pytest.raises(InvariantError):
            Roster(team_name="T", entries=entries)


class TestGameLogEntry:
    def test_participants_sorted_and_frozen(self):
        e = GameLogEntry(play_number=1, quarter=1, start_time=900, end_time=894,
                         home_team="A", away_team="B",
                         participants={18: "X", 3: "Y"})
        assert list(e.participants) == [3, 18]
        with pytest.raises(TypeError):
            e.participants[4] = "Z"

    @pytest.mark.parametrize("kwargs", [
        dict(home_team=""),
        dict(away_team=""),
        dict(start_time=100, end_time=200),
        dict(participants={3: ""}),
        dict(participants={120: "X"}),
    ])
    def test_rejections(self, kwargs):
        base = dict(play_number=1, quarter=1, start_time=900, end_time=894,
                    home_team="A", away_team="B", participants={})
        base.update(kwargs)
        with pytest.raises(InvariantError):
            GameLogEntry(**base)


class TestPixelImage:
    def test_from_flat_samples(self):
        img = PixelImage(2, 2, 1, [0, 64, 128, 255])
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.pixels[1, 0, 0] == 128

    def test_from_bytes_and_tobytes_round_trip(self):
        payload = bytes(range(12))
        img = PixelImage(2, 2, 3, payload)
        assert img.tobytes() == payload

    def test_from_array_2d_promotes_channel(self):
        img = PixelImage.from_array(np.zeros((4, 5), dtype=np.uint8))
        assert (img.width, img.height, img.channels) == (5, 4, 1)

    def test_full_per_channel(self):
        img = PixelImage.full(2, 2, 3, (10, 20, 30))
        assert img.pixels[0, 0].tolist() == [10, 20, 30]

    def test_length_mismatch(self):
        with pytest.raises(InvariantError):
            PixelImage(2, 2, 1, [0, 0, 0])

    def test_sample_range_enforced(self):
        with pytest.raises(InvariantError):
            PixelImage(1, 1, 1, [256])

    @pytest.mark.parametrize("channels", [0, 2, 4])
    def test_channel_count(self, channels):
        with pytest.raises(InvariantError):
            PixelImage(1, 1, channels, [0] * channels)

    def test_immutable_surface(self):
        img = PixelImage(1, 1, 1, [7])
        with pytest.raises(AttributeError):
            img.width = 3
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 9
        with pytest.raises(ValueError):
            img.samples[0] = 9

    @pytest.mark.parametrize("width, height, channels", [(1, 1, 1), (1, 1, 3), (2, 3, 3), (5, 1, 3), (4, 4, 1)])
    def test_bytes_samples_are_not_copied_and_equal_the_checked_path(self, width, height, channels):
        rng = random.Random(width * height * channels)
        payload = bytes(rng.randrange(256) for _ in range(width * height * channels))
        img = PixelImage(width, height, channels, payload)
        checked = PixelImage(width, height, channels, list(payload))
        assert img == checked
        assert (img.pixels.shape, img.pixels.dtype) == (checked.pixels.shape, checked.pixels.dtype)
        assert np.shares_memory(img.pixels, np.frombuffer(payload, np.uint8))

    def test_bytes_pixels_cannot_be_made_writeable(self):
        img = PixelImage(2, 1, 3, bytes(6))
        with pytest.raises(ValueError):
            img.pixels.flags.writeable = True
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 9

    def test_bytearray_samples_are_copied(self):
        payload = bytearray(range(12))
        img = PixelImage(2, 2, 3, payload)
        payload[0] = 99
        assert img.tobytes() == bytes(range(12))

    @pytest.mark.parametrize("args", [(True, 1, 1, b"\0"), (1.0, 1, 1, b"\0"), (0, 1, 1, b""), (1, 1, 2, b"\0\0"),
                                      (2, 1, 1, b"\0")])
    def test_bytes_samples_keep_the_checks(self, args):
        with pytest.raises(InvariantError):
            PixelImage(*args)

    def test_detached_from_source_array(self):
        src = np.zeros((2, 2, 1), dtype=np.uint8)
        img = PixelImage.from_array(src)
        src[0, 0, 0] = 200
        assert img.pixels[0, 0, 0] == 0

    def test_equality_and_hash(self):
        rng = random.Random(9)
        data = [rng.randrange(256) for _ in range(12)]
        a = PixelImage(2, 2, 3, data)
        b = PixelImage(2, 2, 3, list(data))
        assert a == b
        assert hash(a) == hash(b)
        assert a != PixelImage(2, 2, 3, [0] * 12)
        # same bytes, different shape
        assert PixelImage(4, 1, 3, data) != a


def pixel_outcome(make, width, height, channels, samples):
    try:
        pixels = make(width, height, channels, samples)
    except InvariantError as exc:
        return ("error", str(exc))
    return ("ok", pixels.shape, pixels.dtype, pixels.tobytes(), pixels.flags.writeable)


# exact ints next to bools, floats, numpy ints and int subclasses; bytes next to bytearrays, lists and arrays
class _Level(int):
    pass


dimensions = st.one_of(
    st.integers(-2, 5), st.sampled_from([True, False, 1.0, 3.0, np.int64(2), np.uint8(1), _Level(2), 2**64])
)


@st.composite
def pixel_arguments(draw):
    width, height, channels = draw(dimensions), draw(dimensions), draw(st.one_of(dimensions, st.sampled_from([1, 3])))
    try:
        size = int(width) * int(height) * int(channels)
    except (TypeError, OverflowError):
        size = 0
    # the matching length when it is small, else any small length
    length = draw(st.integers(0, 80) if not 0 <= size <= 80 else st.one_of(st.just(size), st.integers(0, 80)))
    payload = draw(st.binary(min_size=length, max_size=length))
    kind = draw(st.sampled_from(["bytes", "bytearray", "list", "array", "wide array"]))
    samples = {
        "bytes": payload,
        "bytearray": bytearray(payload),
        "list": list(payload),
        "array": np.frombuffer(payload, np.uint8),
        "wide array": np.frombuffer(payload, np.uint8).astype(np.int64) * 2,
    }[kind]
    return width, height, channels, samples


class TestPixelImageAcceptTest:
    @settings(max_examples=400, deadline=None)
    @given(pixel_arguments())
    @example((2, 3, 3, bytes(18)))
    @example((True, 1, 1, b"\0"))
    @example((2**64, 1, 1, b"\0"))
    @example((1, 1, 2, b"\0\0"))
    def test_takes_and_rejects_what_the_detailed_checks_do(self, args):
        made = pixel_outcome(lambda *a: PixelImage(*a).pixels, *args)
        assert made == pixel_outcome(_checked_pixels, *args)

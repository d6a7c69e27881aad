"""Value-object construction rules."""

import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest

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
)


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

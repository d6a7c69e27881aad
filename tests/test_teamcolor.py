"""Strip extraction, channel statistics, profile classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ref_channel_histogram, ref_classify_team, ref_strip

from playlog import (
    ChannelHistogram,
    InvariantError,
    PixelImage,
    ProfileError,
    TeamColorProfile,
    channel_histogram,
    classify_team,
    extract_strip,
)
from playlog.teamcolor import StripBatch, team_labels

RED = TeamColorProfile(label="home", mode="dominant-channel", channel="red")
WHITE = TeamColorProfile(label="away", mode="no-dominant")


def solid(r, g, b, w=40, h=60):
    return PixelImage.full(w, h, 3, (r, g, b))


class TestTeamColorProfile:
    def test_dominant_requires_channel(self):
        with pytest.raises(InvariantError):
            TeamColorProfile(label="home", mode="dominant-channel")

    def test_no_dominant_forbids_channel(self):
        with pytest.raises(InvariantError):
            TeamColorProfile(label="away", mode="no-dominant", channel="red")

    @pytest.mark.parametrize("kwargs", [
        dict(label="neutral", mode="no-dominant"),
        dict(label="home", mode="brightest"),
        dict(label="home", mode="no-dominant", dominance_margin=0),
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(InvariantError):
            TeamColorProfile(**kwargs)


class TestExtractStrip:
    def test_default_fractions(self):
        strip = extract_strip(solid(10, 20, 30, w=40, h=60))
        # 0.2 x 60 = 12 rows, 0.6 x 40 = 24 cols
        assert (strip.height, strip.width) == (12, 24)

    def test_centered(self):
        arr = np.zeros((10, 10, 3), dtype=np.uint8)
        arr[4:6, 2:8, :] = 200  # paint exactly the default strip region
        strip = extract_strip(PixelImage.from_array(arr))
        assert (strip.height, strip.width) == (2, 6)
        assert np.all(strip.pixels == 200)

    def test_odd_remainder_goes_bottom_right(self):
        arr = np.zeros((5, 5, 3), dtype=np.uint8)
        img = PixelImage.from_array(arr)
        strip = extract_strip(img, strip_height_fraction=0.4, strip_width_fraction=0.4)
        # 5 * 0.4 = 2; border 3 splits as top 1, bottom 2
        assert (strip.height, strip.width) == (2, 2)
        marked = np.zeros((5, 5, 3), dtype=np.uint8)
        marked[1:3, 1:3, :] = 255
        assert np.all(extract_strip(PixelImage.from_array(marked), 0.4, 0.4).pixels == 255)

    def test_never_empty(self):
        strip = extract_strip(solid(0, 0, 0, w=3, h=3), strip_height_fraction=0.01,
                              strip_width_fraction=0.01)
        assert (strip.height, strip.width) == (1, 1)

    def test_full_fraction_is_whole_crop(self):
        img = solid(1, 2, 3, w=7, h=9)
        strip = extract_strip(img, 1.0, 1.0)
        assert strip == img

    def test_grayscale_rejected(self):
        with pytest.raises(InvariantError):
            extract_strip(PixelImage.full(4, 4, 1, 128))

    @pytest.mark.parametrize("frac", [0.0, 1.5, -0.1])
    def test_fraction_domain(self, frac):
        with pytest.raises(InvariantError):
            extract_strip(solid(0, 0, 0), strip_height_fraction=frac)


class TestChannelHistogram:
    def test_solid_color(self):
        hist = channel_histogram(solid(200, 40, 40, w=10, h=10))
        assert hist.means == (200.0, 40.0, 40.0)
        assert hist.counts[0, 200] == 100
        assert hist.counts[1, 40] == 100
        assert hist.counts.sum() == 300

    def test_mixed_means(self):
        arr = np.zeros((1, 2, 3), dtype=np.uint8)
        arr[0, 0] = (0, 0, 0)
        arr[0, 1] = (255, 0, 0)
        hist = channel_histogram(PixelImage.from_array(arr))
        assert hist.means == (127.5, 0.0, 0.0)

    def test_counts_read_only(self):
        hist = channel_histogram(solid(1, 2, 3))
        with pytest.raises(ValueError):
            hist.counts[0, 0] = 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 1000), st.sampled_from(["random", "constant"]), st.integers(0, 2**32))
    @example(1000, 1000, "random", 0)
    @example(1000, 1000, "constant", 255)  # the largest level sums
    @example(1, 1, "random", 1)
    def test_equals_a_bincount_and_mean_per_channel(self, width, height, kind, seed):
        if kind == "random":
            pixels = np.random.default_rng(seed).integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        else:
            pixels = np.full((height, width, 3), seed % 256, dtype=np.uint8)
        counts, means = ref_channel_histogram(pixels)
        hist = channel_histogram(PixelImage.from_array(pixels))
        assert hist.counts.dtype == counts.dtype and np.array_equal(hist.counts, counts)
        assert hist.means == means  # bit for bit

    def test_value_equality(self):
        assert channel_histogram(solid(9, 9, 9)) == channel_histogram(solid(9, 9, 9))
        assert channel_histogram(solid(9, 9, 9)) != channel_histogram(solid(9, 9, 8))


class TestClassifyTeam:
    def classify(self, r, g, b):
        return classify_team(channel_histogram(solid(r, g, b)), RED, WHITE)

    def test_red_jersey(self):
        assert self.classify(180, 60, 50) == "home"

    def test_white_jersey(self):
        assert self.classify(220, 215, 225) == "away"

    def test_margin_boundary_dominant(self):
        # red exceeds both others by exactly the margin: dominant
        assert self.classify(130, 100, 100) == "home"
        # one short of the margin and the spread is then < margin: away
        assert self.classify(129, 100, 100) == "away"

    def test_green_jersey_matches_neither(self):
        assert self.classify(40, 200, 40) == "unknown"

    def test_spread_at_margin_is_not_flat(self):
        # spread exactly 30 fails the no-dominant test, and blue is not red
        assert classify_team(channel_histogram(solid(100, 100, 130)), RED, WHITE) == "unknown"

    def test_identical_profiles_error(self):
        clash = TeamColorProfile(label="away", mode="dominant-channel", channel="red")
        hist = channel_histogram(solid(200, 0, 0))
        with pytest.raises(ProfileError):
            classify_team(hist, RED, clash)

    def test_both_no_dominant_error(self):
        home_flat = TeamColorProfile(label="home", mode="no-dominant")
        with pytest.raises(ProfileError):
            classify_team(channel_histogram(solid(5, 5, 5)), home_flat, WHITE)

    def test_two_dominant_channels_distinguishable(self):
        blue = TeamColorProfile(label="away", mode="dominant-channel", channel="blue")
        assert classify_team(channel_histogram(solid(200, 20, 20)), RED, blue) == "home"
        assert classify_team(channel_histogram(solid(20, 20, 200)), RED, blue) == "away"
        assert classify_team(channel_histogram(solid(20, 200, 20)), RED, blue) == "unknown"

    def test_custom_margin(self):
        tight_red = TeamColorProfile(label="home", mode="dominant-channel", channel="red",
                                     dominance_margin=5.0)
        loose_white = TeamColorProfile(label="away", mode="no-dominant", dominance_margin=5.0)
        hist = channel_histogram(solid(110, 100, 100))
        assert classify_team(hist, tight_red, loose_white) == "home"
        assert classify_team(hist, RED, WHITE) == "away"


# every mode and channel; float margins, int margins (TeamColorProfile allows them) and ones past any mean
# difference, up to ints beyond float range
KITS = [("dominant-channel", "red"), ("dominant-channel", "green"), ("dominant-channel", "blue"), ("no-dominant", None)]
margins = st.one_of(
    st.sampled_from([30.0, 30, 1, 0.5, 12.75, 255, 256, 2**53 + 1, 10**400, float("inf")]),
    st.integers(1, 300),
    st.floats(min_value=0.001, max_value=400.0),
)


@st.composite
def profile_pairs(draw):
    home_kit, away_kit = draw(st.lists(st.sampled_from(KITS), min_size=2, max_size=2, unique=True))
    home = TeamColorProfile("home", home_kit[0], home_kit[1], draw(margins))
    away = TeamColorProfile("away", away_kit[0], away_kit[1], draw(margins))
    return draw(st.sampled_from([(home, away), (away, home)]))  # either may come first: a label need not match its side


@st.composite
def crops(draw, margin):
    """A crop from 1x1 upward: random samples, one colour, or one colour whose channels lie exactly
    ``margin`` apart (when it is a whole number of levels)."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "solid", "margin apart"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    levels = draw(st.lists(st.integers(0, 255), min_size=3, max_size=3))
    if kind == "margin apart" and margin <= 255 and margin == int(margin):
        top = draw(st.integers(int(margin), 255))
        levels = [top, top - int(margin), draw(st.sampled_from([top - int(margin), top, top - int(margin) + 1]))]
        levels = draw(st.permutations(levels))
    return np.full((height, width, 3), levels, dtype=np.uint8)


class TestOneRule:
    """team_labels, on one histogram's means (classify_team) and on a batch of strips (StripBatch), against
    the scalar chain: strip, channel means, then each profile's test in Python floats."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), profile_pairs(), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @example(None, (RED, WHITE), 1.0, 1.0)
    def test_equals_the_scalar_chain(self, data, profiles, height_fraction, width_fraction):
        home, away = profiles
        if data is None:  # red exactly the margin above both others, then the spread exactly at it
            pixels = [np.full((2, 3, 3), rgb, dtype=np.uint8) for rgb in ((130, 100, 100), (100, 100, 130))]
        else:
            margin = data.draw(st.sampled_from([home.dominance_margin, away.dominance_margin]))
            pixels = data.draw(st.lists(crops(margin), min_size=1, max_size=12))
        expected = []
        for p in pixels:
            means = tuple(float(v) for v in ref_strip(p, height_fraction, width_fraction).reshape(-1, 3).mean(axis=0))
            expected.append(ref_classify_team(means, home, away))
        images = [PixelImage.from_array(p) for p in pixels]
        scalar = [
            classify_team(channel_histogram(extract_strip(img, height_fraction, width_fraction)), home, away)
            for img in images
        ]
        batch = StripBatch(home, away, height_fraction, width_fraction)
        for img in images:
            batch.add(img)
        assert scalar == expected
        assert batch.labels() == expected
        assert batch.labels() == []  # a call labels only the strips added since the last

    def test_labels_one_row_per_mean(self):
        means = np.array([[180.0, 60.0, 50.0], [220.0, 215.0, 225.0], [40.0, 200.0, 40.0]])
        assert team_labels(means, RED, WHITE) == ["home", "away", "unknown"]
        assert team_labels(np.empty((0, 3)), RED, WHITE) == []

    def test_profiles_and_fractions_are_checked(self):
        clash = TeamColorProfile(label="away", mode="dominant-channel", channel="red")
        with pytest.raises(ProfileError):
            team_labels(np.empty((0, 3)), RED, clash)
        with pytest.raises(ProfileError):
            StripBatch(RED, clash)
        with pytest.raises(InvariantError, match="strip_width_fraction in"):
            StripBatch(RED, WHITE, 0.5, 0.0)


class TestStripBatch:
    def test_a_grayscale_crop_is_rejected_as_extract_strip_rejects_it(self):
        batch = StripBatch(RED, WHITE)
        grey = PixelImage.full(4, 4, 1, 128)
        with pytest.raises(InvariantError) as info:
            batch.add(grey)
        with pytest.raises(InvariantError) as scalar:
            extract_strip(grey)
        assert str(info.value) == str(scalar.value)
        batch.add(solid(200, 40, 40))
        assert batch.labels() == ["home"]

    @pytest.mark.parametrize("sizes", ["small", "large", "mixed"])
    def test_slices_and_buffer_growth_keep_the_order(self, sizes):
        # more strips than a slice holds, and strips larger than the buffer (100x100 at the full fraction)
        rng = np.random.default_rng(len(sizes))
        count = 3 * StripBatch.SLICE + 7 if sizes != "large" else 9
        kits = [(200, 40, 40), (100, 100, 100), (40, 40, 200)]
        batch = StripBatch(RED, WHITE, 1.0, 1.0)
        expected = []
        for k in range(count):
            big = sizes == "large" or (sizes == "mixed" and k % 50 == 0)
            w, h = (100, 100) if big else tuple(rng.integers(1, 9, size=2))
            pixels = np.clip(np.asarray(kits[k % 3]) + rng.integers(-9, 10, size=(h, w, 3)), 0, 255).astype(np.uint8)
            batch.add(PixelImage.from_array(pixels))
            expected.append(classify_team(channel_histogram(PixelImage.from_array(pixels)), RED, WHITE))
        assert batch.labels() == expected
        assert set(expected) == {"home", "away", "unknown"}


def test_channel_histogram_rejects_a_grey_strip():
    with pytest.raises(InvariantError, match=r"^channel_histogram expects a 3-channel strip \(got 1\)$"):
        channel_histogram(PixelImage.full(4, 2, 1, 128))

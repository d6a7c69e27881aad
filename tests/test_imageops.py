"""Grayscale, thresholding, blur, scaling, padding, PGM/PPM I/O."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import RefInvariant, ref_read_header_tokens

from playlog import (
    InvariantError,
    PixelImage,
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
from playlog.imageops import _read_header_tokens


def random_image(rng, w, h, c):
    return PixelImage.from_array(rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))


class TestGrayscale:
    @pytest.mark.parametrize("rgb,expected", [
        ((255, 0, 0), 76),    # 0.299 * 255 = 76.245
        ((0, 255, 0), 150),   # 149.685 rounds up
        ((0, 0, 255), 29),    # 29.07
        ((255, 255, 255), 255),
        ((0, 0, 0), 0),
        ((128, 128, 128), 128),
    ])
    def test_known_luma(self, rgb, expected):
        gray = to_grayscale(PixelImage.full(2, 2, 3, rgb))
        assert gray.channels == 1
        assert int(gray.pixels[0, 0, 0]) == expected

    def test_single_channel_passthrough(self):
        img = PixelImage.full(3, 3, 1, 77)
        assert to_grayscale(img) is img

    def test_rounding_is_half_up(self):
        # luma 127.5 exactly: 0.299*150 + 0.587*100 + 0.114*215 = 128.76..
        # build an exact .5 case instead from weights: gray of (1, 1, 1) is 1
        gray = to_grayscale(PixelImage.full(1, 1, 3, (1, 1, 1)))
        assert int(gray.pixels[0, 0, 0]) == 1


class TestBinaryThreshold:
    def test_inclusive_at_threshold(self):
        img = PixelImage(3, 1, 1, [127, 128, 129])
        out = binary_threshold(img, 128)
        assert out.samples.tolist() == [0, 255, 255]

    def test_threshold_zero_is_all_white(self):
        img = PixelImage(2, 1, 1, [0, 200])
        assert binary_threshold(img, 0).samples.tolist() == [255, 255]

    def test_color_rejected(self):
        with pytest.raises(InvariantError):
            binary_threshold(PixelImage.full(2, 2, 3, 0), 128)

    @pytest.mark.parametrize("t", [-1, 256, 0.5])
    def test_threshold_domain(self, t):
        with pytest.raises(InvariantError):
            binary_threshold(PixelImage.full(2, 2, 1, 0), t)


class TestInvert:
    def test_known_values(self):
        img = PixelImage(3, 1, 1, [0, 100, 255])
        assert invert(img).samples.tolist() == [255, 155, 0]

    def test_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            img = random_image(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                               int(rng.choice([1, 3])))
            assert invert(invert(img)) == img


class TestGaussian:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.0])
    def test_kernel_normalized(self, sigma):
        k = gaussian_kernel1d(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1

    def test_kernel_symmetric_peak_center(self):
        k = gaussian_kernel1d(1.5)
        assert np.allclose(k, k[::-1])
        assert k.argmax() == len(k) // 2

    @pytest.mark.parametrize("sigma", [0, -1.0])
    def test_sigma_domain(self, sigma):
        with pytest.raises(InvariantError):
            gaussian_kernel1d(sigma)

    def test_constant_image_unchanged(self):
        img = PixelImage.full(8, 6, 3, (10, 200, 90))
        assert gaussian_blur(img, 1.0) == img

    def test_blur_shrinks_contrast(self):
        arr = np.zeros((9, 9, 1), dtype=np.uint8)
        arr[4, 4, 0] = 255
        out = gaussian_blur(PixelImage.from_array(arr), 1.0)
        assert int(out.pixels[4, 4, 0]) < 255
        assert int(out.pixels[4, 3, 0]) > 0

    def test_separable_equals_outer_product(self):
        # blur of an impulse equals the 2-D kernel, quantized
        sigma = 0.8
        k = gaussian_kernel1d(sigma)
        r = len(k) // 2
        size = 2 * r + 5
        arr = np.zeros((size, size, 1), dtype=np.uint8)
        arr[size // 2, size // 2, 0] = 255
        out = gaussian_blur(PixelImage.from_array(arr), sigma)
        expected = np.zeros((size, size))
        expected[size // 2 - r : size // 2 + r + 1, size // 2 - r : size // 2 + r + 1] = (
            np.outer(k, k) * 255
        )
        assert np.array_equal(
            out.pixels[:, :, 0], np.clip(np.floor(expected + 0.5), 0, 255).astype(np.uint8)
        )


class TestScale:
    def test_identity_factor(self):
        rng = np.random.default_rng(7)
        img = random_image(rng, 9, 5, 3)
        assert scale(img, 1.0) == img

    def test_output_dims_round_half_up(self):
        img = PixelImage.full(5, 5, 1, 0)
        assert (scale(img, 0.5).width, scale(img, 0.5).height) == (3, 3)  # 2.5 rounds up
        assert (scale(img, 1.5).width, scale(img, 1.5).height) == (8, 8)  # 7.5 rounds up

    def test_corners_preserved(self):
        arr = np.zeros((4, 4, 1), dtype=np.uint8)
        arr[0, 0, 0] = 10
        arr[0, 3, 0] = 20
        arr[3, 0, 0] = 30
        arr[3, 3, 0] = 40
        out = scale(PixelImage.from_array(arr), 2.0)
        assert int(out.pixels[0, 0, 0]) == 10
        assert int(out.pixels[0, -1, 0]) == 20
        assert int(out.pixels[-1, 0, 0]) == 30
        assert int(out.pixels[-1, -1, 0]) == 40

    def test_linear_gradient_survives_upscale(self):
        arr = np.tile(np.array([0, 100, 200], dtype=np.uint8), (3, 1)).reshape(3, 3, 1)
        out = scale(PixelImage.from_array(arr), 5 / 3)
        # coords: 0, 0.5, 1.0, 1.5, 2.0 along a straight ramp
        assert out.pixels[0, :, 0].tolist() == [0, 50, 100, 150, 200]

    def test_downscale_to_single_pixel_takes_center(self):
        arr = np.full((3, 3, 1), 10, dtype=np.uint8)
        arr[1, 1, 0] = 200
        out = scale(PixelImage.from_array(arr), 0.34)
        assert (out.width, out.height) == (1, 1)
        assert int(out.pixels[0, 0, 0]) == 200

    def test_collapse_rejected(self):
        with pytest.raises(InvariantError):
            scale(PixelImage.full(3, 3, 1, 0), 0.1)

    @pytest.mark.parametrize("factor", [0, -1, float("nan")])
    def test_factor_domain(self, factor):
        with pytest.raises(InvariantError):
            scale(PixelImage.full(3, 3, 1, 0), factor)


class TestPadToSquare:
    def test_already_square(self):
        img = PixelImage.full(4, 4, 1, 9)
        assert pad_to_square(img) == img

    def test_wide_image_pads_rows(self):
        img = PixelImage.full(5, 2, 1, 7)
        out = pad_to_square(img)
        assert (out.width, out.height) == (5, 5)
        # 3 padding rows: 1 on top, 2 on the bottom
        assert np.all(out.pixels[0] == 0)
        assert np.all(out.pixels[1:3] == 7)
        assert np.all(out.pixels[3:] == 0)

    def test_tall_image_pads_cols(self):
        img = PixelImage.full(2, 5, 3, (1, 2, 3))
        out = pad_to_square(img)
        assert (out.width, out.height) == (5, 5)
        assert np.all(out.pixels[:, 0] == 0)
        assert np.all(out.pixels[:, 1:3, 0] == 1)

    def test_crop_back_recovers_original(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = int(rng.integers(1, 10))
            h = int(rng.integers(1, 10))
            img = random_image(rng, w, h, int(rng.choice([1, 3])))
            out = pad_to_square(img)
            side = max(w, h)
            assert (out.width, out.height) == (side, side)
            top = (side - h) // 2
            left = (side - w) // 2
            inner = out.pixels[top : top + h, left : left + w, :]
            assert PixelImage.from_array(inner) == img


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = random_image(rng, 7, 4, 1)
        path = tmp_path / "img.pgm"
        write_image(img, path)
        assert read_image(path) == img
        assert path.read_bytes().startswith(b"P5\n7 4\n255\n")

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = random_image(rng, 3, 5, 3)
        path = tmp_path / "img.ppm"
        write_image(img, path)
        assert read_image(path) == img
        assert path.read_bytes().startswith(b"P6\n3 5\n255\n")

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2\t1 \n255\n\x01\x02")
        img = read_image(path)
        assert (img.width, img.height) == (2, 1)
        assert img.samples.tolist() == [1, 2]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_bytes(b"P4\n2 2\n")
        with pytest.raises(InvariantError):
            read_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(InvariantError):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(InvariantError):
            read_image(path)

    @pytest.mark.parametrize("data, message", [
        (b"P5\n2 2", "truncated image header"),
        (b"P5\n2 2 # 255\n", "truncated image header"),
        (b"P5\n2x 2 255\n\x00", "bad image header token b'2x'"),
        (b"P6 2 -2 255\n\x00", "bad image header token b'-2'"),
        (b"P5\n2 2 255", "image header must end with whitespace"),
    ])
    def test_header_errors(self, tmp_path, data, message):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(InvariantError) as info:
            read_image(path)
        assert str(info.value) == f"{path}: {message}"


def header_outcome(read, data, count, start):
    try:
        return ("ok", read(data, count, start))
    except (InvariantError, RefInvariant) as exc:
        return ("error", str(exc))


# whitespace as bytes.isspace takes it, comment marks, digits, and stray bytes
# (\x1c and \x85 are whitespace to str.isspace, not to bytes.isspace)
header_pieces = st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"7", b"255", b"x", b"-", b"\x00", b"\x1c", b"\x85", b"\xff"]
)


class TestHeaderTokens:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(header_pieces, max_size=24).map(b"".join), st.integers(0, 4), st.integers(0, 3))
    @example(b"P5 # magic\n# a comment line\n 2\t1 \n255\n\x01\x02", 3, 2)
    @example(b"P5\n2 2 255", 3, 2)
    @example(b"P5\n2 2 255\r", 3, 2)
    @example(b"P5\n1 1#x\n255 ", 3, 2)
    @example(b"P5#\r1\x0c1\x0b255\t", 3, 2)
    @example(b"P5\n", 0, 2)
    def test_matches_the_byte_walk(self, data, count, start):
        assert header_outcome(_read_header_tokens, data, count, start) == header_outcome(
            ref_read_header_tokens, data, count, start
        )

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from([b"P5", b"P6"]), st.lists(header_pieces, max_size=24).map(b"".join), st.integers(0, 200))
    @example(b"P6", b"12 3 255\n", 108)  # no whitespace after the magic
    @example(b"P6", b" 12#c 3 255\n", 108)  # a token with a comment mark in it
    @example(b"P5", b" 2 1 255 ", 2)
    @example(b"P5", b"\t2\x0b1\x0c255\r", 2)
    @example(b"P5", b" 2 1 # c\n255\n", 2)
    @example(b"P5", b"\n0 1 255\n", 0)
    def test_read_image_matches_the_byte_walk(self, tmp_path_factory, magic, header, payload):
        # read_image on every generated header, comment-free ones included: its outcome, or the one its
        # checks give on the header tokens that the reference walk reads
        path = tmp_path_factory.mktemp("header") / "crop.ppm"
        data = magic + header + bytes(range(256))[:payload]
        path.write_bytes(data)
        try:
            image = read_image(path)
            outcome = ("ok", image.width, image.height, image.channels, image.tobytes())
        except InvariantError as exc:
            outcome = ("error", str(exc))
        try:
            (width, height, maxval), offset = ref_read_header_tokens(data, 3, 2)
        except RefInvariant as exc:
            assert outcome == ("error", f"{path}: {exc}")
            return
        channels = 1 if magic == b"P5" else 3
        samples = data[offset : offset + width * height * channels]
        if maxval != 255:
            assert outcome == ("error", f"{path}: unsupported maxval {maxval} (want 255)")
        elif len(samples) != width * height * channels:
            want = width * height * channels
            assert outcome == ("error", f"{path}: image data truncated: want {want} bytes, got {len(samples)}")
        elif min(width, height) < 1:
            name, value = ("width", width) if width < 1 else ("height", height)
            assert outcome == ("error", f"{path}: PixelImage.{name} >= 1 violated (got {value})")
        else:
            assert outcome == ("ok", width, height, channels, samples)


class TestPreprocessChain:
    def test_grayscale_threshold_invert(self):
        # dark digit on a bright jersey: the chain isolates it as white
        arr = np.full((4, 4, 3), 230, dtype=np.uint8)
        arr[1:3, 1:3] = (40, 40, 40)
        out = invert(binary_threshold(to_grayscale(PixelImage.from_array(arr)), 128))
        assert out.pixels[0, 0, 0] == 0
        assert out.pixels[1, 1, 0] == 255

"""Digit gating, overlap suppression, number composition."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ref_assemble_number, ref_suppress_digits

from playlog import AssemblyConfig, BoundingBox, DigitDetection, InvariantError, assemble_number, suppress_digits
from playlog.jersey import assemble_numbers


def digit(value, conf, x, y=10, w=10, h=14):
    return DigitDetection(box=BoundingBox(x, y, w, h), digit=value, confidence=conf)


class TestAssemblyConfig:
    def test_defaults(self):
        cfg = AssemblyConfig()
        assert cfg.iou_suppress_threshold == 0.55
        assert cfg.confidence_threshold == 0.97
        assert cfg.max_digits == 2

    @pytest.mark.parametrize("kwargs", [
        dict(iou_suppress_threshold=0.0),
        dict(iou_suppress_threshold=1.0),
        dict(confidence_threshold=1.5),
        dict(max_digits=0),
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(InvariantError):
            AssemblyConfig(**kwargs)


class TestSuppressDigits:
    def test_confidence_gate_boundary(self):
        kept = suppress_digits([digit(5, 0.96, 0), digit(5, 0.97, 30)])
        assert [d.confidence for d in kept] == [0.97]

    def test_gate_is_inclusive(self):
        assert len(suppress_digits([digit(1, 0.97, 0)])) == 1

    def test_overlap_keeps_highest_confidence(self):
        # same cell read twice; the weaker duplicate dies
        a = digit(5, 0.99, 0)
        b = digit(6, 0.98, 1)
        kept = suppress_digits([b, a])
        assert kept == [a]

    def test_disjoint_all_survive(self):
        a = digit(5, 0.99, 0)
        b = digit(1, 0.98, 30)
        assert suppress_digits([a, b]) == [a, b]

    def test_iou_threshold_inclusive(self):
        # identical boxes have IoU 1.0 >= any threshold, always suppressed
        a = digit(3, 0.99, 0)
        b = digit(3, 0.98, 0)
        assert suppress_digits([a, b]) == [a]

    def test_suppression_is_greedy_not_transitive(self):
        # b overlaps a (suppressed), c overlaps b but not a (kept)
        a = digit(1, 0.99, 0, w=10)
        b = digit(2, 0.985, 4, w=10)
        c = digit(3, 0.98, 9, w=10)
        kept = suppress_digits([a, b, c], AssemblyConfig(iou_suppress_threshold=0.4))
        assert kept == [a, c]

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(100):
            digits = [
                digit(rng.randrange(10), round(rng.uniform(0.9, 1.0), 3), rng.randrange(40))
                for _ in range(rng.randint(0, 6))
            ]
            once = suppress_digits(digits)
            assert suppress_digits(once) == once

    def test_permutation_invariant(self):
        digits = [
            digit(4, 0.99, 0),
            digit(2, 0.98, 2),
            digit(7, 0.98, 30),
            digit(7, 0.97, 31),
        ]
        expected = suppress_digits(digits)
        for perm in itertools.permutations(digits):
            assert suppress_digits(list(perm)) == expected

    def test_empty(self):
        assert suppress_digits([]) == []


class TestAssembleNumber:
    def test_two_digits_left_to_right(self):
        # a 5 then a 1 reading left to right is 51
        assert assemble_number([digit(5, 0.99, 0), digit(1, 0.98, 20)]) == 51

    def test_input_order_irrelevant(self):
        assert assemble_number([digit(1, 0.98, 20), digit(5, 0.99, 0)]) == 51

    def test_single_digit(self):
        assert assemble_number([digit(7, 0.99, 5)]) == 7

    def test_leading_zero_composes(self):
        assert assemble_number([digit(0, 0.99, 0), digit(8, 0.98, 20)]) == 8

    def test_empty_is_none(self):
        assert assemble_number([]) is None

    def test_cap_keeps_most_confident(self):
        # three survivors, cap two: the weakest (leftmost here) is cut
        digits = [digit(9, 0.971, 0), digit(5, 0.999, 20), digit(1, 0.998, 40)]
        assert assemble_number(digits) == 51

    def test_max_digits_one(self):
        cfg = AssemblyConfig(max_digits=1)
        assert assemble_number([digit(5, 0.99, 0), digit(1, 0.98, 20)], cfg) == 5

    def test_equal_centers_ordered_by_confidence(self):
        a = digit(2, 0.99, 0)
        b = digit(6, 0.98, 0)
        assert assemble_number([a, b]) == 26


class TestEndToEnd:
    def test_gate_then_suppress_then_compose(self):
        raw = [
            digit(5, 0.99, 0),
            digit(6, 0.98, 1),   # duplicate read of the 5 cell
            digit(1, 0.975, 20),
            digit(4, 0.90, 40),  # below the gate
        ]
        assert assemble_number(suppress_digits(raw)) == 51

    def test_all_gated_out_is_none(self):
        raw = [digit(5, 0.8, 0), digit(1, 0.5, 20)]
        assert assemble_number(suppress_digits(raw)) is None

    def test_pipeline_permutation_invariant(self):
        rng = random.Random(123)
        for _ in range(50):
            raw = [
                digit(rng.randrange(10), round(rng.uniform(0.9, 1.0), 3), rng.randrange(0, 60, 3))
                for _ in range(rng.randint(0, 6))
            ]
            expected = assemble_number(suppress_digits(raw))
            shuffled = raw[:]
            for _ in range(5):
                rng.shuffle(shuffled)
                assert assemble_number(suppress_digits(shuffled)) == expected


def _triple(d):
    return (d.digit, d.confidence, (d.box.x, d.box.y, d.box.w, d.box.h))


# few distinct positions, sizes and confidences, so equal centers and equal
# confidences (the tie-breaks) are common
tied_digits = st.lists(
    st.builds(
        digit,
        st.integers(0, 9),
        st.sampled_from([0.5, 0.96, 0.97, 0.98, 0.99, 1.0]),
        st.sampled_from([0, 0.5, 3, 6, 12]),
        y=st.sampled_from([10, 11]),
        w=st.sampled_from([6, 10, 12]),
    ),
    max_size=5,
)
configs = st.builds(
    AssemblyConfig,
    iou_suppress_threshold=st.sampled_from([0.2, 0.55, 0.9]),
    confidence_threshold=st.sampled_from([0.5, 0.97, 0.99]),
    max_digits=st.integers(1, 3),
)


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(tied_digits, configs)
    @example([digit(2, 0.99, 0), digit(6, 0.99, 1, w=8)], AssemblyConfig())
    @example([digit(7, 0.99, 0), digit(3, 0.99, 0)], AssemblyConfig(iou_suppress_threshold=0.99))
    def test_suppress_then_assemble(self, digits, cfg):
        iou_t, conf_t, cap = cfg.iou_suppress_threshold, cfg.confidence_threshold, cfg.max_digits
        triples = [_triple(d) for d in digits]
        survivors = suppress_digits(digits, cfg)
        assert [_triple(d) for d in survivors] == ref_suppress_digits(triples, iou_t, conf_t)
        assert assemble_number(survivors, cfg) == ref_assemble_number(ref_suppress_digits(triples, iou_t, conf_t), cap)
        # any digits, in any order, not only suppression survivors
        assert assemble_number(digits, cfg) == ref_assemble_number(triples, cap)


# positions and widths where IoU lands exactly on a threshold: boxes at x 0
# and 1 of width 2 overlap at IoU 1/3, of width 4 at 0.6; -0.0 and 0 are
# equal centers and equal rank keys
exact_digits = st.builds(
    digit,
    st.sampled_from([0, 0, 0, 1, 7, 9]),
    st.sampled_from([0.5, 0.96, 0.97, 0.98, 1.0]),
    st.sampled_from([-0.0, 0, 1, 3, 6, 12]),
    y=st.sampled_from([10, 11]),
    w=st.sampled_from([2, 4, 10]),
    h=st.just(1),
)
exact_configs = st.builds(
    AssemblyConfig,
    iou_suppress_threshold=st.sampled_from([1 / 3, 0.55, 0.6]),
    confidence_threshold=st.sampled_from([0.5, 0.97, 0.98]),
    max_digits=st.integers(1, 4),
)


def assembled_rows(rows, cfg):
    """assemble_numbers of equal-length rows of digit detections, as a list."""
    k = len(rows[0])
    digits = np.array([[d.digit for d in r] for r in rows], dtype=np.int64).reshape(len(rows), k)
    confidences = np.array([[d.confidence for d in r] for r in rows], dtype=np.float64).reshape(len(rows), k)
    boxes = np.array(
        [[(d.box.x, d.box.y, d.box.w, d.box.h) for d in r] for r in rows], dtype=np.float64
    ).reshape(len(rows), k, 4)
    return assemble_numbers(digits, confidences, boxes, cfg).tolist()


def reference_number(row, cfg):
    """The reference number of one row, -1 for none."""
    number = ref_assemble_number(
        ref_suppress_digits([_triple(d) for d in row], cfg.iou_suppress_threshold, cfg.confidence_threshold),
        cfg.max_digits,
    )
    return -1 if number is None else number


class TestArrayAssembly:
    """Rows of at most two digits, as a jersey shows, which assemble_numbers reads by comparing keys, not sorting."""

    @settings(max_examples=600, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda k: st.lists(st.lists(exact_digits, min_size=k, max_size=k), min_size=1,
                                                          max_size=8)), exact_configs)
    @example([[digit(2, 0.97, -0.0, w=2), digit(6, 0.97, 1, w=2)]], AssemblyConfig(iou_suppress_threshold=1 / 3))
    @example([[digit(2, 0.98, 0, w=4), digit(6, 0.97, 1, w=4)]], AssemblyConfig(iou_suppress_threshold=0.6))
    @example([[digit(5, 0.99, -0.0), digit(3, 0.99, 0)]], AssemblyConfig(iou_suppress_threshold=0.99))
    @example([[digit(4, 0.99, 0), digit(4, 0.99, 0)]], AssemblyConfig())
    @example([[digit(1, 0.99, 6, w=4), digit(7, 0.98, 4, w=8)]], AssemblyConfig(iou_suppress_threshold=0.6))
    @example([[digit(3, 0.99, 0), digit(8, 0.96, 12)], [digit(3, 0.96, 0), digit(8, 0.99, 12)]], AssemblyConfig())
    def test_equals_the_reference_suppression_and_assembly(self, rows, cfg):
        assert assembled_rows(rows, cfg) == [reference_number(row, cfg) for row in rows]

    def test_exact_threshold_edges(self):
        # IoU exactly 1/3 suppresses at threshold 1/3; a confidence exactly at the gate passes it
        at_gate = AssemblyConfig(iou_suppress_threshold=1 / 3, confidence_threshold=0.97)
        assert assembled_rows([[digit(2, 0.97, 0, w=2, h=1), digit(6, 0.97, 1, w=2, h=1)]], at_gate) == [2]
        assert assembled_rows([[digit(2, 0.96, 0, w=2, h=1), digit(6, 0.97, 1, w=2, h=1)]], at_gate) == [6]
        assert assembled_rows([[]], AssemblyConfig(max_digits=3)) == [-1]

    def test_rows_of_more_than_two_digits_are_refused(self):
        # the record reader sends such records to the scalar chain (tests/test_gamelog.py)
        with pytest.raises(ValueError, match="at most 2 digits, got 3"):
            assembled_rows([[digit(0, 0.99, 0), digit(4, 0.99, 12), digit(2, 0.99, 24)]], AssemblyConfig(max_digits=3))

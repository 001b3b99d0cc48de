"""Segment coverage must match a cell-by-cell footprint stamp on every input.

A cell is covered where the receiver bitset of its segment, as cut by
``receiver_segments``, is non-zero.
"""
from __future__ import annotations

import numpy as np

from grayspace.griddata import protection_disc_offsets, receiver_segments


def disc(reach):
    fp = protection_disc_offsets(reach * 1000.0, 1000.0)
    assert fp.reach == reach
    return fp


def naive(seeds, fp):
    rows, cols = seeds.shape
    out = np.zeros_like(seeds)
    for r, c in zip(*np.nonzero(seeds)):
        for dy in range(-fp.reach, fp.reach + 1):
            i = r + dy
            if not 0 <= i < rows:
                continue
            w = int(fp.halfwidths[dy + fp.reach])
            for j in range(max(0, c - w), min(cols, c + w + 1)):
                out[i, j] = True
    return out


def run(seeds, fp):
    starts, (bits,) = receiver_segments(seeds.shape, *np.nonzero(seeds), [fp])
    lengths = np.diff(starts, append=seeds.size)
    return np.repeat(bits.any(axis=0), lengths).reshape(seeds.shape)


class TestAgreement:
    def test_against_naive(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            fp = disc(int(rng.integers(1, 12)))
            seeds = rng.random((rows, cols)) < 0.08
            got = run(seeds, fp)
            assert np.array_equal(got, naive(seeds, fp)), (rows, cols, fp.reach)


class TestEdges:
    def test_empty_seeds(self):
        seeds = np.zeros((5, 9), dtype=bool)
        assert not run(seeds, disc(4)).any()

    def test_reach_one_is_three_by_three(self):
        seeds = np.zeros((5, 5), dtype=bool)
        seeds[2, 2] = True
        out = run(seeds, disc(1))
        assert out.sum() == 9 and out[1:4, 1:4].all()

    def test_tiny_grids(self):
        seeds = np.ones((1, 1), dtype=bool)
        assert run(seeds, disc(30)).all()
        seeds = np.ones((1, 7), dtype=bool)
        assert run(seeds, disc(2)).all()

    def test_output_fresh_and_bool(self):
        seeds = np.zeros((4, 4), dtype=bool)
        out = run(seeds, disc(3))
        assert out.dtype == np.bool_
        assert out is not seeds

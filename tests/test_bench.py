"""The growth benchmark's line fit."""

import pytest

from rwc.bench import affine_fit


def test_affine_fit_hand_computed():
    # mean x 1.5, mean y 5, Sxx 5, Sxy 14: a = 2.8, b = 0.8;
    # residuals 0.2, -0.6, 0.6, -0.2: SSres 0.8 of SStot 40
    a, b, r2 = affine_fit([0, 1, 2, 3], [1, 3, 7, 9])
    assert a == pytest.approx(2.8)
    assert b == pytest.approx(0.8)
    assert r2 == pytest.approx(0.98)


def test_affine_fit_constant_ys():
    assert affine_fit([1, 2, 4], [3.0, 3.0, 3.0]) == (0.0, 3.0, 1.0)

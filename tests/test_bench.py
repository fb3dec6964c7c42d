"""The growth benchmark: its line fit, and the baseline rows that the
shared sampler times."""

import gc

import pytest

from rwc import bench as BN
from rwc import kk as K
from rwc.bench import affine_fit
from rwc.errors import DeadlineExceeded


def test_affine_fit_hand_computed():
    # mean x 1.5, mean y 5, Sxx 5, Sxy 14: a = 2.8, b = 0.8;
    # residuals 0.2, -0.6, 0.6, -0.2: SSres 0.8 of SStot 40
    a, b, r2 = affine_fit([0, 1, 2, 3], [1, 3, 7, 9])
    assert a == pytest.approx(2.8)
    assert b == pytest.approx(0.8)
    assert r2 == pytest.approx(0.98)


def test_affine_fit_constant_ys():
    assert affine_fit([1, 2, 4], [3.0, 3.0, 3.0]) == (0.0, 3.0, 1.0)


@pytest.mark.parametrize("family", ["left", "right"])
def test_kk_rows_are_timed_and_sized_like_a_direct_call(family):
    records = BN.run_bench(family, 3, alphabet_size=30)
    alphabet = BN.bench_alphabet(30)
    kk_rows = [r for r in records if r.algorithm == "kk"]
    assert [r.k for r in kk_rows] == [0, 1, 2, 3]
    for r in kk_rows:
        t = K.kk_compile_rule(BN.bench_rule(family, r.k), alphabet).transducer
        assert not r.timeout and r.ms > 0
        assert (r.states, r.arcs) == (t.num_states, len(t.arcs))


@pytest.mark.parametrize("skip_after, calls", [(2, 2), (0, 4)])
def test_kk_timeout_rows_restore_gc_and_skip(monkeypatch, skip_after, calls):
    seen = []

    def times_out(rule, alphabet, deadline=None):
        seen.append(gc.isenabled())
        raise DeadlineExceeded("construction exceeded its deadline")

    monkeypatch.setattr(K, "kk_compile_rule", times_out)
    monkeypatch.setattr(BN, "REPEATS_NEW", 1)
    assert gc.isenabled()
    records = BN.run_bench("right", 3, alphabet_size=12, deadline_ms=5000,
                           skip_after=skip_after)
    assert gc.isenabled()
    # each sample runs with gc paused
    assert seen == [False] * calls
    kk_rows = [r for r in records if r.algorithm == "kk"]
    assert [(r.k, r.ms, r.states, r.arcs, r.timeout) for r in kk_rows] == \
        [(k, 5000.0, None, None, True) for k in range(4)]
    # the probe is not the baseline compile: it still runs on every k
    assert all(r.dfa_arcs for r in kk_rows)

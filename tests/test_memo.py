"""The memo of the last flanked configuration: KH's points and the α-profile.

``kh_characteristic_points`` keeps its last configuration's checked gaps and
points, and ``kh_alpha_profile`` and ``sweep_oracle`` share the last profile
while its caller holds it. A hit must give the bits of a fresh computation,
only the very same input objects may hit, the level-count checks and the
flank checks run on every call, and a dropped profile is freed.
"""
import copy
import gc
import itertools
import math
import random
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fri_lab import (
    Observation,
    Rule,
    TrapezoidSet,
    full_report,
    kh_alpha_profile,
    kh_characteristic_points,
    sweep_oracle,
)
from fri_lab import interpolate, profile
from fri_lab.cli import main
from fri_lab.errors import DomainError, OrderingViolation
from fri_lab.interpolate import _at_most

from genutil import random_flanked_config

T = TrapezoidSet
N_LEVELS = 101
CALLS = {
    "kh": kh_characteristic_points,
    "report": full_report,
    "profile": lambda l, u, o: kh_alpha_profile(l, u, o, N_LEVELS),
    "sweep": lambda l, u, o: sweep_oracle(l, u, o, N_LEVELS),
}


def bits(result):
    """The result's exact bits: repr keeps every float's bits and sign, and
    the profile's arrays their bytes."""
    if hasattr(result, "levels"):
        return tuple(a.tobytes() for a in (result.levels, result.infs, result.sups))
    return repr(result)


def fresh(call, config):
    """The call's bits with both memos empty, so nothing is read from them."""
    interpolate._flanked = None
    profile._last_profile = None
    return bits(call(*config))


def two_configs(seed):
    rng = random.Random(seed)
    return random_flanked_config(rng), random_flanked_config(rng)


def signed_zero_config(zero):
    """Consequents (0.0, z, z, z) on both rules: KH's y2 and the profile's
    sups are ``z``, with its sign, and the sweep's least gap is ``z``."""
    consequent = T(0.0, zero, zero, zero)
    return (Rule((T(0, 1, 2, 3),), consequent), Rule((T(10, 11, 12, 13),), consequent),
            Observation((T(4, 5, 6, 7),)))


@pytest.mark.parametrize("order", list(itertools.permutations(CALLS)), ids="-".join)
def test_hits_have_the_bits_of_fresh_results_in_every_call_order(order):
    a, b = two_configs(1)
    configs = {"a": a, "b": b}
    want = {(name, key): fresh(CALLS[name], config)
            for name in CALLS for key, config in configs.items()}
    held = []  # keeps every profile alive, so the profile memo can hit
    for key in "aabab" + "bba":
        for name in order:
            result = CALLS[name](*configs[key])
            held.append(result)
            assert bits(result) == want[name, key], (name, key)


def test_a_held_profile_is_returned_again_and_summarised_by_the_sweep():
    config, other = two_configs(3)
    held = kh_alpha_profile(*config, N_LEVELS)
    assert kh_alpha_profile(*config, N_LEVELS) is held
    kh_characteristic_points(*other)  # KH's memo does not evict the profile
    assert kh_alpha_profile(*config, N_LEVELS) is held
    assert kh_alpha_profile(*config, N_LEVELS + 1) is not held
    assert kh_alpha_profile(*config, N_LEVELS) is not held  # one entry: evicted
    points = kh_characteristic_points(*config)
    assert full_report(*config).points is points


def test_equal_but_distinct_inputs_never_share_an_entry():
    negative, positive = signed_zero_config(-0.0), signed_zero_config(0.0)
    # equal and equally hashed, so a memo keyed on values would mix them up
    assert negative == positive and hash(negative) == hash(positive)
    for first, second, sign in ((negative, positive, 1.0), (positive, negative, -1.0)):
        kept = kh_alpha_profile(*first, N_LEVELS)
        kh_characteristic_points(*first)
        assert math.copysign(1.0, kh_characteristic_points(*second).y2) == sign
        assert math.copysign(1.0, full_report(*second).points.y2) == sign
        got = kh_alpha_profile(*second, N_LEVELS)
        assert got is not kept
        assert {math.copysign(1.0, s) for s in got.sups.tolist()} == {sign}
        assert math.copysign(1.0, sweep_oracle(*second, N_LEVELS).min_gap) == sign
    # a copy is equal but distinct too
    twin = copy.deepcopy(negative)
    kept = kh_alpha_profile(*negative, N_LEVELS)
    assert kh_alpha_profile(*twin, N_LEVELS) is not kept


@pytest.mark.parametrize("call", [kh_alpha_profile, sweep_oracle])
def test_level_counts_are_checked_on_every_call(call):
    config = signed_zero_config(0.0)
    held = kh_alpha_profile(*config, 1001)
    call(*config, 1001)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call(*config, 1001.0)
    with pytest.raises(DomainError, match="need at least 2 levels, got 1"):
        call(*config, 1)
    assert kh_alpha_profile(*config, 1001) is held


# the lower antecedent's a4 lies past the observation's
UNFLANKED = (Rule((T(0, 1, 2, 8),), T(1, 2, 3, 4)), Rule((T(10, 11, 12, 13),), T(6, 7, 8, 9)),
             Observation((T(4, 5, 6, 7),)))
# the gap from the lower antecedent to the observation overflows, so KH's
# points and the profile are not finite
GAP_OVERFLOW = (Rule((T(*[-1e308] * 4),), T(1, 2, 3, 4)), Rule((T(*[1.5e308] * 4),), T(6, 7, 8, 9)),
                Observation((T(*[1e308] * 4),)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config, error", [(UNFLANKED, OrderingViolation),
                                           (GAP_OVERFLOW, DomainError)])
def test_a_call_that_raises_raises_again_and_keeps_nothing(config, error):
    good = signed_zero_config(0.0)
    kh_characteristic_points(*good)
    held = kh_alpha_profile(*good, N_LEVELS)
    entries = interpolate._flanked, profile._last_profile
    for _ in range(2):
        for call in CALLS.values():
            with pytest.raises(error):
                call(*config)
    assert interpolate._flanked is entries[0] and profile._last_profile is entries[1]
    assert kh_alpha_profile(*good, N_LEVELS) is held


def test_a_dropped_profile_is_freed():
    config, _ = two_configs(5)
    held = kh_alpha_profile(*config, N_LEVELS)
    ref = weakref.ref(held)
    sweep_oracle(*config, N_LEVELS)
    del held
    gc.collect()
    assert ref() is None
    # and the sweep's own profile is not kept either
    sweep_oracle(*config, N_LEVELS)
    gc.collect()
    assert profile._last_profile[4]() is None


def test_threads_get_their_own_bits():
    # four threads, more than a two-CPU host has cores
    configs = two_configs(11) + two_configs(12)
    want = [{name: fresh(call, config) for name, call in CALLS.items()} for config in configs]
    failures = []
    start = threading.Barrier(len(configs), timeout=60)

    def work(config, expected):
        start.wait()
        for _ in range(100):
            # every result is held until all four are read, so the sweep can
            # hit the profile unless another thread replaced it
            results = {name: call(*config) for name, call in CALLS.items()}
            failures.extend(name for name, result in results.items()
                            if bits(result) != expected[name])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=pair) for pair in zip(configs, want)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def summary(levels, infs, sups):
    """``sweep_oracle``'s fields, recomputed in plain floats from the arrays."""
    gaps = [s - i for i, s in zip(infs, sups)]
    least = min(gaps)
    return (least, levels[max(k for k, g in enumerate(gaps) if _at_most(g, least))],
            all(map(_at_most, infs, infs[1:])), all(map(_at_most, sups[1:], sups)),
            tuple(x for x, i, s in zip(levels, infs, sups) if not _at_most(i, s)))


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((2, 3, 11, 101, 1001)))
def test_sweep_summarises_the_profile_held_or_dropped(seed, n_levels):
    config = random_flanked_config(random.Random(seed))
    held = kh_alpha_profile(*config, n_levels)
    want = repr(summary(held.levels.tolist(), held.infs.tolist(), held.sups.tolist()))

    def got():
        r = sweep_oracle(*config, n_levels)
        return repr((r.min_gap, r.gap_argmin, r.inf_monotone, r.sup_monotone, r.abnormal_levels))

    assert got() == want
    del held
    gc.collect()
    assert got() == want


FIXTURE_6 = str(Path(__file__).resolve().parent.parent / "fixtures" / "example_06.json")


# each configuration's gaps are read once: by KH, then from its memo by the
# report and the float sweep; bench sweeps each case right after its run
@pytest.mark.parametrize("argv, status, n_configs", [
    (["interpolate", FIXTURE_6, "--sweep", "11"], 1, 1),
    (["bench", "--sweep", "11"], 0, 9),
])
def test_sweeping_commands_read_each_configurations_gaps_once(
    monkeypatch, capsys, argv, status, n_configs
):
    calls = []
    gaps = interpolate._gaps

    def counted(*args):
        calls.append(args)
        return gaps(*args)

    monkeypatch.setattr(interpolate, "_gaps", counted)
    assert main(argv) == status
    assert capsys.readouterr().out.count("sweep(11): ") == n_configs
    assert len(calls) == n_configs

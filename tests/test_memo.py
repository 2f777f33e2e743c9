"""The memo of the last flanked configuration: one entry for its checked
gaps, KH's points and the α-profile.

The memo keeps the entry of the last call whose gaps passed, until a call on
another configuration; ``kh_alpha_profile`` and ``sweep_oracle`` share its
profile while its caller holds it. A hit must give the bits of a fresh
computation, in any order of calls, raising ones included; only the very same
input objects may hit, the level-count checks run on every call, the gaps are
checked once per configuration, and a dropped profile is freed.
"""
import copy
import gc
import itertools
import math
import operator
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
from fri_lab import interpolate
from fri_lab.cli import main
from fri_lab.errors import DomainError, FriError, OrderingViolation
from fri_lab.interpolate import _at_most
from fri_lab.profile import _sweep_in_floats

from genutil import random_flanked_config

T = TrapezoidSet
N_LEVELS = 101


def calls(n_levels):
    """Every reader of the memo, those that sweep at ``n_levels`` levels."""
    return {
        "kh": kh_characteristic_points,
        "report": full_report,
        "profile": lambda l, u, o: kh_alpha_profile(l, u, o, n_levels),
        "sweep": lambda l, u, o: sweep_oracle(l, u, o, n_levels),
        "floats": lambda l, u, o: _sweep_in_floats(l, u, o, n_levels),
    }


CALLS = calls(N_LEVELS)


def bits(result):
    """The result's exact bits: repr keeps every float's bits and sign, and
    the profile's arrays their bytes."""
    if hasattr(result, "levels"):
        return tuple(a.tobytes() for a in (result.levels, result.infs, result.sups))
    return repr(result)


def outcome(call, config, held):
    """The call's bits, its result appended to ``held``, or the type and
    message of the error it raised."""
    try:
        result = call(*config)
    except FriError as error:
        return type(error), str(error)
    held.append(result)
    return bits(result)


def fresh(call, config):
    """The call's :func:`outcome` with the memo empty, so nothing is read from it."""
    interpolate._kept = None
    return outcome(call, config, [])


@pytest.fixture
def gap_checks(monkeypatch):
    """The arguments of every run of ``_gaps`` from here on."""
    checked = []
    gaps = interpolate._gaps

    def counted(*args):
        checked.append(args)
        return gaps(*args)

    monkeypatch.setattr(interpolate, "_gaps", counted)
    return checked


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
def test_hits_have_the_bits_of_fresh_results_in_every_call_order(gap_checks, order):
    a, b = two_configs(1)
    configs = {"a": a, "b": b}
    want = {(name, key): fresh(CALLS[name], config)
            for name in CALLS for key, config in configs.items()}
    held = []  # keeps every profile alive, so the profile memo can hit
    last = None
    for key in "aabab" + "bba":
        gap_checks.clear()
        for name in order:
            result = CALLS[name](*configs[key])
            held.append(result)
            assert bits(result) == want[name, key], (name, key)
        # the gaps are checked once each time the configuration changes
        assert len(gap_checks) == (key != last), key
        last = key


def test_a_held_profile_is_returned_again_and_summarised_by_the_sweep():
    config, other = two_configs(3)
    first = kh_alpha_profile(*config, N_LEVELS)
    assert kh_alpha_profile(*config, N_LEVELS) is first
    kh_characteristic_points(*other)  # one entry: another configuration evicts the profile
    held = kh_alpha_profile(*config, N_LEVELS)
    assert held is not first and bits(held) == bits(first)
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


@pytest.mark.parametrize("call", [kh_alpha_profile, sweep_oracle, _sweep_in_floats])
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


def test_a_call_whose_gaps_fail_raises_again_and_keeps_nothing():
    good = signed_zero_config(0.0)
    kh_characteristic_points(*good)
    held = kh_alpha_profile(*good, N_LEVELS)
    kept = interpolate._kept
    slots = kept.gaps, kept.points, kept.profile
    for _ in range(2):
        for call in CALLS.values():
            with pytest.raises(OrderingViolation):
                call(*UNFLANKED)
    assert interpolate._kept is kept
    assert all(map(operator.is_, (kept.gaps, kept.points, kept.profile), slots))
    assert kh_alpha_profile(*good, N_LEVELS) is held


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_call_that_raises_after_its_gaps_pass_keeps_its_entry(gap_checks):
    good = signed_zero_config(0.0)
    want = {name: fresh(call, good) for name, call in CALLS.items()}
    held = kh_alpha_profile(*good, N_LEVELS)
    gap_checks.clear()
    for _ in range(2):
        for call in CALLS.values():
            with pytest.raises(DomainError):
                call(*GAP_OVERFLOW)
    # its gaps passed, so its entry is kept and evicts the good one
    assert len(gap_checks) == 1
    assert interpolate._kept.obs is GAP_OVERFLOW[2]
    assert kh_alpha_profile(*good, N_LEVELS) is not held
    assert {name: bits(call(*good)) for name, call in CALLS.items()} == want


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.lists(st.tuples(st.sampled_from(tuple(CALLS)), st.integers(min_value=0, max_value=3),
                          st.sampled_from((2, 11, 101)), st.booleans()),
                min_size=1, max_size=12))
def test_interleaved_calls_have_the_bits_of_fresh_calls(seed, steps):
    configs = (*two_configs(seed), UNFLANKED, GAP_OVERFLOW)
    want = {(name, c, n_levels): fresh(calls(n_levels)[name], configs[c])
            for name, c, n_levels, _ in steps}
    held = []
    for name, c, n_levels, hold in steps:
        got = outcome(calls(n_levels)[name], configs[c], held if hold else [])
        assert got == want[name, c, n_levels], (name, c, n_levels)


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
    assert interpolate._kept.profile() is None


def test_threads_get_their_own_bits():
    # six threads, more than a two-CPU host has cores: four on configurations
    # of their own, and two sharing one at different level counts, so that
    # each overwrites the other's profile in the shared entry
    shared = two_configs(13)[0]
    jobs = [(config, N_LEVELS) for config in two_configs(11) + two_configs(12)]
    jobs += [(shared, N_LEVELS), (shared, 11)]
    want = [{name: fresh(call, config) for name, call in calls(n_levels).items()}
            for config, n_levels in jobs]
    failures = []
    start = threading.Barrier(len(jobs), timeout=60)

    def work(config, n_levels, expected):
        start.wait()
        readers = calls(n_levels)
        for _ in range(100):
            # every result is held until all are read, so the sweep can hit
            # the profile unless another thread replaced it
            results = {name: call(*config) for name, call in readers.items()}
            failures.extend(name for name, result in results.items()
                            if bits(result) != expected[name])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(*job, expected))
                   for job, expected in zip(jobs, want)]
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
    gap_checks, capsys, argv, status, n_configs
):
    assert main(argv) == status
    assert capsys.readouterr().out.count("sweep(11): ") == n_configs
    assert len(gap_checks) == n_configs

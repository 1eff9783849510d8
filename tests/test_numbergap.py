import decimal
import hashlib
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcycles import numbergap
from vtcycles.gadgets import directed_cycle_product
from vtcycles.numbergap import (SEARCH_D_MAX, MotohashiPair, SplitCheck,
                                is_prime, motohashi_pairs, perimeter_gap_table,
                                primes_below, prime_partitionable_check,
                                search_prime_partitionable,
                                divisibility_gap_bound,
                                trotter_erdos_necessary,
                                witness_from_prime_pair)
from vtcycles.oracles import brute_hamiltonian
from vtcycles.reports import dumps

from _independent import euclid_gcd, trial_division_prime


def test_primes_below_examples():
    assert primes_below(16) == [2, 3, 5, 7, 11, 13]
    assert primes_below(2) == []
    assert primes_below(0) == []


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_prime(n)
    assert is_prime(2 ** 31 - 1)          # Mersenne prime
    assert not is_prime(2 ** 32 + 1)      # 641 * 6700417
    assert is_prime(2 ** 61 - 1)          # Mersenne prime, tier of 9 bases


# The first strong pseudoprime to the first k prime bases (OEIS A014233),
# with its factors: each is the first composite that k bases pass.
STRONG_PSEUDOPRIMES = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
    12: (318665857834031151167461, (399165290221, 798330580441)),
}


def test_is_prime_rejects_each_tiers_first_strong_pseudoprime():
    for k, (n, factors) in STRONG_PSEUDOPRIMES.items():
        assert math.prod(factors) == n
        assert not is_prime(n), (k, n)


def _strong_probable_prime(n, a):
    """n odd passes the strong Fermat test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# Composites with no prime factor below 1,000, which the wheel passes, so
# only Miller-Rabin can reject them: n, its factors, and the first base
# that rejects it; every smaller prime base passes it.  Each lies in the
# tier that runs exactly up to that base.
MILLER_RABIN_ONLY = {
    1194649: ((1093, 1093), 3),          # tier below 1,373,653: 2 bases
    2284453: ((1069, 2137), 5),          # tier below 25,326,001: 3 bases
}


def test_is_prime_rejects_composites_only_miller_rabin_sees():
    for n, (factors, base) in MILLER_RABIN_ONLY.items():
        assert math.prod(factors) == n and min(factors) > 1000
        assert all(_strong_probable_prime(n, a)
                   for a in (2, 3, 5, 7) if a < base), n
        assert not _strong_probable_prime(n, base), n
        assert not is_prime(n), n


def test_is_prime_refuses_n_past_its_proven_bases():
    # 1287836182261 * 2575672364521: a strong pseudoprime to bases 2..41
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    # two 12-digit primes: composite, decided by all 13 bases
    assert not is_prime(999999999989 * 999999999959)
    with pytest.raises(ValueError, match=str(psi13)):
        is_prime(psi13)
    with pytest.raises(ValueError, match=str(psi13)):
        is_prime(2 ** 89 - 1)


def test_gcd_worked_example():
    # 880 = 2^4*5*11, 8736 = 2^5*3*7*13
    assert math.gcd(880, 8736) == 16 == euclid_gcd(880, 8736)


def test_necessity_condition_examples():
    holds, split = trotter_erdos_necessary(2, 2)
    assert holds and split == (1, 1)
    assert trotter_erdos_necessary(2, 3) == (False, None)
    assert trotter_erdos_necessary(880, 8736) == (False, None)


def test_necessity_agrees_with_oracle_on_c2xc3():
    assert brute_hamiltonian(directed_cycle_product(2, 3)) is None


def test_gap_bound_examples():
    assert divisibility_gap_bound(880, 8736) == 16
    assert divisibility_gap_bound(2, 2) == 0     # Hamiltonian product
    assert divisibility_gap_bound(2, 4) == 0     # split (1,1) works


def test_witness_certificate_accepts_the_main_instance():
    cert = prime_partitionable_check(16, 880, 8736)
    assert cert.valid and len(cert.splits) == 15
    for s in cert.splits:
        assert s.shares_factor
        # even d1 shares 2 with 880; odd d1 leaves the evidence to one side
        if s.d1 % 2 == 0:
            assert s.g1 >= 2
    # independent re-validation with a second gcd implementation
    for s in cert.splits:
        assert euclid_gcd(880, s.d1) >= 2 or euclid_gcd(8736, s.d2) >= 2


def test_witness_certificate_rejections():
    cert = prime_partitionable_check(5, 30, 5)
    assert not cert.valid       # split (1,4): gcd(30,1)=1 and gcd(5,4)=1
    assert "1,4" in cert.reason.replace("(", "").replace(")", "")
    cert = prime_partitionable_check(2, 2, 4)
    assert not cert.valid       # gcd is 2 = d but split (1,1) fails both
    with pytest.raises(ValueError):
        prime_partitionable_check(1, 5, 5)


def test_witness_certificate_gcd_mismatch():
    cert = prime_partitionable_check(4, 8, 10)   # gcd is 2, not 4
    assert not cert.valid and "gcd" in cert.reason


def test_search_smallest_is_sixteen():
    hits = search_prime_partitionable(20)
    assert [d for d, _, _ in hits] == [16]
    d, (p1, p2), cert = hits[0]
    assert cert.valid
    # re-validate the returned certificate from scratch
    again = prime_partitionable_check(d, cert.n1, cert.n2)
    assert again.valid
    assert euclid_gcd(cert.n1, cert.n2) == 16


def test_search_finds_nothing_below_sixteen():
    assert search_prime_partitionable(15) == []


def test_search_rejects_large_bound():
    with pytest.raises(ValueError):
        search_prime_partitionable(41)


def test_search_full_range_reproduces_known_sequence():
    # exhaustive bipartition scan to the cap; matches the classical list of
    # prime-partitionable numbers below 40 (16, 22, 34, 36)
    hits = search_prime_partitionable(40)
    assert [d for d, _, _ in hits] == [16, 22, 34, 36]
    for d, _, cert in hits:
        assert cert.valid
        assert euclid_gcd(cert.n1, cert.n2) == d


def test_motohashi_pair_examples():
    pairs = {m.p: m.q for m in motohashi_pairs(100)}
    assert pairs[5] == 11
    assert 11 ** 25 < 5 ** 41
    # p = 2 is listed (3^25 < 2^41 exactly) but fails the later size guard
    assert pairs[2] == 3
    assert 3 ** 25 < 2 ** 41
    # p = 3 has no admissible q: 7^25 >= 3^41
    assert 3 not in pairs
    assert 7 ** 25 >= 3 ** 41


def test_witness_from_prime_pair_main_instance():
    wit = witness_from_prime_pair(5, 11)
    assert (wit.d, wit.n1, wit.n2) == (16, 880, 8736)
    assert wit.certificate.valid
    assert wit.n == 7_687_680
    assert abs(wit.ln_n - math.log(7_687_680)) < 1e-12
    assert wit.d / wit.ln_n >= 1.0          # 16 / 15.855... ~ 1.009


def test_witness_from_prime_pair_guards():
    with pytest.raises(ValueError, match="size guard"):
        witness_from_prime_pair(2, 3)       # 4 = p^2 <= p+q = 5
    with pytest.raises(ValueError, match="bound"):
        witness_from_prime_pair(3, 7)
    with pytest.raises(ValueError, match="1 mod"):
        witness_from_prime_pair(5, 13)


def test_perimeter_gap_table():
    assert perimeter_gap_table(4) == []     # only guarded-out pairs exist
    rows = perimeter_gap_table(100)
    assert rows[0]["p"] == 5 and rows[0]["q"] == 11
    assert all(row["ratio"] >= 0.9 for row in rows)
    assert all(row["n1"] * row["n2"] == row["n"] for row in rows)
    by_pair = {(r["p"], r["q"]): r for r in rows}
    assert by_pair[(5, 11)]["d"] == 16


def test_table_rows_match_the_witness_definition():
    # every row rebuilt from the definition: n2 is d times the primes below
    # d other than p and q, found by trial division up to the largest d
    rows = perimeter_gap_table(1000)
    max_d = max(row["d"] for row in rows)
    primes = [z for z in range(2, max_d) if trial_division_prime(z)]
    assert [row["p"] for row in rows] == sorted({row["p"] for row in rows})
    for row in rows:
        p, q, d = row["p"], row["q"], row["d"]
        others = [z for z in primes if z < d and z not in (p, q)]
        assert d == p + q and row["n1"] == d * p * q, (p, q)
        assert row["n2"] == d * math.prod(others), (p, q)
        assert prime_partitionable_check(d, row["n1"], row["n2"]).valid, (p, q)
    # the table decides by the sieve alone; a single witness builds the
    # same sides and attaches the split-by-split certificate
    rows = perimeter_gap_table(300)
    for row in (rows[0], rows[-1]):
        d, n1, n2 = row["d"], row["n1"], row["n2"]
        wit = witness_from_prime_pair(row["p"], row["q"])
        assert (wit.d, wit.n1, wit.n2) == (d, n1, n2)
        assert wit.certificate == prime_partitionable_check(d, n1, n2)


def test_motohashi_pairs_match_an_independent_scan():
    # q = 1 + kp for k = 1, 2, ..., each tested by trial division and
    # kept when q^25 < p^41 holds exactly
    expected = []
    for p in range(2, 3001):
        if not trial_division_prime(p):
            continue
        q = 1 + p
        while q ** 25 < p ** 41:
            if trial_division_prime(q):
                expected.append(MotohashiPair(p, q, True))
                break
            q += p
    assert motohashi_pairs(3000) == expected


def test_motohashi_pairs_match_the_per_candidate_scan():
    # the scan the sieve replaced: is_prime on each candidate in turn
    expected = []
    for p in primes_below(10 ** 5 + 1):
        step = p if p == 2 else 2 * p
        stop = int(p ** (41 / 25)) + 2
        for q in range(1 + step, stop, step):
            if is_prime(q):
                if q ** 25 < p ** 41:
                    expected.append(MotohashiPair(p, q, True))
                break
    assert motohashi_pairs(10 ** 5) == expected
    assert motohashi_pairs(1) == motohashi_pairs(-5) == []


@st.composite
def candidates(draw):
    """(p, 1 + kp), k drawn by its bit length j: any j up to p's, or one
    next to 16/25 of p's, where q < p^(41/25) turns false."""
    p = draw(st.integers(2, 10 ** 7))
    edge = 16 * p.bit_length() // 25
    j = draw(st.integers(1, p.bit_length())
             | st.integers(max(1, edge - 1), edge + 1))
    return p, 1 + draw(st.integers(1 << (j - 1), (1 << j) - 1)) * p


@settings(max_examples=500, deadline=None)
@given(candidates())
@example((1031, 1 + 100 * 1031))    # 100 < 2^7 but 100 > 1031^(16/25)
def test_admissible_shortcut_matches_the_big_powers(pair):
    p, q = pair
    assert numbergap._admissible(p, q) == (q ** 25 < p ** 41)


def test_motohashi_pair_dataclass():
    pair = MotohashiPair(5, 11, True)
    assert pair.bound_ok


# --- the sieve against the per-split definition -------------------------------

def per_split_certificate(d, n1, n2):
    """(valid, reason, splits) rebuilt split by split with a second gcd."""
    splits = tuple(SplitCheck(d1, d - d1, euclid_gcd(n1, d1),
                              euclid_gcd(n2, d - d1)) for d1 in range(1, d))
    g = euclid_gcd(n1, n2)
    if g != d:
        return False, f"gcd(n1,n2) = {g} != d", splits
    for s in splits:
        if s.g1 < 2 and s.g2 < 2:
            return False, f"split ({s.d1},{s.d2}) is coprime to both", splits
    return True, "", splits


@st.composite
def witness_candidates(draw):
    """d in 2..80 with each n either arbitrary, a multiple of d, or d times
    the primes below d on one side of a drawn bipartition (the search
    family, where valid witnesses live)."""
    d = draw(st.integers(2, 80))
    ps = primes_below(d)
    mask = draw(st.integers(0, (1 << len(ps)) - 1))

    def side(bit):
        kind = draw(st.sampled_from(("arbitrary", "multiple", "family")))
        if kind == "arbitrary":
            return draw(st.integers(0, 10 ** 40))
        if kind == "multiple":
            return d * draw(st.integers(0, 10 ** 40))
        return d * math.prod(p for i, p in enumerate(ps)
                             if (mask >> i) & 1 == bit)

    return d, side(1), side(0)


@settings(max_examples=400, deadline=None)
@given(witness_candidates())
def test_check_matches_per_split_definition(case):
    d, n1, n2 = case
    cert = prime_partitionable_check(d, n1, n2)
    valid, reason, splits = per_split_certificate(d, n1, n2)
    assert (cert.valid, cert.reason) == (valid, reason)
    assert len(cert.splits) == d - 1
    assert tuple(cert.splits) == splits and cert.splits == splits
    assert cert == prime_partitionable_check(d, n1, n2)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 400), st.integers(2, 400))
def test_necessity_condition_matches_per_split_definition(n1, n2):
    d = euclid_gcd(n1, n2)
    expected = (False, None)
    if d >= 2:
        for d1 in range(1, d):
            if euclid_gcd(n1, d1) == 1 and euclid_gcd(n2, d - d1) == 1:
                expected = (True, (d1, d - d1))
                break
    assert trotter_erdos_necessary(n1, n2) == expected


# Windows around the bounds where is_prime changes method: 1000^2, past
# which passing the wheel no longer proves a prime, and the bounds where
# Miller-Rabin switches to more bases.
_TIER_EDGES = [1000 ** 2] + [psi for psi, _ in numbergap._MR_TIERS
                             if psi < 10 ** 8]


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.integers(0, 10 ** 8 - 1),
    st.builds(lambda psi, off: psi + off, st.sampled_from(_TIER_EDGES),
              st.integers(-2000, 2000))))
def test_is_prime_fast_path_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


def test_is_prime_on_the_wheel_primes_and_their_products():
    wheel = [p for p in range(1000) if trial_division_prime(p)]
    assert [n for n in range(1000) if is_prime(n)] == wheel
    assert not any(is_prime(p * q) for i, p in enumerate(wheel)
                   for q in wheel[i:])


@st.composite
def coprime_split_cases(draw):
    """d in 2..300 with each n_i = d * P / Q_i or d * Q_i, P the product of
    the primes below d and Q_i a few of them, so that either side may leave
    few primes dividing it or few not dividing it."""
    d = draw(st.integers(2, 300))
    ps = primes_below(d)
    whole = math.prod(ps)

    def side():
        picked = draw(st.lists(st.sampled_from(ps), max_size=4)) if ps else []
        few = math.prod(set(picked))
        return d * (whole // few if draw(st.booleans()) else few)

    return d, side(), side(), ps, whole


@settings(max_examples=500, deadline=None)
@given(coprime_split_cases())
def test_first_coprime_split_matches_per_split_definition(case):
    d, n1, n2, ps, whole = case
    expected = next((d1 for d1 in range(1, d) if euclid_gcd(n1, d1) == 1
                     and euclid_gcd(n2, d - d1) == 1), None)
    assert numbergap._first_coprime_split(d, n1, n2, ps, whole) == expected


def first_counter_without_coprime_split(d):
    """The first counter over the primes below d (bit i set: the i-th
    prime on side 1) whose family pair has no coprime split, scanned
    split by split with a second gcd; None when no counter has one."""
    ps = [p for p in range(2, d) if trial_division_prime(p)]
    for counter in range(1 << len(ps)):
        n1 = d * math.prod(p for i, p in enumerate(ps) if counter >> i & 1)
        n2 = d * math.prod(p for i, p in enumerate(ps) if not counter >> i & 1)
        if all(euclid_gcd(n1, d1) >= 2 or euclid_gcd(n2, d - d1) >= 2
               for d1 in range(1, d)):
            return counter, ps
    return None, ps


def test_search_walk_returns_the_first_counter_in_scan_order():
    hits = {d: parts for d, parts, _ in search_prime_partitionable(SEARCH_D_MAX)}
    for d in range(2, SEARCH_D_MAX + 1):
        counter, ps = first_counter_without_coprime_split(d)
        if counter is None:
            assert d not in hits, d
            continue
        p1 = tuple(p for i, p in enumerate(ps) if counter >> i & 1)
        p2 = tuple(p for i, p in enumerate(ps) if not counter >> i & 1)
        assert hits[d] == (p1, p2), d


def test_certificate_lists_every_split_with_its_gcds():
    cert = prime_partitionable_check(16, 880, 8736)
    assert type(cert.splits) is tuple and len(cert.splits) == 15
    assert cert.splits[0] == SplitCheck(1, 15, 1, 3)
    assert cert.splits[-1] == SplitCheck(15, 1, 5, 1)


def digest(value):
    return hashlib.sha256(dumps(value).encode("utf-8")).hexdigest()


def test_split_outputs_match_recorded_digests():
    # recorded with the per-split gcd check that the sieve replaced
    assert digest(search_prime_partitionable(40)) == (
        "00fa7dbdb32ef8abceaf08b6556d895175dfd4dc7ea16102cb5377a1755fce4b")
    assert digest(perimeter_gap_table(300)) == (
        "fa543ce6f5b08e90c54ac58ce98e24380adf5b55e2915a6e5b25ca9ee5512b41")


def test_witness_sieves_the_primes_below_d_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return primes_below(x)

    monkeypatch.setattr(numbergap, "primes_below", counting)
    wit = witness_from_prime_pair(5, 11)
    assert wit.certificate.valid and calls == [16]
    calls.clear()
    numbergap.perimeter_gap_table(1000)
    assert len(calls) == 2      # one for the pairs, one for the whole table


def test_decimal_rows_give_the_text_of_every_int():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for p_max in (1000, 3000):
            rows = perimeter_gap_table(p_max)
            text = list(numbergap._decimal_rows(rows))
            assert [{**row, "n2": str(row["n2"]), "n": str(row["n"])}
                    for row in rows] == text, p_max
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_rows_raise_on_a_division_that_is_not_exact():
    row = perimeter_gap_table(100)[0]
    assert list(numbergap._decimal_rows([row]))[0]["n2"] == "8736"
    # 17 * 11 does not divide 2*3*5*7*11*13, nor is the quotient a
    # terminating decimal
    with pytest.raises(decimal.Inexact):
        list(numbergap._decimal_rows([{**row, "p": 17}]))

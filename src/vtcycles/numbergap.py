"""Arithmetic behind the perimeter-gap lower bound: the gcd-split
necessity condition for Hamiltonicity of cycle products, prime-partitionable
(Erdos-Woods) witness checking and search, and the prime-pair construction
that produces witnesses with d close to ln(n1*n2).

All threshold comparisons are exact: the admissibility exponent is encoded
as the rational 41/25 and tested in integers, by bit lengths where they
decide and by big-integer powering otherwise; a float only bounds the
candidates q = 1 (mod p).  ``motohashi_pairs`` reads the first 16
candidates 1 + 2jp of every odd p from one odd-only sieve, one strided
slice per p; only a p with no prime among them (7,237 of the 78,498 up to
10^6) goes on with ``is_prime``.  ``is_prime`` settles n < 1000^2, and n
with a prime factor below 1,000, by one gcd, runs the fewest proven
Miller-Rabin bases on the rest (at most four for every q that
``motohashi_pairs(10**6)`` hands it) and refuses n it cannot decide.

The gcd-split condition and the witness table ask for the first split
d = d1 + d2 with gcd(n1, d1) = gcd(n2, d2) = 1, and both answer it with one
sieve (``_first_coprime_split``) instead of two gcds per split.  A split
shares a factor exactly when a prime below d divides d1 and n1, or d2 and
n2.  One gcd of each n with the product of the primes below d splits
those primes into the ones that divide n and the rest; the smaller part
is factored, and a byte mask over 0..d keeps the values coprime to n:
all but the multiples of the few dividing primes, or only the products
of the few others.  The first d1 >= 1 kept by the n1 mask, with d - d1
kept by the n2 mask, is the answer.  ``prime_partitionable_check``
instead decides from the definition, split by split, so a printed
certificate comes from code separate from the sieve.  The table takes its
witnesses in ascending d, with one sieve and one running product of the
primes below d, divides each n2 out of that product and builds no
certificate.  ``perimeter_gap_table(1000)``, whose n2 run to 28k bits,
takes 0.010 s and ``perimeter_gap_table(3000)`` 0.082 s, against 0.056 s
and 0.48 s with each prime below d tested against the gcd (medians of
five processes, 2 vCPUs, Python 3.11.7).  CPython turns a large int into
decimal text in quadratic time, so the CSV reads n2 and n from a
``Decimal`` copy of that product (``_decimal_rows``): ``vtc search
theorem11 --max-p 3000`` takes 0.40 s, against 1.77 s through ``str()``.

The witness search needs neither gcds nor products: within its family,
which primes divide n1 and n2 is known from the bipartition, so each
prime marks its splits in two int masks, and a pruned depth-first walk
over the bipartitions finds the first one, in counter order, whose masks
cover every split.  ``search_prime_partitionable(40)`` takes 0.004 s
against 0.40 s for the counter scan with one sieve per bipartition, and
``motohashi_pairs(10**6)`` 0.58 s, with 53,374 ``is_prime`` calls,
against 1.48 s and 588,933 calls with ``is_prime`` on every candidate
(medians of five processes, 2 vCPUs, Python 3.11.7).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from decimal import (MAX_EMAX, Context, Decimal, Inexact, InvalidOperation,
                     Overflow, Rounded)
from itertools import compress
from math import exp, gcd, isqrt, log, prod

THETA_NUM = 41   # q admissible iff q^25 < p^41, i.e. q < p^(41/25)
THETA_DEN = 25


def primes_below(x: int) -> list:
    """Primes strictly below x, ascending (sieve of Eratosthenes)."""
    if x <= 2:
        return []
    sieve = bytearray([1]) * x
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(x - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return list(compress(range(x), sieve))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): the first k bases of _MR_BASES decide every n < psi_k, the
# smallest odd composite that passes all k (OEIS A014233; Jaeschke 1993,
# Sorenson and Webster 2017).  Left out: psi_1 = 2047, below the 1000^2 that
# is_prime's wheel settles, and psi_8 = psi_7, psi_10 = psi_11 = psi_9.
_MR_TIERS = ((1373653, 2), (25326001, 3), (3215031751, 4),
             (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
             (3825123056546413051, 9), (318665857834031151167461, 12),
             (3317044064679887385961981, 13))
IS_PRIME_MAX = _MR_TIERS[-1][0]   # first n the 13 bases cannot decide
_WHEEL = primes_below(1000)
_WHEEL_SET = frozenset(_WHEEL)
_WHEEL_PRODUCT = prod(_WHEEL)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < IS_PRIME_MAX (about 3.3e24).  A gcd
    with the primes below 1,000 settles n < 1000^2 and every n with such a
    factor; the rest run Miller-Rabin with the fewest bases proven enough:
    two below 1,373,653, three below 25,326,001.  Larger n raise
    ``ValueError``."""
    if n < 2:
        return False
    if n >= IS_PRIME_MAX:
        raise ValueError(f"is_prime decides n < {IS_PRIME_MAX} only")
    if gcd(n, _WHEEL_PRODUCT) > 1:
        return n in _WHEEL_SET
    if n < 1000 ** 2:   # a composite n has a prime factor <= sqrt(n)
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for psi, k in _MR_TIERS:
        if n < psi:
            break
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- split conditions ---------------------------------------------------------

@dataclass(frozen=True)
class SplitCheck:
    """One decomposition d = d1 + d2 with the gcd evidence against (n1, n2)."""

    d1: int
    d2: int
    g1: int
    g2: int

    @property
    def shares_factor(self) -> bool:
        return self.g1 >= 2 or self.g2 >= 2


@dataclass(frozen=True)
class WitnessCertificate:
    """Evidence that (n1, n2) witnesses d as prime partitionable: gcd(n1,n2)
    must equal d and every one of the d-1 splits must share a factor."""

    d: int
    n1: int
    n2: int
    splits: tuple
    valid: bool
    reason: str = ""


def _first_coprime_split(d: int, n1: int, n2: int, primes, whole: int):
    """The smallest d1 in 1..d-1 with gcd(n1, d1) = gcd(n2, d - d1) = 1, or
    None when every split shares a factor.  ``primes`` are the primes below
    d, the only ones that can divide some d1 or d2, and ``whole`` is their
    product.

    For P = ``whole``, g = gcd(n, P) is the product of the primes that
    divide n and P // g of the rest; only the smaller is factored, and the
    side's byte mask over 0..d marks the values coprime to n.  The n2
    mask, indexed by d2 = d - d1, is reversed and AND-ed with the n1 mask."""
    masks = []
    for n in (n1, n2):
        g = gcd(n, whole)
        rest = whole // g
        if g <= rest:
            mask = bytearray(b"\x01") * (d + 1)
            for p in _factor_squarefree(g, primes):
                mask[::p] = bytes(d // p + 1)
        else:
            coprime = [1]   # the products of the others below d
            for p in _factor_squarefree(rest, primes):
                for v in coprime[:]:
                    while v * p < d:
                        v *= p
                        coprime.append(v)
            mask = bytearray(d + 1)
            for v in coprime:
                mask[v] = 1
        masks.append(mask)
    # read big-endian, the n2 mask's byte d1 is its entry d - d1
    both = int.from_bytes(masks[0], "little") & int.from_bytes(masks[1], "big")
    d1 = both.to_bytes(d + 1, "little").find(1, 1, d)
    return None if d1 < 0 else d1


def _factor_squarefree(m: int, primes) -> list:
    """The primes of a squarefree m, all in the ascending ``primes``, by
    trial division up to the square root of the cofactor left."""
    factors = []
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            factors.append(p)
            m //= p
    if m > 1:
        factors.append(m)
    return factors


def trotter_erdos_necessary(n1: int, n2: int):
    """The necessity condition for a Hamilton cycle in the product of two
    directed cycles: gcd(n1,n2) = d >= 2 and some split d = d1 + d2 has
    both gcd(n1,d1) = 1 and gcd(n2,d2) = 1.

    Returns (holds, split): the lexicographically smallest working split
    (by d1) when the condition holds, otherwise (False, None).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("cycle orders must be at least 2")
    d = gcd(n1, n2)
    if d < 2:
        return False, None
    primes = primes_below(d)
    d1 = _first_coprime_split(d, n1, n2, primes, prod(primes))
    if d1 is None:
        return False, None
    return True, (d1, d - d1)


def divisibility_gap_bound(n1: int, n2: int) -> int:
    """Guaranteed perimeter gap of the cycle product.

    Every directed cycle of the product has length divisible by
    d = gcd(n1,n2); when no coprime split exists (and d >= 2) the product
    cannot be Hamiltonian, so the gap is at least d.  Returns 0 when the
    condition gives no claim.
    """
    d = gcd(n1, n2)
    holds, _ = trotter_erdos_necessary(n1, n2)
    if not holds and d >= 2:
        return d
    return 0


def prime_partitionable_check(d: int, n1: int, n2: int) -> WitnessCertificate:
    """Decide whether (n1, n2) witnesses d from its definition: gcd(n1, n2)
    = d, and each of the d-1 splits d = d1 + d2 shares a factor with n1
    through d1 or with n2 through d2.  The certificate lists every split
    with its two gcds; the reason names the gcd or the first split that
    fails."""
    if d < 2:
        raise ValueError("d must be at least 2")
    splits = tuple(SplitCheck(d1, d - d1, gcd(n1, d1), gcd(n2, d - d1))
                   for d1 in range(1, d))
    reason = next((f"split ({s.d1},{s.d2}) is coprime to both"
                   for s in splits if not s.shares_factor), "")
    g = gcd(n1, n2)
    if g != d:
        reason = f"gcd(n1,n2) = {g} != d"
    return WitnessCertificate(d, n1, n2, splits, not reason, reason)


SEARCH_D_MAX = 40   # 2^pi(d) bipartitions at most; keep the walk exhaustive


def search_prime_partitionable(d_max: int):
    """Exhaustive witness search over the family n_i = d * prod(P_i) for
    bipartitions P1, P2 of the primes below d.

    For this family gcd(n1, n2) = d automatically (each prime below d sits
    on exactly one side, so the minimum valuation on each side is that of
    d itself).  Bipartitions are ordered by a binary counter over the
    primes in ascending order, P1 being the set-bit side, and the hit for
    d is the first one with no coprime split (``_first_covering_counter``
    finds it without a gcd or a product).  Its certificate comes from
    ``prime_partitionable_check``.  Returns a list of (d, (P1, P2),
    certificate) hits.
    """
    if d_max > SEARCH_D_MAX:
        raise ValueError(f"search capped at d_max = {SEARCH_D_MAX}")
    hits = []
    for d in range(2, d_max + 1):
        ps = primes_below(d)
        counter = _first_covering_counter(d, ps)
        if counter is not None:
            p1 = tuple(p for i, p in enumerate(ps) if (counter >> i) & 1)
            p2 = tuple(p for i, p in enumerate(ps) if not (counter >> i) & 1)
            cert = prime_partitionable_check(d, d * prod(p1), d * prod(p2))
            hits.append((d, (p1, p2), cert))
    return hits


def _first_covering_counter(d: int, ps):
    """The smallest counter whose bipartition of ``ps``, the primes below
    d, leaves no split coprime to both sides; None when there is none.

    The primes below d that divide n1 are P1 and the primes of d, and
    likewise for n2.  So each prime gets two masks over d1 = 1..d-1: side
    1 marks the d1 it divides, side 2 the d1 with p | d - d1.  A
    bipartition works iff the OR of its masks covers 1..d-1; a prime of d
    has equal masks, so it adds both on either side.

    The walk is depth-first from the largest prime (the counter's top bit)
    down, side 2 (bit 0) before side 1, so its leaves come in counter
    order.  It cuts a branch whose cover, OR-ed with both masks of every
    prime not yet placed, still misses a split, and tries only side 2 for
    a prime of d: side 1 would give the same covers at larger counters.
    """
    full = (1 << d) - 2                 # bits 1..d-1, one per split
    side1 = [sum(1 << d1 for d1 in range(p, d, p)) for p in ps]
    side2 = [sum(1 << d1 for d1 in range(d % p or p, d, p)) for p in ps]
    rest = [0]                          # rest[i]: both masks of ps[:i]
    for m1, m2 in zip(side1, side2):
        rest.append(rest[-1] | m1 | m2)
    stack = [(len(ps), 0, 0)]           # (primes left to place, cover, counter)
    while stack:
        i, cover, counter = stack.pop()
        if cover | rest[i] != full:
            continue
        if i == 0:
            return counter
        i -= 1
        if side1[i] != side2[i]:
            stack.append((i, cover | side1[i], counter | 1 << i))
        stack.append((i, cover | side2[i], counter))
    return None


# --- prime pairs and the explicit witness construction -------------------------

@dataclass(frozen=True)
class MotohashiPair:
    """Primes q = 1 (mod p) with q^25 < p^41 (that is, q < p^1.64)."""

    p: int
    q: int
    bound_ok: bool


# Candidates per odd p read from the sieve.  16 settle all but 7,237 of the
# 78,498 primes up to 10^6 in a sieve of 16 * p_max + 1 bytes;
# motohashi_pairs(10**6) takes 1.6 times as long with 8, 1.2 times with 32.
_WINDOW = 16


def motohashi_pairs(p_max: int):
    """For each prime p <= p_max, the smallest prime q = 1 (mod p), kept
    when q^25 < p^41 holds exactly.  The candidates ascend to the float
    estimate p^(41/25) plus one, which no admissible q exceeds; for odd p
    they step by 2p, since 1 + kp is even for odd k.  The first
    ``_WINDOW`` of them are one strided slice of an odd-only sieve, where
    1 + j*step is entry j*step/2; ``is_prime`` tests the ones after."""
    if p_max > 10 ** 6:
        raise ValueError("p_max capped at 10^6")
    odd = _odd_sieve(_WINDOW * max(p_max, 0) + 1)
    pairs = []
    for p in primes_below(p_max + 1):
        step = p if p == 2 else 2 * p
        stop = int(p ** (THETA_NUM / THETA_DEN)) + 2
        half = step // 2    # entry i is 2i + 1, below stop iff i < stop // 2
        window = odd[half:min(_WINDOW * half + 1, stop // 2):half]
        j = window.find(1) + 1
        if j:
            q = 1 + j * step
        else:
            rest = range(1 + (len(window) + 1) * step, stop, step)
            q = next(filter(is_prime, rest), None)
            if q is None:
                continue
        if _admissible(p, q):
            pairs.append(MotohashiPair(p, q, True))
    return pairs


def _odd_sieve(size: int) -> bytearray:
    """Entry i is 1 iff 2i + 1 is prime, for i < size."""
    sieve = bytearray([1]) * size
    sieve[:1] = b"\x00"
    for i in range(1, (isqrt(2 * size - 1) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, size, p)))
    return sieve


def _admissible(p: int, q: int) -> bool:
    """q^25 < p^41 for q = 1 + kp, exactly.  With j the bit length of k,
    q < 2^j * p, and p^16 >= 2^(16(b-1)) for b the bit length of p; so
    25j <= 16(b-1) already gives q^25 < 2^(25j) p^25 <= p^41, without the
    big powers."""
    j = ((q - 1) // p).bit_length()
    return (THETA_DEN * j <= (THETA_NUM - THETA_DEN) * (p.bit_length() - 1)
            or q ** THETA_DEN < p ** THETA_NUM)


@dataclass(frozen=True)
class PrimePairWitness:
    d: int
    n1: int
    n2: int
    certificate: WitnessCertificate
    n: int
    ln_n: float


def witness_from_prime_pair(p: int, q: int) -> PrimePairWitness:
    """The explicit prime-partitionable witness built from an admissible
    prime pair: d = p + q, n1 = d*p*q, n2 = d times the product of all
    other primes below d.

    Preconditions: q = 1 (mod p), q^25 < p^41, and the size guard
    p^2 > p + q (small pairs like (2,3) fail it and are rejected).  The
    sieve decides the pair a witness, and the certificate, which checks
    each split with its own two gcds, must agree; anything else is a bug
    here, not bad input.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("both entries must be prime")
    if q % p != 1:
        raise ValueError(f"{q} is not 1 mod {p}")
    if q ** THETA_DEN >= p ** THETA_NUM:
        raise ValueError(f"pair ({p},{q}) outside the q < p^(41/25) bound")
    if p * p <= p + q:
        raise ValueError(f"size guard failed: {p}^2 <= {p + q}")
    d = p + q
    primes = primes_below(d)
    n1, n2 = _witness_sides(p, q, primes, prod(primes))
    cert = prime_partitionable_check(d, n1, n2)
    assert cert.valid, "constructed witness failed its own certificate"
    n = n1 * n2
    return PrimePairWitness(d, n1, n2, cert, n, log(n))


def _witness_sides(p: int, q: int, primes, whole: int):
    """(n1, n2) of the witness from a pair that passed its guards, given
    the primes below d = p + q and their product: n2 = d * (whole // (p*q))
    is exact, since p < q < d are both among those primes.  The sieve
    asserts that the pair witnesses d."""
    d = p + q
    n1 = d * p * q
    n2 = d * (whole // (p * q))
    assert gcd(n1, n2) == d, "constructed witness has the wrong gcd"
    assert _first_coprime_split(d, n1, n2, primes, whole) is None, \
        "constructed witness has a coprime split"
    return n1, n2


def perimeter_gap_table(p_max: int):
    """One row per admissible prime pair up to p_max: the witness, the
    vertex count n = n1*n2 of the product, and the ratio d / ln(n).

    The ratio is asserted to stay above 0.9 on every generated row; its
    drift toward 1 is recorded, not asserted.  e^d / n is included as a
    spot check that the witnesses stay within e^(d + o(d)).

    The pairs are visited in ascending d with one sieve and one running
    product of the primes below d; each row goes back to its place in
    ascending p.
    """
    pairs = [(pair.p, pair.q) for pair in motohashi_pairs(p_max)
             if pair.p * pair.p > pair.p + pair.q]
    primes = primes_below(max((p + q for p, q in pairs), default=0))
    rows = [None] * len(pairs)
    whole = 1
    below = 0                   # primes[:below] are the primes below d
    for i in sorted(range(len(pairs)), key=lambda i: sum(pairs[i])):
        p, q = pairs[i]
        d = p + q
        end = bisect_left(primes, d, below)
        whole *= prod(primes[below:end])
        below = end
        n1, n2 = _witness_sides(p, q, primes[:below], whole)
        n = n1 * n2
        ln_n = log(n)
        ratio = d / ln_n
        assert ratio >= 0.9, f"ratio {ratio} below 0.9 at pair ({p},{q})"
        rows[i] = {
            "p": p,
            "q": q,
            "d": d,
            "n1": n1,
            "n2": n2,
            "n": n,
            "ln_n": ln_n,
            "ratio": ratio,
            "exp_d_over_n": exp(d) / n if d < 700 else None,
        }
    return rows


def _decimal_rows(rows):
    """The rows of ``perimeter_gap_table`` with n2 and n as decimal text,
    from the running product of the primes below d kept as a ``Decimal``:
    n2 = d * (product / (p*q)) and n = n1 * n2.  Its context holds the
    digits of the largest n and traps ``Inexact`` and ``Rounded``, so a
    division that is not exact raises (at ``MAX_PREC`` libmpdec would
    raise ``MemoryError`` instead)."""
    # log10(2) < 0.30103, so n has at most bits * 0.30103 + 1 digits
    digits = max((row["n"].bit_length() * 30103 // 100000 + 1
                  for row in rows), default=1)
    ctx = Context(prec=digits, Emax=MAX_EMAX,
                  traps=[Inexact, Rounded, InvalidOperation, Overflow])
    primes = primes_below(max((row["d"] for row in rows), default=0))
    text = [None] * len(rows)
    whole = Decimal(1)
    below = 0
    for i in sorted(range(len(rows)), key=lambda i: rows[i]["d"]):
        row = rows[i]
        end = bisect_left(primes, row["d"], below)
        whole = ctx.multiply(whole, prod(primes[below:end]))
        below = end
        n2 = ctx.multiply(row["d"], ctx.divide(whole, row["p"] * row["q"]))
        text[i] = {**row, "n2": str(n2), "n": str(ctx.multiply(row["n1"], n2))}
    yield from text

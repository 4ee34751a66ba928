"""Reference prime test for key generation, written without the package.

This is the plain search that blindsig._is_probable_prime replaced: trial
division by the primes up to 37, then 40 Miller-Rabin rounds, one random
witness and one exponentiation per round, with Python's pow. Substituted
into keygen, it draws the same witnesses from the same rng, so for a seeded
rng it must yield the same key as the package's search, whose trial
division and paired exponentiations only save work.
"""

from __future__ import annotations

import random

MR_ROUNDS = 40


def is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    # Miller-Rabin: write n-1 = 2^r * d with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MR_ROUNDS):
        a = rng.randrange(2, n - 1)
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

"""Reference Ed25519 group arithmetic, written without the package.

Plain affine Edwards arithmetic over GF(2^255 - 19) (RFC 8032, section
5.1), slow and variable time, enough to build the small-order test vectors
that no honest signer produces and to check, independently of either
library, that such a vector satisfies the cofactorless verification
equation [S]B == R + [k]A.
"""

from __future__ import annotations

import hashlib

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = -121665 * pow(121666, -1, P) % P
_SQRT_M1 = pow(2, (P - 1) // 4, P)

Point = tuple[int, int]
IDENTITY: Point = (0, 1)
B: Point = (
    15112221349535400772501151409588531511454012693041857206046113283949847762202,
    46316835694926478169428394003475163141307993866256225615783033603165251855960,
)


def decode(enc: bytes) -> Point | None:
    """The point an encoding names, reading y mod p as libraries do, or None."""
    y = int.from_bytes(enc, "little") & ((1 << 255) - 1)
    sign = enc[31] >> 7
    y %= P
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(x2, (P + 3) // 8, P)
    if x * x % P != x2:
        x = x * _SQRT_M1 % P
    if x * x % P != x2 or (x == 0 and sign):
        return None
    return (P - x if x & 1 != sign else x, y)


def encode(pt: Point) -> bytes:
    x, y = pt
    return (y | (x & 1) << 255).to_bytes(32, "little")


def add(a: Point, b: Point) -> Point:
    (x1, y1), (x2, y2) = a, b
    t = D * x1 * x2 * y1 * y2 % P
    return (
        (x1 * y2 + x2 * y1) * pow(1 + t, -1, P) % P,
        (y1 * y2 + x1 * x2) * pow(1 - t, -1, P) % P,
    )


def mul(k: int, pt: Point) -> Point:
    acc = IDENTITY
    while k:
        if k & 1:
            acc = add(acc, pt)
        pt = add(pt, pt)
        k >>= 1
    return acc


def torsion() -> list[Point]:
    """The eight points of order dividing 8: [i]T for T of order 8."""
    y = 2
    while True:
        pt = decode(y.to_bytes(32, "little"))
        if pt is not None:
            t = mul(L, pt)  # the group is cyclic of order 8L
            if mul(4, t) != IDENTITY:
                return [mul(i, t) for i in range(8)]
        y += 1


def secret_scalar(seed: bytes) -> int:
    """The clamped scalar a of a seed, so that its public key is [a]B."""
    a = int.from_bytes(hashlib.sha512(seed).digest()[:32], "little")
    return a & ((1 << 254) - 8) | (1 << 254)


def challenge(r: bytes, public: bytes, message: bytes) -> int:
    """k = SHA-512(R || A || M) mod L."""
    return int.from_bytes(hashlib.sha512(r + public + message).digest(), "little") % L


def equation_holds(public: bytes, signature: bytes, message: bytes) -> bool:
    """Cofactorless verification with no rule on small order or encodings."""
    a, r = decode(public), decode(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    if a is None or r is None or s >= L:
        return False
    k = challenge(signature[:32], public, message)
    return mul(s, B) == add(r, mul(k, a))

"""RSA blind signatures with message recovery.

The signing exchange, all arithmetic mod N with public exponent e and
private exponent d:

    blind    b = m * r^e        (voter; r is a fresh unit mod N)
    sign     s_b = b^d          (authority; sees only b)
    unblind  s = s_b * r^-1     (voter; s = m^d, a plain signature on m)
    verify   s^e = m            (anyone; message recovery, no hash)

Because s_b^e = m * r^e, the authority's view (b, s_b) is consistent with
every possible message: for any m' there is an r' that explains the pair.
That is the blindness property the eligibility check relies on.

Signing without a hash is safe here only because the message space is the
rigid padded-ballot structure (see codec): random forgeries s^e land in
structured space with probability ~2^-(8*(k-42)) and multiplicative
combinations of valid messages break the fixed filler bytes.

Keys here are single purpose. Never sign arbitrary attacker-chosen data
with a ballot key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import TextIO

from .election import record_lines
from .errors import FactorNotUnit, MessageOutOfRange, ParseError

# Round count for Miller-Rabin: error probability <= 4^-40 per composite.
_MR_ROUNDS = 40

# Small public exponents in preference order. 65537 is the usual choice;
# the tail entries only matter for toy moduli where 65537 >= phi.
_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)

_MIN_KEY_BITS = 8


@dataclass(frozen=True)
class PublicKey:
    """Verification half of a blind-signature key."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        """Width of the modulus in bytes; all wire values use this width."""
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class BlindKeyPair:
    """Full signing key. p and q, when present, enable CRT signing."""

    n: int
    e: int
    d: int
    p: int | None = None
    q: int | None = None

    @property
    def public(self) -> PublicKey:
        return PublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return self.public.byte_length


# Tiny fixed keys for tests and demos. TOY_KEY has N = 11 * 23 = 253, the
# smallest convenient two-prime modulus; CLASSIC_TOY_KEY is the textbook
# 61 * 53 = 3233 example. Neither is remotely secure.
TOY_KEY = BlindKeyPair(n=253, e=3, d=147, p=11, q=23)
CLASSIC_TOY_KEY = BlindKeyPair(n=3233, e=17, d=2753, p=61, q=53)


def _is_probable_prime(n: int, rng: random.Random) -> bool:
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
    for _ in range(_MR_ROUNDS):
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


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits)
        cand |= 1 << (bits - 1)  # exact bit length
        cand |= 1  # odd
        if bits >= 3:
            cand |= 1 << (bits - 2)  # high second bit so p*q keeps full width
        if _is_probable_prime(cand, rng):
            return cand


def keygen(bits: int, rng: random.Random | None = None) -> BlindKeyPair:
    """Generate a fresh key with a modulus of exactly `bits` bits.

    Deterministic for a seeded rng. Key sizes this small exist for tests;
    anything under 2048 bits is simulation material only.
    """
    if bits < _MIN_KEY_BITS:
        raise ValueError(f"modulus must be at least {_MIN_KEY_BITS} bits")
    if rng is None:
        rng = random.SystemRandom()
    half = bits // 2
    while True:
        p = _random_prime(bits - half, rng)
        q = _random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        for e in _PUBLIC_EXPONENTS:
            if e < phi and gcd(e, phi) == 1:
                d = pow(e, -1, phi)
                return BlindKeyPair(n=n, e=e, d=d, p=p, q=q)
        # No usable exponent (possible for tiny primes); draw again.


def random_unit(n: int, rng: random.Random | None = None) -> int:
    """Uniform unit mod n in [2, n-1]; suitable as a blinding factor."""
    if n < 4:
        raise ValueError("modulus too small to hold a blinding factor")
    if rng is None:
        rng = random.SystemRandom()
    while True:
        r = rng.randrange(2, n)
        if gcd(r, n) == 1:
            return r


def blind(m: int, r: int, pub: PublicKey) -> int:
    """Compute m * r^e mod n. r must be a unit so the voter can unblind."""
    if not 0 <= m < pub.n:
        raise MessageOutOfRange(f"message must be in [0, n), got {m}")
    if not 1 <= r < pub.n or gcd(r, pub.n) != 1:
        raise FactorNotUnit("blinding factor must be an invertible element in [1, n)")
    return m * pow(r, pub.e, pub.n) % pub.n


def sign_blinded(b: int, key: BlindKeyPair) -> int:
    """Authority side: raise the blinded value to the private exponent."""
    if not 0 <= b < key.n:
        raise MessageOutOfRange(f"blinded message must be in [0, n), got {b}")
    if key.p is not None and key.q is not None:
        # CRT path, ~4x faster for large moduli; identical result to b^d mod n.
        p, q = key.p, key.q
        sp = pow(b % p, key.d % (p - 1), p)
        sq = pow(b % q, key.d % (q - 1), q)
        return (sq + q * ((sp - sq) * pow(q, -1, p) % p)) % key.n
    return pow(b, key.d, key.n)


def unblind(s_blinded: int, r: int, pub: PublicKey) -> int:
    """Strip the blinding factor: s_blinded * r^-1 mod n."""
    if not 0 <= s_blinded < pub.n:
        raise MessageOutOfRange("blinded signature out of range")
    if gcd(r, pub.n) != 1:
        raise FactorNotUnit("cannot unblind with a non-invertible factor")
    return s_blinded * pow(r, -1, pub.n) % pub.n


def verify_recover(s: int, pub: PublicKey) -> int:
    """Recover the signed message: s^e mod n.

    Recovery alone proves nothing; the caller must check the recovered
    bytes against the rigid padded-ballot structure.
    """
    if not 0 <= s < pub.n:
        raise MessageOutOfRange("signature out of range")
    return pow(s, pub.e, pub.n)


def _dump_key_lines(fields: dict[str, int]) -> str:
    return "".join(f"{name}={value:x}\n" for name, value in fields.items())


def save_public_key(pub: PublicKey, out: TextIO) -> None:
    out.write(_dump_key_lines({"N": pub.n, "e": pub.e}))


def save_keypair(key: BlindKeyPair, out: TextIO) -> None:
    fields = {"N": key.n, "e": key.e, "d": key.d}
    if key.p is not None and key.q is not None:
        fields["p"] = key.p
        fields["q"] = key.q
    out.write(_dump_key_lines(fields))


def _parse_key_fields(src: TextIO, required: tuple[str, ...], what: str) -> dict[str, int]:
    """Parse name=hex lines; each of `required` must be present."""
    fields: dict[str, int] = {}
    for lineno, line in record_lines(src):
        name, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"line {lineno}: expected name=hexvalue")
        name = name.strip()
        if name in fields:
            raise ParseError(f"line {lineno}: duplicate field {name!r}")
        try:
            fields[name] = int(value.strip(), 16)
        except ValueError:
            raise ParseError(f"line {lineno}: {name!r} is not a hex integer") from None
    for name in required:
        if name not in fields:
            raise ParseError(f"missing field {name!r} in {what}")
    return fields


def load_public_key(src: TextIO) -> PublicKey:
    fields = _parse_key_fields(src, ("N", "e"), "public key file")
    return PublicKey(n=fields["N"], e=fields["e"])


def load_keypair(src: TextIO) -> BlindKeyPair:
    fields = _parse_key_fields(src, ("N", "e", "d"), "key file")
    key = BlindKeyPair(
        n=fields["N"],
        e=fields["e"],
        d=fields["d"],
        p=fields.get("p"),
        q=fields.get("q"),
    )
    if (key.p is None) != (key.q is None):
        raise ParseError("key file must carry both p and q or neither")
    if key.p is not None and key.q is not None and key.p * key.q != key.n:
        raise ParseError("p * q does not match N")
    return key

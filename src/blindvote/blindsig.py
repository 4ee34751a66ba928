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

Arithmetic. Every modular exponentiation runs in the system libcrypto,
and the one inverse on a secret in the system libgmp, each loaded through
ctypes on first use:

    sign_blinded    b^d mod N, one call    constant time: d, p, q are secret
                    on the key's RSA handle
    sign_blinded    s^e, the fault check,  constant time: s is not yet released
                    on the key's chain
    blind           r^e, on the key's      constant time: r is the blinding factor
                    chain
    unblind         s_b * r^-1: t = r*u    blinded: r is the blinding factor;
                    for a fresh unit u,    mpz_invert sees only t, whose
                    t^-1 by libgmp's       step count follows Euclid on t, a
                    mpz_invert, then       uniform unit independent of r
                    t^-1 * u * s_b on
                    the key's context
    keygen          a^d mod n for each     constant time: n is a candidate for a
                    Miller-Rabin witness,  secret prime
                    two per call after
                    round 1
    verify_recover  s^e                    variable time (BN_mod_exp_mont)

Every call runs on one libcrypto context per modulus: a BN_CTX, the
Montgomery context for N and scratch BIGNUMs, into which each operand is
written at the width of N and which are cleared after each call. A lock
serialises its calls, since a BN_CTX is not thread-safe, and one
finalizer frees it with the PublicKey. A BlindKeyPair signs on its public
half's, which then also holds the key's RSA handle: RSA_private_decrypt
with RSA_NO_PADDING runs the whole private operation, CRT and OpenSSL's
own blinding included, and returns exactly b^d mod N. keygen builds one
context per candidate that reaches Miller-Rabin.

The chain raises a secret value to the public e: into Montgomery form,
then one BN_mod_mul_montgomery squaring for each bit of e after the
leading one and one multiplication for each set bit, then back; 16
squarings and 1 multiplication for e = 65537. BN_mod_exp_mont_consttime
would treat e as a secret exponent, pad it to a 64-bit word and take
about 90 multiplications. The sequence of operations depends on the
public e alone, so the chain is constant time in the base, with the one
caveat every BIGNUM here has: a value whose top limb is zero (probability
about 2^-63) takes OpenSSL's generic multiplication path.

The other constant-time calls are BN_mod_exp_mont_consttime and its
two-exponentiation form BN_mod_exp_mont_consttime_x2, with
BN_FLG_CONSTTIME set on every operand, the modulus included; the
variable-time BN_mod_exp_mont gets unflagged copies, since one flagged
operand sends it down its constant-time path. An inverse's number of
steps follows Euclid's algorithm on its input, whichever library runs it:
in a dudect-style test on a 2048-bit key, libcrypto's BN_mod_inverse on
r = 2^1000+1 took half the time of a random r (Welch's t = -109). So
unblind inverts only t = r*u mod N for a fresh unit u, a uniform unit
whatever r is: only t and N reach mpz_invert, which is not constant time
and need not be. In the same test a fixed full-width r read |t| <= 1.2;
r = 2^1000+1 read up to t = 5.8, about 0.2 of 70 us, from the product
r*u and not the inverse: it is the chain's caveat above, a value with a
zero top limb. The variable-time BN_mod_exp_mont only ever sees a
signature raised to the public e, and a signature is the ballot itself,
public as it is once mailed: the box and the count publish it. (The
voter's device also checks its fresh ballot this way, just before
printing the ballot it will mail.)

Key search. A candidate is divided by the primes up to 37, then, above
4999, screened by one gcd against the product of the odd primes 41..4999
(trial division before Miller-Rabin, Handbook of Applied Cryptography,
Note 4.45); a candidate that fails the gcd still draws the witness that
round 1 would have drawn, so a seeded search meets the same candidates.
The survivors get 40 Miller-Rabin rounds: round 1 alone, since most
composites fail it, then the other 39 as 19 BN_mod_exp_mont_consttime_x2
calls and one single, with the witnesses drawn in round order. On a CPU
with AVX-512 IFMA, x2 runs two 1024-bit exponentiations, the width of a
2048-bit key's primes, in about the time of one. The trial division, the
gcd and Miller-Rabin's follow-up squarings are plain Python on the
candidate.

The libcrypto backend needs OpenSSL 3.0 or later, the first with
BN_mod_exp_mont_consttime_x2; an older libcrypto counts as unusable. It is
opened as libcrypto.so.3, and only where that fails through
ctypes.util.find_library, which runs ldconfig in a child process; libgmp
likewise as libgmp.so.10, then find_library("gmp"). Where libcrypto cannot
be loaded, Python's pow does the same arithmetic with identical results,
and unblind's products are Python ints; where libgmp cannot, pow(t, -1, N)
inverts the same t. Neither fallback is constant time. backend() names the
exponentiation backend in use. Montgomery form needs an odd modulus, so
PublicKey refuses an even one. The int/bytes conversions around the
library calls are plain Python on secret values.

Before a signature leaves sign_blinded it is checked with the public
exponent, s^e == b. libcrypto checks its own CRT result as well; a
faulty half that escaped it would give a signature from which
gcd(s^e - b, N) reveals a prime factor of N (Boneh-DeMillo-Lipton), so a
failed check raises SigningFault and releases no value.
"""

from __future__ import annotations

import functools
import random
import sys
import threading
import weakref
from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING, Callable, TextIO

from .election import hex_int, record_lines
from .errors import FactorNotUnit, LibraryFailure, MessageOutOfRange, ParseError, SigningFault
from .native import open_library

if TYPE_CHECKING:
    import ctypes

# Round count for Miller-Rabin: error probability <= 4^-40 per composite.
_MR_ROUNDS = 40

# Small public exponents in preference order. 65537 is the usual choice;
# the tail entries only matter for toy moduli where 65537 >= phi.
_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)

# At 8 bits both 4-bit primes can only be 13, so p == q every time.
_MIN_KEY_BITS = 9

# Trial division by the odd primes from 41 up to this limit screens each
# candidate with one gcd before its first exponentiation.
_SIEVE_LIMIT = 4999


@dataclass(frozen=True)
class PublicKey:
    """Verification half of a blind-signature key."""

    n: int
    e: int

    def __post_init__(self) -> None:
        # pow and libcrypto disagree on a negative e, and e = 0 signs nothing.
        if self.e < 1:
            raise ValueError(f"public exponent e must be at least 1, got {self.e}")
        # Montgomery form, which every libcrypto call here uses, needs an odd n.
        if not self.n & 1:
            raise ValueError(f"modulus n must be odd, got {self.n}")

    @property
    def byte_length(self) -> int:
        """Width of the modulus in bytes; all wire values use this width."""
        return (self.n.bit_length() + 7) // 8

    def __getstate__(self) -> dict:
        # A copy or an unpickled key builds its own libcrypto context: this
        # one is freed with self.
        return {name: value for name, value in self.__dict__.items() if name != "_ctx"}


@dataclass(frozen=True)
class BlindKeyPair:
    """Full signing key, with the factors p and q of n, which are required.

    The public half and the CRT values d mod (p-1), d mod (q-1) and
    q^-1 mod p are derived once here; they take no part in equality, repr
    or the key file. Signing through libcrypto keeps the key's RSA handle
    in its public half's libcrypto context, which the fault check uses too.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)
    public: PublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "public", PublicKey(n=self.n, e=self.e))  # checks n and e
        if min(self.p, self.q) < 2:
            raise ValueError("p and q must be at least 2")
        # pow raises ValueError when p and q share a factor.
        crt = self.d % (self.p - 1), self.d % (self.q - 1), pow(self.q, -1, self.p)
        for name, value in zip(("dp", "dq", "qinv"), crt):
            object.__setattr__(self, name, value)

    @property
    def byte_length(self) -> int:
        return self.public.byte_length


# Tiny fixed keys for tests and demos. TOY_KEY has N = 11 * 23 = 253, the
# smallest convenient two-prime modulus; CLASSIC_TOY_KEY is the textbook
# 61 * 53 = 3233 example. Neither is remotely secure.
TOY_KEY = BlindKeyPair(n=253, e=3, d=147, p=11, q=23)
CLASSIC_TOY_KEY = BlindKeyPair(n=3233, e=17, d=2753, p=61, q=53)


@functools.cache
def _sieve_product() -> int:
    """The product of the odd primes from 41 to _SIEVE_LIMIT, the ones the
    trial division in _is_probable_prime does not try. Built on first use,
    so importing the module costs nothing."""
    composite = bytearray(_SIEVE_LIMIT + 1)
    product = 1
    for k in range(2, _SIEVE_LIMIT + 1):
        if not composite[k]:
            multiples = range(k * k, _SIEVE_LIMIT + 1, k)
            composite[multiples.start :: k] = b"\x01" * len(multiples)
            if k > 37:
                product *= k
    return product


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    if n > _SIEVE_LIMIT and gcd(n, _sieve_product()) != 1:
        # Draw the witness that round 1, which all but always rejects such
        # an n, would have drawn, so seeded keys match a plain search.
        rng.randrange(2, n - 1)
        return False
    # Miller-Rabin: write n-1 = 2^r * d with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def passes(x: int) -> bool:
        """Whether the witness with a^d = x fails to prove n composite."""
        if x == 1 or x == n - 1:
            return True
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    # Round 1 runs alone, since most composites fail it; the other rounds
    # run two witnesses per exponentiation call, drawn in the same order.
    # All of them share one libcrypto context for n.
    lib = _libcrypto()
    ctx = None if lib is None else _Context(lib, n)
    if not passes(_secret_pow(rng.randrange(2, n - 1), d, n, ctx)):
        return False
    pairs, single = divmod(_MR_ROUNDS - 1, 2)
    for _ in range(pairs):
        a1 = rng.randrange(2, n - 1)
        a2 = rng.randrange(2, n - 1)
        x1, x2 = _secret_pow_pair(a1, a2, d, n, ctx)
        if not (passes(x1) and passes(x2)):
            return False
    return not single or passes(_secret_pow(rng.randrange(2, n - 1), d, n, ctx))


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits)
        cand |= 1 << (bits - 1)  # exact bit length
        cand |= 1  # odd
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
    """Uniform unit mod n in [2, n-1]; suitable as a blinding factor.

    gcd, whose step count follows Euclid on its input, never sees r: each
    test is gcd(r*u mod n, n) for a fresh u from the system's random source,
    never from the caller's rng. The product is formed as (r + n) * u: r + n
    is in [n, 2n), so the multiplication's cost does not follow r's digit
    count as r * u's does. When the test fails and u is a unit, r is not,
    so the next r is drawn; otherwise only u is. rng draws exactly the r
    values a plain search would, so seeded runs do not change.
    """
    if n < 4:
        raise ValueError("modulus too small to hold a blinding factor")
    if rng is None:
        rng = random.SystemRandom()
    draw = random.SystemRandom()
    r, u = rng.randrange(2, n), draw.randrange(1, n)
    while gcd((r + n) * u % n, n) != 1:
        if gcd(u, n) == 1:
            r = rng.randrange(2, n)
        u = draw.randrange(1, n)
    return r


def blind(m: int, r: int, pub: PublicKey) -> int:
    """Compute m * r^e mod n for r in [1, n). r must be a unit, as
    random_unit's are, so the voter can unblind; blind checks only the
    range, and unblind refuses a non-unit r with FactorNotUnit."""
    if not 0 <= m < pub.n:
        raise MessageOutOfRange(f"message must be in [0, n), got {m}")
    if not 1 <= r < pub.n:
        raise FactorNotUnit("blinding factor must be an invertible element in [1, n)")
    return m * _secret_pow_e(r, pub) % pub.n


def sign_blinded(b: int, key: BlindKeyPair) -> int:
    """Authority side: raise the blinded value to the private exponent.

    Raises SigningFault, and returns nothing, when the result fails the
    s^e == b check.
    """
    if not 0 <= b < key.n:
        raise MessageOutOfRange(f"blinded message must be in [0, n), got {b}")
    s = _private_pow(b, key)
    if _secret_pow_e(s, key.public) != b:
        raise SigningFault("signature failed the s^e == b check and was withheld")
    return s


def unblind(s_blinded: int, r: int, pub: PublicKey) -> int:
    """Strip the blinding factor: s_blinded * r^-1 mod n.

    The inverse, libgmp's mpz_invert where it loads, sees t, r times a
    fresh unit u from the system's random source, never r; u never comes
    from a caller's rng. The result is the unique s_blinded * r^-1, so
    seeded runs do not change. Raises FactorNotUnit when r is not a unit
    in [1, n).
    """
    if not 0 <= s_blinded < pub.n:
        raise MessageOutOfRange("blinded signature out of range")
    if not 1 <= r < pub.n:
        raise FactorNotUnit("blinding factor must be an invertible element in [1, n)")
    draw = random.SystemRandom()
    while True:
        u = draw.randrange(1, pub.n)
        t_inv = _inverse(_blinded_factor(r, u, pub), pub.n)
        if t_inv is not None:
            return _unblind_with(s_blinded, u, t_inv, pub)
        # t has no inverse: r is not a unit, or u is not.
        if gcd(r, pub.n) != 1:
            raise FactorNotUnit("cannot unblind with a non-invertible factor")


def verify_recover(s: int, pub: PublicKey) -> int:
    """Recover the signed message: s^e mod n.

    Recovery alone proves nothing; the caller must check the recovered
    bytes against the rigid padded-ballot structure.
    """
    if not 0 <= s < pub.n:
        raise MessageOutOfRange("signature out of range")
    return _public_pow(s, pub)


# --- modular arithmetic through libcrypto ---

# OpenSSL 3's soname.
_LIBCRYPTO_SONAME = "libcrypto.so.3"

_BN_FLG_CONSTTIME = 0x04  # openssl/bn.h
_RSA_NO_PADDING = 3  # openssl/rsa.h


@functools.cache
def _libcrypto() -> ctypes.CDLL | None:
    """The system libcrypto with its BIGNUM and RSA calls declared, or None
    when it cannot be loaded. Loaded on first use, so importing opens no
    file."""
    import ctypes

    # macOS's /usr/lib/libcrypto aborts any process that loads it by name.
    if sys.platform == "darwin":
        return None
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    return open_library(_LIBCRYPTO_SONAME, "crypto", (
        ("BN_CTX_new", ptr, []),
        ("BN_CTX_free", None, [ptr]),
        ("BN_clear", None, [ptr]),
        ("BN_clear_free", None, [ptr]),
        ("BN_set_flags", None, [ptr, c_int]),
        ("BN_copy", ptr, [ptr, ptr]),
        ("BN_bin2bn", ptr, [ctypes.c_char_p, c_int, ptr]),
        ("BN_bn2binpad", c_int, [ptr, ptr, c_int]),
        ("BN_mod_exp_mont", c_int, [ptr, ptr, ptr, ptr, ptr, ptr]),
        ("BN_mod_exp_mont_consttime", c_int, [ptr, ptr, ptr, ptr, ptr, ptr]),
        ("BN_mod_exp_mont_consttime_x2", c_int, [ptr] * 11),
        ("BN_MONT_CTX_new", ptr, []),
        ("BN_MONT_CTX_free", None, [ptr]),
        ("BN_MONT_CTX_set", c_int, [ptr, ptr, ptr]),
        ("BN_to_montgomery", c_int, [ptr] * 4),
        ("BN_from_montgomery", c_int, [ptr] * 4),
        ("BN_mod_mul_montgomery", c_int, [ptr] * 5),
        ("RSA_new", ptr, []),
        ("RSA_free", None, [ptr]),
        ("RSA_set0_key", c_int, [ptr, ptr, ptr, ptr]),
        ("RSA_set0_factors", c_int, [ptr, ptr, ptr]),
        ("RSA_set0_crt_params", c_int, [ptr, ptr, ptr, ptr]),
        ("RSA_private_decrypt", c_int, [c_int, ctypes.c_char_p, ptr, ptr, c_int]),
    ))


# GMP 5 and 6's soname.
_LIBGMP_SONAME = "libgmp.so.10"


@functools.cache
def _libgmp() -> ctypes.CDLL | None:
    """The system libgmp with the mpz calls that _inverse uses declared, or
    None when it cannot be loaded. Loaded on first use, like _libcrypto."""
    import ctypes

    ptr, c_int, size_t = ctypes.c_void_p, ctypes.c_int, ctypes.c_size_t
    return open_library(_LIBGMP_SONAME, "gmp", (
        ("__gmpz_init", None, [ptr]),
        ("__gmpz_clear", None, [ptr]),
        ("__gmpz_import", None, [ptr, size_t, c_int, size_t, c_int, size_t, ptr]),
        ("__gmpz_export", ptr, [ptr, ptr, c_int, size_t, c_int, size_t, ptr]),
        ("__gmpz_invert", c_int, [ptr, ptr, ptr]),
    ))


def _inverse(t: int, n: int) -> int | None:
    """t^-1 mod n for t in [0, n), or None when t is not a unit: libgmp's
    mpz_invert, or pow where libgmp cannot load. Neither is constant time,
    so only unblind's blinded t comes here."""
    gmp = _libgmp()
    if gmp is None:
        try:
            return pow(t, -1, n)
        except ValueError:
            return None
    import ctypes

    width = (n.bit_length() + 7) // 8
    mpz = 2 * ctypes.sizeof(ctypes.c_int) + ctypes.sizeof(ctypes.c_void_p)  # mpz_t: 2 ints, limbs
    zs = ctypes.create_string_buffer(3 * mpz)
    out, t_z, n_z = (ctypes.addressof(zs) + i * mpz for i in range(3))
    for z in (out, t_z, n_z):
        gmp.__gmpz_init(z)
    try:
        # Whole big-endian byte strings: order 1, 1-byte words, endian 1, no nails.
        for z, value in ((t_z, t), (n_z, n)):
            gmp.__gmpz_import(z, width, 1, 1, 1, 0, value.to_bytes(width, "big"))
        if not gmp.__gmpz_invert(out, t_z, n_z):
            return None
        raw, count = ctypes.create_string_buffer(width), ctypes.c_size_t()
        gmp.__gmpz_export(raw, ctypes.byref(count), 1, 1, 1, 0, out)
        return int.from_bytes(raw.raw[: count.value], "big")
    finally:
        for z in (out, t_z, n_z):
            gmp.__gmpz_clear(z)


def backend() -> str:
    """Which arithmetic runs the exponentiations: "libcrypto" or "pow"
    (the fallback). _libgmp() tells whether libgmp runs unblind's inverse."""
    return "pow" if _libcrypto() is None else "libcrypto"


class _Context:
    """libcrypto's state for one odd modulus n, as the module docstring
    describes it. The secret calls run on `flagged` scratch and
    `n_flagged`, which carry BN_FLG_CONSTTIME; BN_mod_exp_mont runs on
    `plain` scratch and `n_plain`, which do not. The library comes with
    each call, from _libcrypto(), and is not kept."""

    def __init__(self, lib: ctypes.CDLL, n: int) -> None:
        self.width = (n.bit_length() + 7) // 8
        self.lock = threading.Lock()
        self.rsa = 0
        self._owned: list[tuple[Callable[[int], None], int]] = []
        weakref.finalize(self, _release, self._owned)
        self.bn_ctx = self._own(lib.BN_CTX_new(), lib.BN_CTX_free)
        self.mont = self._own(lib.BN_MONT_CTX_new(), lib.BN_MONT_CTX_free)
        *self.flagged, self.n_flagged = [self._new_bignum(lib, v, True) for v in (0,) * 5 + (n,)]
        *self.plain, self.n_plain = [self._new_bignum(lib, v, False) for v in (0,) * 3 + (n,)]
        if not lib.BN_MONT_CTX_set(self.mont, self.n_plain, self.bn_ctx):
            raise LibraryFailure("libcrypto BN_MONT_CTX_set failed")

    def _own(self, ptr: int | None, free: Callable[[int], None]) -> int:
        if not ptr:
            raise LibraryFailure("libcrypto could not allocate")
        self._owned.append((free, ptr))
        return ptr

    def _write(self, lib: ctypes.CDLL, value: int, bn: int | None = None) -> int:
        """bn, or a new BIGNUM, set to value written at the width of n, or
        at its own for a public exponent wider than n."""
        raw = value.to_bytes(max(self.width, (value.bit_length() + 7) // 8), "big")
        bn = lib.BN_bin2bn(raw, len(raw), bn)
        if not bn:
            raise LibraryFailure("libcrypto BN_bin2bn failed")
        return bn

    def _new_bignum(self, lib: ctypes.CDLL, value: int, consttime: bool) -> int:
        bn = self._own(self._write(lib, value), lib.BN_clear_free)
        if consttime:
            lib.BN_set_flags(bn, _BN_FLG_CONSTTIME)
        return bn

    def call(
        self, lib: ctypes.CDLL, fn: Callable[..., int], nums: list[int], values: tuple[int, ...]
    ) -> list[int]:
        """Under the lock, write `values` into the last of the scratch
        BIGNUMs `nums`, one each, run fn(*nums) and return the values of
        the others, its outputs; then clear them all."""
        import ctypes

        outputs = len(nums) - len(values)
        with self.lock:
            try:
                for bn, value in zip(nums[outputs:], values):
                    self._write(lib, value, bn)
                if not fn(*nums):
                    raise LibraryFailure(f"libcrypto {fn.__name__} failed")
                out = ctypes.create_string_buffer(self.width)
                found = []
                for bn in nums[:outputs]:
                    if lib.BN_bn2binpad(bn, out, self.width) != self.width:
                        raise LibraryFailure("libcrypto BN_bn2binpad failed")
                    found.append(int.from_bytes(out.raw, "big"))
                return found
            finally:
                for bn in nums:
                    lib.BN_clear(bn)

    def rsa_handle(self, lib: ctypes.CDLL, key: BlindKeyPair) -> int:
        """The key's RSA handle, built on first use: n, e, d, the factors p
        and q, which every key carries, and the CRT values."""
        with self.lock:
            if self.rsa:
                return self.rsa
            rsa = self._own(lib.RSA_new(), lib.RSA_free)
            for set0, values in (
                (lib.RSA_set0_key, (key.n, key.e, key.d)),
                (lib.RSA_set0_factors, (key.p, key.q)),
                (lib.RSA_set0_crt_params, (key.dp, key.dq, key.qinv)),
            ):
                # libcrypto's RSA code sets BN_FLG_CONSTTIME on d, p, q and
                # the CRT values itself, and blinds each private operation.
                nums = [self._own(self._write(lib, v), lib.BN_clear_free) for v in values]
                if not set0(rsa, *nums):
                    raise LibraryFailure(f"libcrypto {set0.__name__} failed")
                del self._owned[-len(nums) :]  # the handle owns them now
            self.rsa = rsa
            return rsa


def _release(owned: list[tuple[Callable[[int], None], int]]) -> None:
    for free, ptr in reversed(owned):
        free(ptr)


def _context(lib: ctypes.CDLL, pub: PublicKey) -> _Context:
    """pub's context, built on first use and freed with pub."""
    ctx = pub.__dict__.get("_ctx")
    if ctx is None:
        ctx = _Context(lib, pub.n)
        object.__setattr__(pub, "_ctx", ctx)
    return ctx


def _private_pow(b: int, key: BlindKeyPair) -> int:
    """b^d mod n for b in [0, n): one call on the key's RSA handle, or pow
    where libcrypto cannot load."""
    lib = _libcrypto()
    if lib is None:
        return pow(b, key.d, key.n)
    import ctypes

    k = key.byte_length
    out = ctypes.create_string_buffer(k)
    ctx = _context(lib, key.public)  # holds the handle until the call returns
    rsa = ctx.rsa_handle(lib, key)
    if lib.RSA_private_decrypt(k, b.to_bytes(k, "big"), out, rsa, _RSA_NO_PADDING) != k:
        raise SigningFault("libcrypto's private-key operation failed; nothing was released")
    return int.from_bytes(out.raw, "big")


def _secret_pow(base: int, exp: int, mod: int, ctx: _Context | None) -> int:
    """base^exp mod mod, for an odd mod, in constant time on ctx, mod's
    context, when any operand is secret; pow where libcrypto cannot load."""
    if ctx is None:
        return pow(base, exp, mod)
    lib = _libcrypto()

    def mod_exp(r: int, a: int, p: int) -> int:
        return lib.BN_mod_exp_mont_consttime(r, a, p, ctx.n_flagged, ctx.bn_ctx, ctx.mont)

    return ctx.call(lib, mod_exp, ctx.flagged[:3], (base, exp))[0]


def _secret_pow_e(x: int, pub: PublicKey) -> int:
    """x^e mod n for a secret x in [0, n): the chain described at the top of
    this module, left to right over the bits of e after the leading one (no
    step for e = 1). pow where libcrypto cannot load."""
    lib = _libcrypto()
    if lib is None:
        return pow(x, pub.e, pub.n)
    ctx = _context(lib, pub)
    mul, mont, bn_ctx = lib.BN_mod_mul_montgomery, ctx.mont, ctx.bn_ctx
    bits = bin(pub.e)[3:]

    def chain(acc: int, base: int) -> int:
        if not (lib.BN_to_montgomery(base, base, mont, bn_ctx) and lib.BN_copy(acc, base)):
            return 0
        for bit in bits:
            if not mul(acc, acc, acc, mont, bn_ctx):
                return 0
            if bit == "1" and not mul(acc, acc, base, mont, bn_ctx):
                return 0
        return lib.BN_from_montgomery(acc, acc, mont, bn_ctx)

    return ctx.call(lib, chain, ctx.flagged[:2], (x,))[0]


def _secret_pow_pair(
    a1: int, a2: int, exp: int, mod: int, ctx: _Context | None
) -> tuple[int, int]:
    """_secret_pow for two bases a1, a2: one BN_mod_exp_mont_consttime_x2
    call, which runs both exponentiations in one AVX-512 IFMA pass where
    the CPU has it and the operands are 1024 bits wide, and one after the
    other otherwise."""
    if ctx is None:
        return pow(a1, exp, mod), pow(a2, exp, mod)
    lib = _libcrypto()
    m, mont = ctx.n_flagged, ctx.mont

    def mod_exp_x2(r1: int, r2: int, b1: int, b2: int, p: int) -> int:
        return lib.BN_mod_exp_mont_consttime_x2(r1, b1, p, m, mont, r2, b2, p, m, mont, ctx.bn_ctx)

    x1, x2 = ctx.call(lib, mod_exp_x2, ctx.flagged[:5], (a1, a2, exp))
    return x1, x2


def _public_pow(s: int, pub: PublicKey) -> int:
    """s^e mod n for s in [0, n), in variable time, for a public s: a
    signature. BN_mod_exp_mont on the key's context, on unflagged BIGNUMs."""
    lib = _libcrypto()
    if lib is None:
        return pow(s, pub.e, pub.n)
    ctx = _context(lib, pub)

    def mod_exp(r: int, a: int, p: int) -> int:
        return lib.BN_mod_exp_mont(r, a, p, ctx.n_plain, ctx.bn_ctx, ctx.mont)

    return ctx.call(lib, mod_exp, ctx.plain[:3], (s, pub.e))[0]


def _blinded_factor(r: int, u: int, pub: PublicKey) -> int:
    """unblind's t for r, u in [1, n): a uniform unit whenever r and u are
    units, whatever r is. On the key's flagged scratch it is MM(r, u)/R =
    r*u/R^2 mod n, where MM(a, b) = a*b/R is BN_mod_mul_montgomery; where
    libcrypto cannot load, (r + n) * u mod n, whose multiplication does not
    cost what r's digit count says, as in random_unit."""
    lib = _libcrypto()
    if lib is None:
        return (r + pub.n) * u % pub.n
    ctx = _context(lib, pub)
    mul, mont, bn_ctx = lib.BN_mod_mul_montgomery, ctx.mont, ctx.bn_ctx

    def step(out: int, r_bn: int, u_bn: int) -> int:
        return mul(out, r_bn, u_bn, mont, bn_ctx) and lib.BN_from_montgomery(out, out, mont, bn_ctx)

    return ctx.call(lib, step, ctx.flagged[:3], (r, u))[0]


def _unblind_with(s_blinded: int, u: int, t_inv: int, pub: PublicKey) -> int:
    """s_blinded/r mod n from _blinded_factor's t: MM(MM(s_blinded, u),
    t^-1) on the key's flagged scratch, s_blinded * u * t^-1 mod n where
    libcrypto cannot load."""
    lib = _libcrypto()
    if lib is None:
        return s_blinded * u % pub.n * t_inv % pub.n
    ctx = _context(lib, pub)
    mul, mont, bn_ctx = lib.BN_mod_mul_montgomery, ctx.mont, ctx.bn_ctx

    def step(out: int, s_b: int, u_bn: int, t_inv_bn: int) -> int:
        return mul(out, s_b, u_bn, mont, bn_ctx) and mul(out, out, t_inv_bn, mont, bn_ctx)

    return ctx.call(lib, step, ctx.flagged[:4], (s_blinded, u, t_inv))[0]


def _dump_key_lines(fields: dict[str, int]) -> str:
    return "".join(f"{name}={value:x}\n" for name, value in fields.items())


def save_public_key(pub: PublicKey, out: TextIO) -> None:
    out.write(_dump_key_lines({"N": pub.n, "e": pub.e}))


def save_keypair(key: BlindKeyPair, out: TextIO) -> None:
    out.write(_dump_key_lines({"N": key.n, "e": key.e, "d": key.d, "p": key.p, "q": key.q}))


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
            fields[name] = hex_int(value.strip())
        except ValueError:
            raise ParseError(f"line {lineno}: {name!r} is not a hex integer") from None
    for name in required:
        if name not in fields:
            raise ParseError(f"missing field {name!r} in {what}")
    return fields


def load_public_key(src: TextIO) -> PublicKey:
    fields = _parse_key_fields(src, ("N", "e"), "public key file")
    try:
        return PublicKey(n=fields["N"], e=fields["e"])
    except ValueError as exc:
        raise ParseError(f"unusable public key: {exc}") from None


def load_keypair(src: TextIO) -> BlindKeyPair:
    fields = _parse_key_fields(src, ("N", "e", "d", "p", "q"), "key file")
    try:
        key = BlindKeyPair(
            n=fields["N"], e=fields["e"], d=fields["d"], p=fields["p"], q=fields["q"]
        )
    except ValueError as exc:
        raise ParseError(f"unusable key: {exc}") from None
    if key.p * key.q != key.n:
        raise ParseError("p * q does not match N")
    return key

from __future__ import annotations

import copy
import ctypes.util
import functools
import gc
import hashlib
import io
import pickle
import random
import subprocess
import sys
import threading
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from blindvote import blindsig, identity
from blindvote.blindsig import (
    CLASSIC_TOY_KEY,
    TOY_KEY,
    BlindKeyPair,
    PublicKey,
    blind,
    keygen,
    load_keypair,
    load_public_key,
    random_unit,
    save_keypair,
    save_public_key,
    sign_blinded,
    unblind,
    verify_recover,
)
from blindvote.errors import FactorNotUnit, MessageOutOfRange, ParseError, SigningFault

import reference_keygen
from conftest import inject_crt_fault

# Values computed once with an independent repeated-multiplication modexp:
#   65 * 7^17 mod 3233          = 2034
#   65^2753 mod 3233            = 588
BLIND_65_R7 = 2034
SIGN_65 = 588


def units(n: int) -> list[int]:
    return [r for r in range(1, n) if gcd(r, n) == 1]


def seeded_keygen() -> tuple[BlindKeyPair, ...]:
    return tuple(keygen(512, random.Random(seed)) for seed in (1, 2, 3))


@functools.cache
def seeded_keys() -> tuple[BlindKeyPair, ...]:
    return seeded_keygen()


# Key widths for the search-equivalence grid: every toy size the search
# treats differently (below, at and above the sieve limit) up to 128 bits.
KEYGEN_GRID_BITS = (9, 10, 11, 12, 13, 14, 16, 20, 24, 32, 48, 64, 96, 128)


def modulus_digest(key: BlindKeyPair) -> str:
    return hashlib.sha256(f"{key.n:x}".encode()).hexdigest()[:16]


class CountingRandom(random.Random):
    """A seeded rng that records every Miller-Rabin witness drawn."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.witnesses: list[int] = []

    def randrange(self, *args: int) -> int:
        value = super().randrange(*args)
        self.witnesses.append(value)
        return value


class ScriptedRandom:
    """Hands out the given witnesses in order, counting them."""

    def __init__(self, witnesses: list[int]) -> None:
        self.witnesses = iter(witnesses)
        self.drawn = 0

    def randrange(self, start: int, stop: int) -> int:
        self.drawn += 1
        return next(self.witnesses)


class BoundedRandom(random.Random):
    """A seeded rng that raises once it has been asked for `draws` values."""

    def __init__(self, seed: int, draws: int) -> None:
        super().__init__(seed)
        self.left = draws

    def getrandbits(self, k: int) -> int:
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("the key search did not end")
        return super().getrandbits(k)


def reference_witnesses(n: int, seed: int) -> list[int]:
    rng = CountingRandom(seed)
    reference_keygen.is_probable_prime(n, rng)
    return rng.witnesses


def count_exponentiations(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Count the prime search's single and paired exponentiation calls."""
    calls = {"single": 0, "pair": 0}
    single, pair = blindsig._secret_pow, blindsig._secret_pow_pair

    def spy_single(*args: int) -> int:
        calls["single"] += 1
        return single(*args)

    def spy_pair(*args: int) -> tuple[int, int]:
        calls["pair"] += 1
        return pair(*args)

    monkeypatch.setattr(blindsig, "_secret_pow", spy_single)
    monkeypatch.setattr(blindsig, "_secret_pow_pair", spy_pair)
    return calls


def assert_agrees_with_pow(key: BlindKeyPair, b: int, r: int) -> None:
    """Every exponentiation and the inverse, against Python's pow; b doubles
    as the message, the blinded value and the signature."""
    n, e = key.n, key.e
    assert sign_blinded(b, key) == pow(b, key.d, n)
    assert blind(b, r, key.public) == b * pow(r, e, n) % n
    assert unblind(b, r, key.public) == b * pow(r, -1, n) % n
    assert verify_recover(b, key.public) == pow(b, e, n)


class TestFixedKeys:
    def test_toy_key_arithmetic(self):
        assert TOY_KEY.n == 11 * 23 == 253
        phi = 10 * 22
        assert gcd(TOY_KEY.e, phi) == 1
        assert TOY_KEY.e * TOY_KEY.d % phi == 1

    def test_classic_key_arithmetic(self):
        assert CLASSIC_TOY_KEY.n == 61 * 53 == 3233
        phi = 60 * 52
        assert CLASSIC_TOY_KEY.e == 17
        assert CLASSIC_TOY_KEY.d == 2753
        assert CLASSIC_TOY_KEY.e * CLASSIC_TOY_KEY.d % phi == 1

    @pytest.mark.parametrize("e", [0, -17])
    def test_non_positive_exponent_refused(self, e):
        # A negative e once reached pow, which inverts, and libcrypto, which
        # raised OverflowError: the two backends disagreed.
        with pytest.raises(ValueError, match="exponent e"):
            PublicKey(n=3233, e=e)
        with pytest.raises(ValueError, match="exponent e"):
            BlindKeyPair(n=3233, e=e, d=2753, p=61, q=53)

    def test_even_modulus_refused(self):
        # Montgomery form needs an odd modulus, and keygen makes only odd ones.
        with pytest.raises(ValueError, match="modulus n must be odd"):
            PublicKey(n=22, e=3)
        with pytest.raises(ValueError, match="modulus n must be odd"):
            BlindKeyPair(n=22, e=3, d=7, p=2, q=11)

    def test_byte_length(self):
        assert TOY_KEY.byte_length == 1
        assert CLASSIC_TOY_KEY.byte_length == 2
        assert PublicKey(n=2**2047 + 1, e=3).byte_length == 256


class TestKeygen:
    def test_definitional_checks_over_seeds(self):
        for seed in range(6):
            key = keygen(48, random.Random(seed))
            assert key.p is not None and key.q is not None
            assert key.p * key.q == key.n
            assert key.p != key.q
            phi = (key.p - 1) * (key.q - 1)
            assert gcd(key.e, phi) == 1
            assert key.e * key.d % phi == 1
            assert key.n % 2 == 1
            assert key.n.bit_length() == 48

    def test_small_toy_sizes(self):
        key = keygen(12, random.Random(3))
        assert key.n.bit_length() == 12
        phi = (key.p - 1) * (key.q - 1)
        assert key.e * key.d % phi == 1

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            keygen(7)

    def test_eight_bits_refused_rather_than_searched_forever(self):
        # At 8 bits both 4-bit primes can only be 13, so a search for p != q
        # never ends; the bounded rng turns that hang into a failure.
        with pytest.raises(ValueError, match="at least 9 bits"):
            keygen(8, BoundedRandom(0, draws=10_000))
        assert keygen(9, BoundedRandom(0, draws=10_000)).n.bit_length() == 9

    def test_seeded_determinism(self):
        a = keygen(64, random.Random(99))
        b = keygen(64, random.Random(99))
        assert a == b

    def test_2048_round_trip(self, key2048):
        assert key2048.n.bit_length() == 2048
        m = 0x1234567890ABCDEF
        assert verify_recover(sign_blinded(m, key2048), key2048.public) == m

    def test_same_keys_as_the_reference_search(self, monkeypatch):
        grid = [(bits, seed) for bits in KEYGEN_GRID_BITS for seed in range(20)]
        with monkeypatch.context() as m:
            m.setattr(blindsig, "_is_probable_prime", reference_keygen.is_probable_prime)
            expected = [keygen(bits, random.Random(seed)) for bits, seed in grid]
        assert [keygen(bits, random.Random(seed)) for bits, seed in grid] == expected

    @pytest.mark.parametrize("seed, digest", [
        (0x5E7A_0001, "a649598c99d3478e"),
        (0x5E7A_0002, "8c4f68c7e25b7fc9"),
        (0x5E7A_0003, "ac18c67935d8ce54"),
    ])
    def test_bench_keys_pinned(self, seed, digest):
        assert modulus_digest(keygen(2048, random.Random(seed))) == digest

    def test_session_keys_pinned(self, key512, key2048):
        assert modulus_digest(key2048) == "1f0accccfd26cccd"
        assert modulus_digest(key512) == "4ee7de61d20b4bcf"


class TestPrimeSearch:
    """_is_probable_prime: trial division, the sieve's one gcd, round 1
    alone, then rounds 2-40 in 19 pairs and one single."""

    @pytest.mark.parametrize("which", ["p", "q"])
    def test_prime_above_the_sieve_gets_40_witnesses(self, key2048, monkeypatch, which):
        prime = getattr(key2048, which)
        calls = count_exponentiations(monkeypatch)
        rng = CountingRandom(11)
        assert blindsig._is_probable_prime(prime, rng)
        assert rng.witnesses == reference_witnesses(prime, 11)
        assert len(rng.witnesses) == 40
        assert calls == {"single": 2, "pair": 19}

    @pytest.mark.parametrize("factor", [41, 4999])
    def test_sieve_rejected_composite_draws_one_witness(self, key512, monkeypatch, factor):
        n = factor * key512.p
        calls = count_exponentiations(monkeypatch)
        rng = CountingRandom(12)
        assert not blindsig._is_probable_prime(n, rng)
        assert rng.witnesses == reference_witnesses(n, 12)
        assert len(rng.witnesses) == 1
        assert calls == {"single": 0, "pair": 0}

    @pytest.mark.parametrize("prime", [41, 1009, 4999])
    def test_toy_prime_below_the_limit_runs_40_rounds(self, monkeypatch, prime):
        calls = count_exponentiations(monkeypatch)
        rng = CountingRandom(13)
        assert blindsig._is_probable_prime(prime, rng)
        assert rng.witnesses == reference_witnesses(prime, 13)
        assert len(rng.witnesses) == 40
        assert calls == {"single": 2, "pair": 19}

    def test_composite_caught_in_any_round(self, key512):
        # Witness 1 passes on any n (1^d = 1); witness 2 proves key512.n
        # composite. Each round, paired or single, must be checked.
        for k in range(40):
            rng = ScriptedRandom([1] * k + [2] + [1] * 40)
            assert not blindsig._is_probable_prime(key512.n, rng), k
            assert rng.drawn == k + 1 + (k in range(1, 39, 2)), k  # a pair draws both

    @pytest.mark.parametrize("mod", ["p2048", 253, 3233, 4999])
    def test_secret_pow_pair_equals_two_pows(self, key2048, mod):
        mod = key2048.p if mod == "p2048" else mod
        lib = blindsig._libcrypto()
        ctx = None if lib is None else blindsig._Context(lib, mod)
        rng = random.Random(mod)
        exps = [(mod - 1) >> 1, rng.randrange(mod), 0, 1]
        for exp in exps:
            for _ in range(4):
                a1, a2 = rng.randrange(mod), rng.randrange(mod)
                assert blindsig._secret_pow_pair(a1, a2, exp, mod, ctx) == (
                    pow(a1, exp, mod), pow(a2, exp, mod)
                )
        assert blindsig._secret_pow_pair(0, mod - 1, exps[0], mod, ctx) == (
            0, pow(mod - 1, exps[0], mod)
        )


class TestBlind:
    def test_identity_blinding_r1(self):
        assert blind(65, 1, CLASSIC_TOY_KEY.public) == 65

    def test_oracle_value(self):
        assert blind(65, 7, CLASSIC_TOY_KEY.public) == BLIND_65_R7

    def test_message_out_of_range(self):
        with pytest.raises(MessageOutOfRange):
            blind(3233, 7, CLASSIC_TOY_KEY.public)
        with pytest.raises(MessageOutOfRange):
            blind(-1, 7, CLASSIC_TOY_KEY.public)

    def test_factor_not_unit(self):
        # blind checks only the range; unblind refuses the non-unit.
        b = blind(5, 11, TOY_KEY.public)  # gcd(11, 253) = 11
        with pytest.raises(FactorNotUnit):
            unblind(sign_blinded(b, TOY_KEY), 11, TOY_KEY.public)
        with pytest.raises(FactorNotUnit):
            blind(5, 0, TOY_KEY.public)

    def test_injectivity_in_r_toy_exhaustive(self):
        # For a unit message, distinct blinding factors give distinct values.
        pub = TOY_KEY.public
        for m in (1, 3, 100):
            seen = {blind(m, r, pub) for r in units(253)}
            assert len(seen) == 220


class TestSignBlinded:
    def test_fixed_points(self):
        assert sign_blinded(1, CLASSIC_TOY_KEY) == 1
        assert sign_blinded(0, CLASSIC_TOY_KEY) == 0

    def test_oracle_value(self):
        assert sign_blinded(65, CLASSIC_TOY_KEY) == SIGN_65

    def test_range_check(self):
        with pytest.raises(MessageOutOfRange):
            sign_blinded(3233, CLASSIC_TOY_KEY)

    def test_crt_equals_plain_exponentiation(self, key512):
        # Dual route: the CRT shortcut must agree with b^d mod n everywhere.
        rng = random.Random(0xC47)
        for b in [rng.randrange(0, key512.n) for _ in range(50)] + [
            0, 1, key512.n - 1, key512.p, key512.q
        ]:
            assert sign_blinded(b, key512) == pow(b, key512.d, key512.n)


    def test_fault_in_one_crt_half_is_withheld(self, rsa_backend, key512, monkeypatch):
        inject_crt_fault(monkeypatch)
        b = 1234567
        faulty = blindsig._private_pow(b, key512)
        # Released, this value would factor N (Boneh-DeMillo-Lipton): it is
        # right mod q only, so the gcd is q, and p = N / q.
        factor = gcd(pow(faulty, key512.e, key512.n) - b, key512.n)
        assert (factor, key512.n // factor) == (key512.q, key512.p)
        with pytest.raises(SigningFault):
            sign_blinded(b, key512)


def fresh_classic_key() -> BlindKeyPair:
    """CLASSIC_TOY_KEY as a new object, so its libcrypto context is its own."""
    return BlindKeyPair(n=3233, e=17, d=2753, p=61, q=53)


needs_libcrypto = pytest.mark.skipif(
    blindsig.backend() != "libcrypto", reason="signs on the pow fallback here"
)


class TestRsaHandle:
    @pytest.mark.parametrize("key", [TOY_KEY, CLASSIC_TOY_KEY], ids=["N=253", "N=3233"])
    def test_exact_over_every_value(self, key):
        assert [sign_blinded(b, key) for b in range(key.n)] == [
            pow(b, key.d, key.n) for b in range(key.n)
        ]

    @needs_libcrypto
    def test_libcrypto_route_has_no_python_crt(self, key512, monkeypatch):
        secret_calls, pow_calls = [], []
        exact, exact_e = blindsig._secret_pow, blindsig._secret_pow_e

        def spy(base: int, exp: int, mod: int, ctx: blindsig._Context | None) -> int:
            secret_calls.append((base, exp, mod))
            return exact(base, exp, mod, ctx)

        def spy_e(base: int, pub: PublicKey) -> int:
            secret_calls.append((base, pub.e, pub.n))
            return exact_e(base, pub)

        monkeypatch.setattr(blindsig, "_secret_pow", spy)
        monkeypatch.setattr(blindsig, "_secret_pow_e", spy_e)
        monkeypatch.setattr(
            blindsig, "pow", lambda *args: pow_calls.append(args) or pow(*args), raising=False
        )
        s = sign_blinded(1234567, key512)
        # The fault check is the only exponentiation outside the handle.
        assert secret_calls == [(s, key512.e, key512.n)]
        assert pow_calls == []
        assert s == pow(1234567, key512.d, key512.n)

    @needs_libcrypto
    def test_handle_freed_with_key(self, monkeypatch):
        lib = blindsig._libcrypto()
        freed = []
        rsa_free = lib.RSA_free
        monkeypatch.setattr(lib, "RSA_free", lambda rsa: (freed.append(rsa), rsa_free(rsa)))
        key = fresh_classic_key()
        assert sign_blinded(65, key) == SIGN_65
        rsa = key.public._ctx.rsa
        assert sign_blinded(65, key) == SIGN_65
        assert key.public._ctx.rsa == rsa  # one handle per key, not per call
        del key
        gc.collect()
        assert freed == [rsa]

    def test_copies_build_their_own_handle(self):
        key = fresh_classic_key()
        assert sign_blinded(65, key) == SIGN_65
        twin, clone = copy.copy(key), pickle.loads(pickle.dumps(key))
        del key
        gc.collect()
        assert twin == clone == CLASSIC_TOY_KEY
        assert sign_blinded(65, twin) == sign_blinded(65, clone) == SIGN_65


class TestMontgomeryChain:
    """x^e on a secret x: a fixed chain of Montgomery multiplications on one
    context per key."""

    @pytest.mark.parametrize("key", [TOY_KEY, CLASSIC_TOY_KEY], ids=["N=253", "N=3233"])
    def test_exact_over_every_value(self, key):
        assert [blindsig._secret_pow_e(x, key.public) for x in range(key.n)] == [
            pow(x, key.e, key.n) for x in range(key.n)
        ]

    @pytest.mark.parametrize("e", [1, 3, 5, 17, 257, 65537])
    def test_equals_pow_for_each_exponent(self, key2048, e):
        rng = random.Random(e)
        for key in (*seeded_keys(), key2048):
            pub = PublicKey(n=key.n, e=e)
            for x in (0, 1, key.n - 1, *(rng.randrange(key.n) for _ in range(8))):
                assert blindsig._secret_pow_e(x, pub) == pow(x, e, key.n)

    @needs_libcrypto
    def test_blind_and_sign_run_the_chain_not_the_secret_exponent_path(
        self, key512, monkeypatch
    ):
        lib = blindsig._libcrypto()
        calls = {"BN_mod_exp_mont_consttime": 0, "BN_mod_mul_montgomery": 0}
        for name in calls:
            exact = getattr(lib, name)

            def spy(*args, name=name, exact=exact):
                calls[name] += 1
                return exact(*args)

            monkeypatch.setattr(lib, name, spy)
        pub = key512.public
        r = random_unit(key512.n, random.Random(6))
        b = blind(1234567, r, pub)
        # 65537 = 2^16 + 1: 16 squarings and 1 multiplication.
        assert calls == {"BN_mod_exp_mont_consttime": 0, "BN_mod_mul_montgomery": 17}
        sign_blinded(b, key512)
        assert calls == {"BN_mod_exp_mont_consttime": 0, "BN_mod_mul_montgomery": 34}
        assert b == 1234567 * pow(r, key512.e, key512.n) % key512.n

    @needs_libcrypto
    def test_context_shared_by_the_key_and_freed_once_with_it(self, monkeypatch):
        lib = blindsig._libcrypto()
        freed = []
        mont_free = lib.BN_MONT_CTX_free
        monkeypatch.setattr(
            lib, "BN_MONT_CTX_free", lambda mont: (freed.append(mont), mont_free(mont))
        )
        key = fresh_classic_key()
        assert sign_blinded(65, key) == SIGN_65
        ctx = key.public._ctx  # the key signs on its public half's context
        assert ctx.rsa
        mont = ctx.mont
        assert blind(65, 7, key.public) == BLIND_65_R7
        assert verify_recover(SIGN_65, key.public) == 65
        assert key.public._ctx is ctx  # one context per key, not per call
        del key, ctx
        gc.collect()
        assert freed == [mont]

    def test_context_stays_out_of_equality_repr_and_pickles(self):
        pub = fresh_classic_key().public
        assert blind(65, 7, pub) == BLIND_65_R7
        twin, clone = copy.copy(pub), pickle.loads(pickle.dumps(pub))
        if blindsig.backend() == "libcrypto":  # the pow fallback makes no context
            assert "_ctx" in pub.__dict__
        assert "_ctx" not in twin.__dict__ and "_ctx" not in clone.__dict__
        assert twin == clone == pub == PublicKey(n=3233, e=17)
        assert repr(pub) == "PublicKey(n=3233, e=17)"
        del pub
        gc.collect()
        assert blind(65, 7, twin) == blind(65, 7, clone) == BLIND_65_R7


class TestContext:
    """The one libcrypto context per modulus: flags, widths and threads."""

    @needs_libcrypto
    def test_secret_operands_flagged_and_verify_operands_not(self, key512, monkeypatch):
        # BN_mod_exp_mont takes its constant-time path when any operand
        # carries the flag, at several times the cost.
        lib = blindsig._libcrypto()
        get_flags = ctypes.CDLL(lib._name).BN_get_flags
        get_flags.restype, get_flags.argtypes = ctypes.c_int, [ctypes.c_void_p, ctypes.c_int]
        bignum_args = {
            "BN_mod_exp_mont_consttime": (0, 1, 2, 3),
            "BN_mod_exp_mont_consttime_x2": (0, 1, 2, 3, 5, 6, 7, 8),
            "BN_mod_mul_montgomery": (0, 1, 2),
            "BN_mod_exp_mont": (0, 1, 2, 3),
        }
        flags: dict[str, set[bool]] = {name: set() for name in bignum_args}
        for name, positions in bignum_args.items():
            real = getattr(lib, name)

            def spy(*args, name=name, positions=positions, real=real):
                flags[name].update(bool(get_flags(args[i], 0x04)) for i in positions)
                return real(*args)

            monkeypatch.setattr(lib, name, spy)
        pub = key512.public
        r = random_unit(key512.n, random.Random(7))
        s = unblind(sign_blinded(blind(1234567, r, pub), key512), r, pub)
        assert verify_recover(s, pub) == 1234567
        keygen(256, random.Random(5))
        assert flags == {
            "BN_mod_exp_mont_consttime": {True},
            "BN_mod_exp_mont_consttime_x2": {True},
            "BN_mod_mul_montgomery": {True},
            "BN_mod_exp_mont": {False},
        }

    @needs_libcrypto
    def test_every_operand_enters_at_the_modulus_width(self, key512, monkeypatch):
        lib = blindsig._libcrypto()
        pub, n = key512.public, key512.n
        m, r = 1234567, 3  # short values, written at the width of n all the same
        b = blind(m, r, pub)
        s_b = sign_blinded(b, key512)  # builds the context and the RSA handle
        widths: list[int] = []
        real = lib.BN_bin2bn
        monkeypatch.setattr(
            lib, "BN_bin2bn", lambda raw, size, bn: (widths.append(size), real(raw, size, bn))[1]
        )
        steps = {
            "blind": lambda: blind(m, r, pub) == b,
            "the fault check": lambda: blindsig._secret_pow_e(s_b, pub) == b,
            "unblind": lambda: unblind(s_b, r, pub) == pow(m, key512.d, n),
            "verify_recover": lambda: verify_recover(pow(m, key512.d, n), pub) == m,
        }
        for step, run in steps.items():
            widths.clear()
            assert run(), step
            assert widths and set(widths) == {pub.byte_length}, step

    def test_threads_on_one_key(self, key512):
        # A fresh key object, so that its context is built under the race
        # too. Without the context's lock the threads share one BN_CTX and
        # its scratch BIGNUMs and corrupt each other's operands.
        key = BlindKeyPair(n=key512.n, e=key512.e, d=key512.d, p=key512.p, q=key512.q)
        pub, n, e, d = key.public, key.n, key.e, key.d
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    m, r = rng.randrange(n), random_unit(n, rng)
                    b = blind(m, r, pub)
                    assert b == m * pow(r, e, n) % n
                    s_b = sign_blinded(b, key)
                    assert s_b == pow(b, d, n)
                    s = unblind(s_b, r, pub)
                    assert s == pow(m, d, n)
                    assert verify_recover(s, pub) == m
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestSecretArithmetic:
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_backend_agrees_with_pow(self, data):
        key = data.draw(st.sampled_from(seeded_keys()))
        b = data.draw(st.sampled_from((0, 1, key.n - 1)) | st.integers(0, key.n - 1))
        r = data.draw(st.integers(1, key.n - 1).filter(lambda r: gcd(r, key.n) == 1))
        assert_agrees_with_pow(key, b, r)

    def test_fallback_when_libcrypto_cannot_load(self, monkeypatch):
        skip_unless_loader(blindsig, "_libcrypto")
        keys = seeded_keys()  # on whichever backend is installed
        monkeypatch.setattr(blindsig, "_LIBCRYPTO_SONAME", "libcrypto.so.absent")
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        blindsig._libcrypto.cache_clear()
        try:
            assert blindsig.backend() == "pow"
            # Miller-Rabin draws the same witnesses on both backends.
            assert seeded_keygen() == keys
            rng = random.Random(0xFA11)
            for key in keys:
                for b in (0, 1, key.n - 1, rng.randrange(key.n)):
                    assert_agrees_with_pow(key, b, random_unit(key.n, rng))
        finally:
            blindsig._libcrypto.cache_clear()

    def test_only_verify_recover_takes_the_variable_time_path(self, key512, monkeypatch):
        public_calls = []
        exact = blindsig._public_pow

        def spy(base: int, pub: PublicKey) -> int:
            public_calls.append((base, pub.e, pub.n))
            return exact(base, pub)

        monkeypatch.setattr(blindsig, "_public_pow", spy)
        pub = key512.public
        r = random_unit(key512.n, random.Random(4))
        s = unblind(sign_blinded(blind(1234567, r, pub), key512), r, pub)
        keygen(256, random.Random(5))
        assert public_calls == []
        assert verify_recover(s, pub) == 1234567
        assert public_calls == [(s, pub.e, pub.n)]

    def test_libcrypto_used_wherever_installed(self):
        skip_unless_loader(blindsig, "_libcrypto")
        installed = sys.platform != "darwin" and ctypes.util.find_library("crypto")
        assert blindsig.backend() == ("libcrypto" if installed else "pow")

    def test_crt_values_stay_out_of_the_key(self, key512):
        p, q, d = key512.p, key512.q, key512.d
        crt = key512.dp, key512.dq, key512.qinv
        assert crt == (d % (p - 1), d % (q - 1), pow(q, -1, p))
        assert "dp=" not in repr(key512)
        with pytest.raises(TypeError):
            BlindKeyPair(n=key512.n, e=key512.e, d=d)  # every key carries p and q

    def test_key_load_inverts_only_a_blinded_q(self, key512, monkeypatch):
        inverted = []

        def spy(base, exp, mod=None):
            if exp == -1:
                inverted.append(base % mod)
            return pow(base, exp, mod)

        monkeypatch.setattr(blindsig, "pow", spy, raising=False)
        p, q = key512.p, key512.q
        for _ in range(20):
            key = BlindKeyPair(n=key512.n, e=key512.e, d=key512.d, p=p, q=q)
            assert key.qinv == pow(q, -1, p)
        assert len(inverted) >= 20 and q % p not in inverted

    def test_key_whose_factors_share_one_is_refused(self):
        # 15 and 21 share 3; N = 315 is odd, so only the inverse can refuse it.
        with pytest.raises(ParseError, match="unusable key: base is not invertible"):
            load_keypair(io.StringIO("N=13b\ne=5\nd=5\np=f\nq=15\n"))
        # With 15 and 7 coprime, half the draws of u are no unit mod 15 and
        # are drawn again.
        for _ in range(50):
            assert BlindKeyPair(n=105, e=5, d=5, p=15, q=7).qinv == 13


def skip_unless_loader(module, loader: str) -> None:
    """Skip a test of a library loader where the pow_fallback plugin has put
    a stub in its place; the Tier-1 run tests the real one."""
    if not hasattr(getattr(module, loader), "cache_clear"):
        pytest.skip(f"{loader} is replaced by the pow_fallback plugin")


def opens(soname: str) -> bool:
    try:
        ctypes.CDLL(soname)
    except OSError:
        return False
    return True


@pytest.mark.parametrize("module, loader, soname, name", [
    pytest.param(blindsig, "_libcrypto", "libcrypto.so.3", "libcrypto", id="libcrypto"),
    pytest.param(identity, "_libsodium", "libsodium.so.23", "libsodium", id="libsodium"),
    # libgmp runs only unblind's inverse, which backend() does not name.
    pytest.param(blindsig, "_libgmp", "libgmp.so.10", None, id="libgmp"),
])
def test_loaded_by_soname_without_a_child_process(monkeypatch, module, loader, soname, name):
    # find_library runs ldconfig -p (then gcc or ld) in a child process.
    skip_unless_loader(module, loader)
    if not opens(soname):
        pytest.skip(f"no {soname}")

    def no_child(*args, **kwargs):
        raise OSError("no child process")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    getattr(module, loader).cache_clear()
    try:
        assert name is None or module.backend() == name
        assert getattr(module, loader)()._name == soname
    finally:
        getattr(module, loader).cache_clear()


@pytest.mark.parametrize("module, loader, soname, name", [
    pytest.param(identity, "_libsodium", "libsodium.so.23", "sodium", id="libsodium"),
    pytest.param(blindsig, "_libgmp", "libgmp.so.10", "gmp", id="libgmp"),
])
def test_macos_opens_no_bare_name(monkeypatch, module, loader, soname, name):
    # dlopen on macOS searches the working directory for a bare name, so a
    # file called libgmp.so.10 there would be loaded into a voter's process.
    skip_unless_loader(module, loader)
    opened, asked = [], []

    def cdll(path, *args, **kwargs):
        opened.append(path)
        raise OSError(f"not opened: {path}")

    def find_library(lib):
        asked.append(lib)
        return f"/usr/local/lib/lib{lib}.dylib"

    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library", find_library)
    getattr(module, loader).cache_clear()
    try:
        assert getattr(module, loader)() is None
    finally:
        getattr(module, loader).cache_clear()
    assert (asked, opened) == ([name], [f"/usr/local/lib/lib{name}.dylib"])


class TestUnblindAndVerify:
    def test_unblind_r1_unchanged(self):
        assert unblind(588, 1, CLASSIC_TOY_KEY.public) == 588

    def test_pipeline_equals_direct_signature(self):
        # blind -> sign -> unblind lands exactly on sign(65).
        pub = CLASSIC_TOY_KEY.public
        blinded = blind(65, 7, pub)
        assert unblind(sign_blinded(blinded, CLASSIC_TOY_KEY), 7, pub) == SIGN_65

    def test_factor_not_unit(self):
        with pytest.raises(FactorNotUnit):
            unblind(10, 61, CLASSIC_TOY_KEY.public)  # 61 divides 3233
        for r in (0, 3233, 3234, -7):  # outside [1, n), as blind refuses
            with pytest.raises(FactorNotUnit):
                unblind(10, r, CLASSIC_TOY_KEY.public)

    def test_inverse_sees_a_fresh_blinded_value_and_no_caller_rng(self, key512,
                                                                    monkeypatch):
        pub, n = key512.public, key512.n
        rng = random.Random(9)
        r, s_b = random_unit(n, rng), rng.randrange(n)
        inverted = []
        real = blindsig._inverse

        def spy(t: int, mod: int) -> int | None:
            assert mod == n
            inverted.append(t)
            return real(t, mod)

        monkeypatch.setattr(blindsig, "_inverse", spy)
        random.seed(10)
        module_state, caller_state = random.getstate(), rng.getstate()
        assert unblind(s_b, r, pub) == unblind(s_b, r, pub) == s_b * pow(r, -1, n) % n
        assert (random.getstate(), rng.getstate()) == (module_state, caller_state)
        assert len(inverted) == 2 and r not in inverted
        assert inverted[0] != inverted[1]  # a fresh u on every call

    def test_random_round_trips_1000(self):
        pub = CLASSIC_TOY_KEY.public
        rng = random.Random(0xAB)
        for _ in range(1000):
            m = rng.randrange(0, 3233)
            r = random_unit(3233, rng)
            s = unblind(sign_blinded(blind(m, r, pub), CLASSIC_TOY_KEY), r, pub)
            assert verify_recover(s, pub) == m

    def test_verify_recover_range(self):
        with pytest.raises(MessageOutOfRange):
            verify_recover(3233, CLASSIC_TOY_KEY.public)

    def test_verify_recover_of_one(self):
        assert verify_recover(1, CLASSIC_TOY_KEY.public) == 1


class TestOnEachInverseBackend:
    """unblind on libgmp's mpz_invert and on the pow fallback. The unblind
    tests also run on both RSA backends, whose products differ:
    BN_mod_mul_montgomery on libcrypto, Python ints on pow."""

    def test_inverse_equals_pow(self, inverse_backend, key512):
        rng = random.Random(12)
        for n in (253, 3233, key512.n):
            for t in (0, 1, 2, n - 1, 11 % n, 61 % n, key512.p % n,
                      *(rng.randrange(n) for _ in range(40))):
                assert blindsig._inverse(t, n) == (pow(t, -1, n) if gcd(t, n) == 1 else None)

    def test_round_trips_and_factor_not_unit(self, rsa_backend, inverse_backend):
        case = TestUnblindAndVerify()
        case.test_unblind_r1_unchanged()
        case.test_pipeline_equals_direct_signature()
        case.test_random_round_trips_1000()
        case.test_factor_not_unit()

    def test_inverse_sees_only_t(self, rsa_backend, inverse_backend, key512, monkeypatch):
        TestUnblindAndVerify().test_inverse_sees_a_fresh_blinded_value_and_no_caller_rng(
            key512, monkeypatch
        )

    def test_threads_on_one_key(self, inverse_backend, key512):
        TestContext().test_threads_on_one_key(key512)

    def test_libgmp_used_wherever_installed(self):
        # Only this direction: libgmp.so.10 may open where find_library,
        # which needs ldconfig, gcc or ld, finds nothing.
        skip_unless_loader(blindsig, "_libgmp")
        if ctypes.util.find_library("gmp"):
            assert blindsig._libgmp() is not None


class TestRandomUnit:
    def test_always_unit_and_in_range(self):
        rng = random.Random(5)
        for _ in range(500):
            r = random_unit(253, rng)
            assert 2 <= r < 253
            assert gcd(r, 253) == 1

    def test_needs_room(self):
        with pytest.raises(ValueError):
            random_unit(3)

    @pytest.mark.parametrize("n", [253, 3233])
    def test_same_r_as_the_plain_search(self, n):
        def plain(rng: random.Random) -> int:
            while True:
                r = rng.randrange(2, n)
                if gcd(r, n) == 1:
                    return r

        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_unit(n, rng) == plain(ref), seed
            assert rng.getstate() == ref.getstate(), seed

    def test_gcd_never_sees_r(self, key512, monkeypatch):
        seen = []

        def spy(a: int, b: int) -> int:
            seen.extend((a, b))
            return gcd(a, b)

        monkeypatch.setattr(blindsig, "gcd", spy)
        rng = random.Random(11)
        drawn = [random_unit(key512.n, rng) for _ in range(50)]
        for r in drawn:
            blind(1, r, key512.public)
        assert seen and not set(drawn) & set(seen)


class TestKeyFiles:
    def test_keypair_round_trip(self, key512):
        buf = io.StringIO()
        save_keypair(key512, buf)
        buf.seek(0)
        assert load_keypair(buf) == key512

    def test_public_round_trip(self):
        buf = io.StringIO()
        save_public_key(CLASSIC_TOY_KEY.public, buf)
        buf.seek(0)
        assert load_public_key(buf) == CLASSIC_TOY_KEY.public

    def test_keypair_without_primes(self):
        text = "N=ca1\ne=11\nd=ac1\n"
        with pytest.raises(ParseError, match="missing field 'p'"):
            load_keypair(io.StringIO(text))

    def test_missing_field(self):
        with pytest.raises(ParseError):
            load_public_key(io.StringIO("N=ca1\n"))

    def test_bad_hex(self):
        with pytest.raises(ParseError):
            load_public_key(io.StringIO("N=xyz\ne=3\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "N=ca1\ne=11\nd=-93\n",  # once loaded, then failed at the first sign
            "N=ca1\ne=-3\nd=ac1\n",
            "N=0xca1\ne=11\nd=ac1\n",
            "N=ca1\ne=+11\nd=ac1\n",
            "N=c_a1\ne=11\nd=ac1\n",
            "N=ca1\ne=\nd=ac1\n",
        ],
    )
    def test_non_canonical_hex(self, text):
        with pytest.raises(ParseError):
            load_keypair(io.StringIO(text))
        with pytest.raises(ParseError):
            load_public_key(io.StringIO(text))

    def test_zero_exponent(self):
        text = "N=ca1\ne=0\nd=ac1\np=3d\nq=35\n"
        with pytest.raises(ParseError, match="exponent e"):
            load_keypair(io.StringIO(text))
        with pytest.raises(ParseError, match="exponent e"):
            load_public_key(io.StringIO(text))

    def test_mismatched_primes(self):
        with pytest.raises(ParseError):
            load_keypair(io.StringIO("N=ca1\ne=11\nd=ac1\np=3\nq=5\n"))

    @pytest.mark.parametrize("primes", ["p=1\nq=ca1\n", "p=ca1\nq=1\n"])
    def test_degenerate_primes(self, primes):
        with pytest.raises(ParseError):
            load_keypair(io.StringIO("N=ca1\ne=11\nd=ac1\n" + primes))

    def test_even_modulus_refused(self):
        text = "N=16\ne=3\nd=7\np=2\nq=b\n"  # N = 22
        with pytest.raises(ParseError, match="unusable key: modulus n must be odd"):
            load_keypair(io.StringIO(text))
        with pytest.raises(ParseError, match="unusable public key: modulus n must be odd"):
            load_public_key(io.StringIO(text))

    def test_lone_prime(self):
        with pytest.raises(ParseError):
            load_keypair(io.StringIO("N=ca1\ne=11\nd=ac1\np=3\n"))

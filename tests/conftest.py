from __future__ import annotations

import errno
import os
import random
import sys
from typing import Iterator

import pytest

from blindvote import blindsig, identity
from blindvote.election import ElectionConfig, Party

FIXTURE_ELECTION_ID = bytes.fromhex("00112233445566aa")


def make_config_2x3() -> ElectionConfig:
    """The canonical 2-party, 3-candidate fixture used across the suite."""
    return ElectionConfig(
        election_id=FIXTURE_ELECTION_ID,
        title="Fixture Election",
        parties=(
            Party(name="Alpha", candidates=("Anna", "Arno", "Avi")),
            Party(name="Beta", candidates=("Ben", "Bea", "Bo")),
        ),
    )


@pytest.fixture(params=("libsodium", "cryptography"))
def ed25519_backend(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch) -> str:
    """Run the test once on each Ed25519 library. The libsodium run is
    skipped where libsodium cannot be loaded."""
    if request.param == "cryptography":
        monkeypatch.setattr(identity, "_libsodium", lambda: None)
    elif identity._libsodium() is None:
        pytest.skip("libsodium cannot be loaded")
    assert identity.backend() == request.param
    return request.param


@pytest.fixture(params=("libcrypto", "pow"))
def rsa_backend(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch) -> str:
    """Run the test once on each RSA arithmetic: libcrypto, and the pow
    fallback that runs wherever libcrypto cannot be loaded. The libcrypto
    run is skipped where libcrypto cannot be loaded."""
    if request.param == "pow":
        monkeypatch.setattr(blindsig, "_libcrypto", lambda: None)
    elif blindsig._libcrypto() is None:
        pytest.skip("libcrypto cannot be loaded")
    assert blindsig.backend() == request.param
    return request.param


@pytest.fixture(params=("libgmp", "pow"))
def inverse_backend(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch) -> str:
    """Run the test once on each of unblind's inverses: libgmp's mpz_invert,
    and the pow fallback that runs wherever libgmp cannot be loaded. The
    libgmp run is skipped where libgmp cannot be loaded."""
    if request.param == "pow":
        monkeypatch.setattr(blindsig, "_libgmp", lambda: None)
    elif blindsig._libgmp() is None:
        pytest.skip("libgmp cannot be loaded")
    return request.param


@pytest.fixture
def config2x3() -> ElectionConfig:
    return make_config_2x3()


@pytest.fixture(scope="session")
def key512() -> blindsig.BlindKeyPair:
    """Session key for scenario tests; small enough to keep the suite quick."""
    return blindsig.keygen(512, random.Random(0xB17D))


@pytest.fixture(scope="session")
def key2048() -> blindsig.BlindKeyPair:
    """Production-size key; generated once per session (it is expensive)."""
    return blindsig.keygen(2048, random.Random(0x5EED))


def inject_crt_fault(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every private-key result exact modulo q and one too large modulo
    p: s + q * (q^-1 mod p), the single-half CRT fault that would factor N
    through gcd(s^e - b, N) = q if the signature left. The fault goes on the
    result of the private operation, because libcrypto checks its own CRT
    result and recomputes on a mismatch: a fault injected inside it never
    shows."""
    exact = blindsig._private_pow

    def faulty(b: int, key: blindsig.BlindKeyPair) -> int:
        return (exact(b, key) + key.q * key.qinv) % key.n

    monkeypatch.setattr(blindsig, "_private_pow", faulty)


def disk_full(self, out, *, after=0):
    """Stands in for SigningAuthority.save_request_log: part of a line, then
    the disk is full."""
    out.write("REQ V00")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_opened: list[str] | None = None  # None: no test is recording
_hooked = False


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _opened is not None and isinstance(args[0], (str, os.PathLike)):
        _opened.append(os.fspath(args[0]))


@pytest.fixture
def opened() -> Iterator[list[str]]:
    """The paths of the files opened while the test runs, in order, as
    Python's "open" audit event names them."""
    global _opened, _hooked
    if not _hooked:
        sys.addaudithook(_record_open)  # a hook cannot be removed: add it once
        _hooked = True
    _opened = []
    try:
        yield _opened
    finally:
        _opened = None

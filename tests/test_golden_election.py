"""The golden election (see golden_election.py), rebuilt and compared byte
for byte on every RSA arithmetic, unblind inverse and Ed25519 library."""

from __future__ import annotations

import pytest

from golden_election import GOLDEN, build, files


@pytest.mark.usefixtures("rsa_backend", "inverse_backend", "ed25519_backend")
def test_golden_election_on_every_backend(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build()
    built, golden = files(tmp_path), files(GOLDEN)
    assert sorted(built) == sorted(golden)
    for name, data in golden.items():
        assert built[name] == data, name

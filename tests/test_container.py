"""The SHC1 container behind save_cache/load_cache: its byte layout, round
trips, and a clean ValueError naming the file for every malformed input."""

import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest

from sectorheat import GridSpec, PsiCache, SectorSpec, load_cache, save_cache
from sectorheat.geometry import _write_container


def _small_cache() -> PsiCache:
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=4.0, n=4)
    return PsiCache(spec=spec, grid=grid,
                    values=np.array([0.25, -1.5, 3.0, 1e-300]),
                    C_inf=1.2345678901234567)


def _container(header: bytes, payload: bytes) -> bytes:
    """A container with a valid digest around an arbitrary header."""
    digest = hashlib.sha256(header + payload).hexdigest().encode()
    return b"SHC1" + struct.pack("<i", len(header)) + header + digest \
        + payload


def _written(spec, grid, values) -> bytes:
    """The bytes _write_container writes, which hold a valid digest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "written.shc")
        _write_container(path, spec, grid, values, C_inf=1.0)
        with open(path, "rb") as fh:
            return fh.read()


def _header(**over) -> bytes:
    meta = {"N": 1, "m": 1, "gamma": 0.5, "alpha": 0.5, "sign_a": 1,
            "L": 4.0, "n": 4, "axes": ["antisym"], "C_inf": 1.0}
    meta.update(over)
    return json.dumps({k: v for k, v in meta.items() if v is not None},
                      sort_keys=True).encode()


def test_cache_layout_is_fixed(tmp_path):
    # the layout cache files on disk already use: magic, int32 header
    # length, sorted-key JSON header, SHA-256 hex digest of header+payload,
    # little-endian float64 payload
    cache = _small_cache()
    header = (b'{"C_inf": 1.2345678901234567, "L": 4.0, "N": 1, '
              b'"alpha": 0.5, "axes": ["antisym"], "gamma": 0.5, "m": 1, '
              b'"n": 4, "sign_a": 1}')
    expected = _container(header, cache.values.astype("<f8").tobytes())
    path = tmp_path / "psi.shc"
    save_cache(cache, str(path))
    assert path.read_bytes() == expected


def _payload(count: int, value: float = 1.0) -> bytes:
    return np.full(count, value, dtype="<f8").tobytes()


_MALFORMED = {
    "truncated cache": (lambda raw: raw[:-8], "checksum"),
    "negative header length": (
        lambda raw: raw[:4] + struct.pack("<i", -5) + raw[8:],
        "header length -5"),
    "5-byte cache": (lambda raw: raw[:5], "truncated"),
    "non-UTF-8 bytes": (lambda raw: b"\xff\xfe\x00\x80" * 20, "bad magic"),
    "header not an object": (
        lambda raw: _container(b"[1, 2]", _payload(4)), "not a JSON object"),
    "header not JSON": (lambda raw: _container(b"\xff{", _payload(4)),
                        "bad header"),
    "missing key": (lambda raw: _container(_header(axes=None), _payload(4)),
                    "lacks key 'axes'"),
    "invalid spec": (lambda raw: _container(_header(gamma=7.0), _payload(4)),
                     "gamma must lie"),
    "axes length differs from N": (
        lambda raw: _written(SectorSpec(1, 1, 0.5, 0.5),
                             GridSpec(4.0, 4, ("antisym", "sym")),
                             np.ones((4, 4))),
        "has 2 entries, but N=1"),
    "wrong key type": (lambda raw: _container(_header(N="1"), _payload(4)),
                       "bad header"),
    "missing C_inf": (
        lambda raw: _container(_header(C_inf=None), _payload(4)),
        "lacks key 'C_inf'"),
    "payload too short": (lambda raw: _container(_header(), _payload(3)),
                          "payload of 24 bytes"),
    "absurd node count": (
        lambda raw: _container(_header(n=10 ** 15), _payload(4)),
        "payload of 32 bytes"),
    "non-finite payload": (
        lambda raw: _container(_header(), _payload(4, np.nan)), "non-finite"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_file_raises_value_error(tmp_path, case):
    mutate, what = _MALFORMED[case]
    src = tmp_path / "good.shc"
    save_cache(_small_cache(), str(src))
    path = tmp_path / "bad.shc"
    path.write_bytes(mutate(src.read_bytes()))
    with pytest.raises(ValueError) as info:
        load_cache(str(path))
    assert info.type is ValueError
    assert str(path) in str(info.value)
    assert what in str(info.value)


def _assert_rejected(path, data: bytes) -> None:
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_cache(str(path))
    # not a subclass such as UnicodeDecodeError or JSONDecodeError
    assert info.type is ValueError
    assert str(path) in str(info.value)


def test_every_prefix_and_bit_flip_is_rejected(tmp_path):
    # the intact file round-trips exactly; every proper prefix and every
    # single-bit or whole-byte flip of it is refused
    want = _small_cache()
    good = tmp_path / "good.shc"
    save_cache(want, str(good))
    loaded = load_cache(str(good))
    assert loaded.spec == want.spec and loaded.grid == want.grid
    assert np.array_equal(loaded.values, want.values)
    assert loaded.C_inf == want.C_inf
    raw = good.read_bytes()
    bad = tmp_path / "bad.shc"
    for k in range(len(raw)):
        _assert_rejected(bad, raw[:k])
    for i in range(len(raw)):
        for mask in (1, 2, 4, 8, 16, 32, 64, 128, 255):
            flipped = bytearray(raw)
            flipped[i] ^= mask
            _assert_rejected(bad, bytes(flipped))

from pathlib import Path

import numpy as np
import pytest
import scipy

from driftcal import process_settings
from driftcal.process_settings import one_blas_thread


def pool_sizes():
    return [get() for get, _ in process_settings._blas_pools()]


@pytest.fixture
def pools_at_two():
    if not process_settings._blas_pools():
        pytest.skip("no OpenBLAS thread controls in this numpy/scipy build")
    saved = pool_sizes()
    for _, set_ in process_settings._blas_pools():
        set_(2)
    yield
    for (_, set_), n in zip(process_settings._blas_pools(), saved):
        set_(n)


def test_finds_the_numpy_and_scipy_pools():
    bundled = [Path(p.__file__).parent.parent / f"{p.__name__}.libs" for p in (np, scipy)]
    if not all(any(libs.glob("libscipy_openblas*.so*")) for libs in bundled):
        pytest.skip("numpy or scipy does not bundle its own OpenBLAS here")
    assert len(process_settings._blas_pools()) == 2


def test_pin_restores_the_previous_pool_sizes_and_nests(pools_at_two):
    ones, twos = [1] * len(pool_sizes()), [2] * len(pool_sizes())
    with one_blas_thread():
        assert pool_sizes() == ones
        with one_blas_thread():
            assert pool_sizes() == ones
        assert pool_sizes() == ones
    assert pool_sizes() == twos


def test_pin_restores_the_pool_sizes_when_the_block_raises(pools_at_two):
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        1 / 0
    assert pool_sizes() == [2] * len(pool_sizes())


def test_pin_does_nothing_without_thread_controls(tmp_path, monkeypatch, pools_at_two):
    # a package with an empty ``.libs`` directory beside it, found on sys.path
    (tmp_path / "driftcal_fake_blas").mkdir()
    (tmp_path / "driftcal_fake_blas" / "__init__.py").touch()
    (tmp_path / "driftcal_fake_blas.libs").mkdir()
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(process_settings, "_OPENBLAS_BUILDS", (("driftcal_fake_blas", ""),))
    found = process_settings._blas_pools.__wrapped__()
    assert found == ()
    real = process_settings._blas_pools()
    monkeypatch.setattr(process_settings, "_blas_pools", lambda: found)
    with one_blas_thread():
        assert [get() for get, _ in real] == [2] * len(real)
    assert [get() for get, _ in real] == [2] * len(real)

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import sdmcap
from sdmcap import cache
from sdmcap.gue import derive_coefficients
from sdmcap.total import CorrelationModel


class TestCacheDir:
    def test_env_override(self, tmp_path):
        assert cache.cache_dir() == Path(os.environ["SDMCAP_CACHE_DIR"])

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("SDMCAP_CACHE_DIR", raising=False)
        assert cache.cache_dir() == Path.home() / ".cache" / "sdmcap"


class TestCoefficientCache:
    def test_roundtrip_is_exact(self):
        coeffs = cache.cached_coefficients(5)
        assert coeffs == derive_coefficients(5)
        reloaded = cache.load_cached_coefficients()
        assert reloaded[5].beta == coeffs.beta
        assert reloaded[5].alpha == coeffs.alpha

    def test_file_format(self):
        cache.cached_coefficients(6)
        payload = json.loads((cache.cache_dir() / "coefficients.json").read_text())
        assert payload["6"]["beta"][0] == "322/3125"
        assert isinstance(payload["6"]["alpha"], str)

    def test_merging_multiple_orders(self):
        cache.cached_coefficients(3)
        cache.cached_coefficients(4)
        reloaded = cache.load_cached_coefficients()
        assert set(reloaded) == {3, 4}

    def test_corrupt_file_is_ignored(self):
        path = cache.cache_dir() / "coefficients.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.load_cached_coefficients() == {}
        # a later store must recover
        cache.cached_coefficients(2)
        assert 2 in cache.load_cached_coefficients()


class TestGammaTable:
    def test_shipped_default_pair(self):
        model = cache.lookup_gamma(6, 10.0)
        assert model is not None
        assert model.gamma0 == 0.43513127
        assert model.gamma1 == 3.758373e-05

    def test_missing_pair_returns_none(self):
        assert cache.lookup_gamma(7, 12.0) is None

    def test_store_and_lookup(self):
        cache.store_gamma(CorrelationModel(0.3, 1e-5, D=4, snr_db=10.0))
        model = cache.lookup_gamma(4, 10.0)
        assert model.gamma0 == 0.3
        assert model.gamma1 == 1e-5

    def test_local_record_overrides_shipped(self):
        cache.store_gamma(CorrelationModel(0.5, 0.0, D=6, snr_db=10.0))
        assert cache.lookup_gamma(6, 10.0).gamma0 == 0.5
        table = cache.load_gamma_table()
        assert sum(1 for r in table if r["D"] == 6 and r["snr_db"] == 10.0) == 1

    def test_local_record_overrides_shipped_within_snr_tolerance(self):
        cache.store_gamma(CorrelationModel(0.1, 0.2, D=6, snr_db=10.0 + 1e-12))
        assert cache.lookup_gamma(6, 10.0).gamma0 == 0.1
        assert sum(1 for r in cache.load_gamma_table() if r["D"] == 6) == 1

    def test_restore_overwrites_same_pair(self):
        cache.store_gamma(CorrelationModel(0.1, 0.0, D=4, snr_db=10.0))
        cache.store_gamma(CorrelationModel(0.2, 0.0, D=4, snr_db=10.0))
        records = json.loads((cache.cache_dir() / "gamma_table.json").read_text())
        matches = [r for r in records if r["D"] == 4]
        assert len(matches) == 1
        assert matches[0]["gamma0"] == 0.2


_WRITER = """
import sys, time
from pathlib import Path
from sdmcap import cache
from sdmcap.total import CorrelationModel
D, gate = int(sys.argv[1]), Path(sys.argv[2])
(gate.parent / f"ready-{D}").touch()
while not gate.exists():
    time.sleep(0.001)
for k in range(10):
    cache.store_gamma(CorrelationModel(0.01 * D, 0.0, D=D, snr_db=float(k)))
"""


class TestConcurrentWriters:
    def test_no_record_is_lost(self, tmp_path):
        # 8 processes, released together, each store 10 distinct records
        src = str(Path(sdmcap.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        gate = tmp_path / "gate"
        modes = range(2, 10)
        procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(D), str(gate)],
                                  env=env) for D in modes]
        try:
            deadline = time.monotonic() + 60
            while (len(list(tmp_path.glob("ready-*"))) < len(procs)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            gate.touch()
            codes = [p.wait(timeout=60) for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert codes == [0] * len(procs)
        for D in modes:
            for k in range(10):
                assert cache.lookup_gamma(D, float(k)).gamma0 == 0.01 * D
        assert not list(cache.cache_dir().glob("*.tmp"))

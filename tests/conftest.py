import importlib.util
from pathlib import Path

import pytest

from expoverlap.simulation import SimConfig, compare_to_reference, run_study

ORACLES_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


@pytest.fixture(scope="session")
def default_table():
    """The full default-grid study; shared because it takes a couple seconds."""
    return run_study(SimConfig())


@pytest.fixture(scope="session")
def default_comparison(default_table):
    return compare_to_reference(default_table)


@pytest.fixture(scope="session")
def bench_oracles():
    """``bench/oracles.py``, loaded by path: closed forms written out from the
    README and scipy integrals over the F law, sharing no code with the package."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def exact_moments(default_table, bench_oracles):
    """Exact (bias, mse) per (r, n1, coefficient) of the default-grid study.

    delta, rho and lambda plug in R* = R_hat (n2-1)/n2 and the KL overlap
    plugs in R_hat, as the default config does.
    """
    cfg = default_table.config
    assert cfg.r_values == bench_oracles.STUDY_R
    assert cfg.size_pairs == tuple((n, n) for n in bench_oracles.STUDY_N)
    assert not cfg.lambda_uses_corrected_ratio
    moments = bench_oracles.exact_study_moments(cfg.replications)
    return {cell: (m["bias"], m["mse"]) for cell, m in moments.items()}

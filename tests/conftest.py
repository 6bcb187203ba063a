import pytest
from hypothesis import settings

from mubsic import siclab

# Property tests draw the same few examples on every run, so the suite stays
# deterministic and its wall time stays flat.
settings.register_profile(
    "mubsic", derandomize=True, deadline=None, max_examples=5, database=None
)
settings.load_profile("mubsic")


@pytest.fixture(scope="session")
def searched():
    """Factory for cached deterministic fiducial searches, keyed by (d, seed)."""
    cache = {}

    def get(d: int, seed: int = 0, restarts: int = 200) -> siclab.SearchResult:
        key = (d, seed, restarts)
        if key not in cache:
            cfg = siclab.SearchConfig(seed=seed, restarts=restarts)
            cache[key] = siclab.search_fiducial(d, cfg)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def searched_mu_pom(searched):
    """Cached (family, point operators τ, spectra table, per-column spread)
    per dimension."""
    cache = {}

    def get(d: int):
        if d not in cache:
            fam = siclab.generate_hw_sic(searched(d).fiducial)
            taus = siclab.extract_mu_pom(fam)
            table = siclab.spectra_table(taus)
            spread = siclab.assert_column_constant(table)
            cache[d] = (fam, taus, table, spread)
        return cache[d]

    return get

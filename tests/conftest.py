import pytest

from qfuzzy import lab


@pytest.fixture(autouse=True)
def fresh_generator_memo():
    # the generator remembers the columns it has verified for the whole
    # process; each test starts without them, so a test that counts or fails
    # the generator's self-check sees it whatever ran before
    lab._verified_columns.cache_clear()

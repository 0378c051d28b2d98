"""The LIKE regex cache: one translate+compile per (pattern, escape)."""

import pytest

from repro.dataframe.table import Table
from repro.sql.catalog import Catalog
from repro.sql.errors import ExecutionError
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.scalar import like_match, like_regex
from rowdict_oracle import RowDictOracle


@pytest.fixture(autouse=True)
def fresh_cache():
    like_regex.cache_clear()
    yield
    like_regex.cache_clear()


@pytest.fixture()
def db():
    catalog = Catalog()
    catalog.register(
        Table.from_dict(
            "t",
            {
                "s": ["apple", "APPLE", "banana", "50% off", "a_b", None, "axe"],
            },
        )
    )
    return catalog


def run(catalog, sql, oracle=False):
    executor = RowDictOracle(catalog) if oracle else Executor(catalog)
    return executor.execute(parse(sql))


class TestCacheReuse:
    def test_one_compile_per_distinct_pattern(self, db):
        run(db, "SELECT s FROM t WHERE s LIKE 'a%'")
        info = like_regex.cache_info()
        # 7 rows, 6 non-null evaluations, exactly one miss.
        assert info.misses == 1
        assert info.hits >= 5

    def test_oracle_shares_the_same_cache(self, db):
        run(db, "SELECT s FROM t WHERE s LIKE 'a%'")
        assert like_regex.cache_info().misses == 1
        # The oracle re-running the same pattern only hits.
        run(db, "SELECT s FROM t WHERE s LIKE 'a%'", oracle=True)
        assert like_regex.cache_info().misses == 1

    def test_distinct_escapes_are_distinct_entries(self, db):
        run(db, "SELECT s FROM t WHERE s LIKE '50!%%' ESCAPE '!'")
        run(db, "SELECT s FROM t WHERE s LIKE '50@%%' ESCAPE '@'")
        assert like_regex.cache_info().misses == 2

    def test_binaryop_like_and_like_node_share_entries(self, db):
        # NOT LIKE parses to a different node shape but the same pattern.
        run(db, "SELECT s FROM t WHERE s LIKE 'a%'")
        run(db, "SELECT s FROM t WHERE s NOT LIKE 'a%'")
        assert like_regex.cache_info().misses == 1


class TestSemanticsUnchanged:
    @pytest.mark.parametrize("oracle", [False, True])
    def test_case_insensitive(self, db, oracle):
        result = run(db, "SELECT s FROM t WHERE s LIKE 'apple'", oracle=oracle)
        assert result.column("s").values == ["apple", "APPLE"]

    @pytest.mark.parametrize("oracle", [False, True])
    def test_escaped_percent_is_literal(self, db, oracle):
        result = run(
            db, "SELECT s FROM t WHERE s LIKE '50!% off' ESCAPE '!'", oracle=oracle
        )
        assert result.column("s").values == ["50% off"]

    @pytest.mark.parametrize("oracle", [False, True])
    def test_escaped_underscore_is_literal(self, db, oracle):
        result = run(
            db, "SELECT s FROM t WHERE s LIKE 'a!_b' ESCAPE '!'", oracle=oracle
        )
        assert result.column("s").values == ["a_b"]

    @pytest.mark.parametrize("oracle", [False, True])
    def test_multi_char_escape_still_raises(self, db, oracle):
        with pytest.raises(ExecutionError, match="single character"):
            run(db, "SELECT s FROM t WHERE s LIKE 'a%' ESCAPE 'xy'", oracle=oracle)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_dangling_escape_raises_every_time(self, db, oracle):
        # lru_cache does not cache exceptions: the malformed pattern must
        # raise on a second run too, not return a stale cached object.
        for _ in range(2):
            with pytest.raises(ExecutionError, match="ends with its ESCAPE"):
                run(
                    db,
                    "SELECT s FROM t WHERE s LIKE 'a!' ESCAPE '!'",
                    oracle=oracle,
                )


class TestDirectHelper:
    def test_match_and_cache(self):
        assert like_match("Apple pie", "apple%") is True
        assert like_match("pie", "apple%") is False
        info = like_regex.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_null_escape_means_no_escape(self):
        assert like_match("50% off", "50%", None) is True

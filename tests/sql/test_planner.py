"""The plan phase: stage pipelines and their description."""

from repro.sql.parser import parse
from repro.sql.planner import plan_select


def stages_of(sql: str):
    plan = plan_select(parse(sql))
    return plan, [type(stage).__name__ for stage in plan.stages()]


class TestStagePipelines:
    def test_plain_scan_project(self):
        plan, stages = stages_of("SELECT name FROM people")
        assert stages == ["ScanNode", "ProjectNode"]

    def test_full_single_table_pipeline(self):
        plan, stages = stages_of(
            "SELECT DISTINCT name FROM people WHERE age > 10 "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1 "
            "ORDER BY name LIMIT 3 OFFSET 1"
        )
        assert stages == [
            "ScanNode",
            "FilterNode",
            "WindowNode",
            "ProjectNode",
            "QualifyNode",
            "DistinctNode",
            "OrderNode",
            "LimitNode",
        ]

    def test_group_by_replaces_window_project_qualify(self):
        plan, stages = stages_of(
            "SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1"
        )
        assert stages == ["ScanNode", "GroupNode"]
        assert plan.group is not None
        assert plan.group.having is not None

    def test_bare_aggregate_plans_a_group_stage(self):
        plan, _ = stages_of("SELECT COUNT(*) FROM people")
        assert plan.group is not None
        assert plan.group.keys == []

    def test_join_pipeline(self):
        plan, stages = stages_of(
            "SELECT a.name FROM people a JOIN people b ON a.name = b.name WHERE a.age > 1"
        )
        assert stages[:3] == ["ScanNode", "JoinNode", "FilterNode"]

    def test_windows_collected_from_items_and_qualify_once(self):
        plan, _ = stages_of(
            "SELECT name, ROW_NUMBER() OVER (ORDER BY age) AS rn FROM people "
            "QUALIFY RANK() OVER (ORDER BY age) = 1"
        )
        assert plan.window is not None
        assert len(plan.windows) == 2


class TestFromShapes:
    def test_no_from_plans_no_scan(self):
        plan, stages = stages_of("SELECT 1 + 1")
        assert plan.scan is None
        assert stages == ["ProjectNode"]

    def test_subquery_from_plans_one_scan(self):
        # The inner SELECT gets its own plan when it executes.
        plan, stages = stages_of("SELECT name FROM (SELECT name FROM people) sub")
        assert stages == ["ScanNode", "ProjectNode"]
        assert plan.scan.ref.subquery is not None


class TestDescribe:
    def test_describe_lists_stages_in_order(self):
        plan, _ = stages_of("SELECT name FROM people WHERE age > 1 ORDER BY name")
        assert plan.describe().splitlines() == [
            "0: Scan(people)",
            "1: Filter",
            "2: Project(items=1)",
            "3: Order(keys=1)",
        ]

    def test_describe_lists_joins(self):
        plan, _ = stages_of("SELECT * FROM a JOIN b ON a.x = b.x")
        assert plan.describe().splitlines()[:2] == ["0: Scan(a)", "1: Join(INNER, b)"]

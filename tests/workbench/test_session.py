"""Unit tests for the PrismSession workflow (Configuration → Description → Result)."""

from __future__ import annotations

import pytest

from repro.errors import SessionError
from repro.workbench.session import PrismSession, SessionStage


@pytest.fixture()
def session(company_db_session):
    # Use the small company database so searches are fast and deterministic.
    return PrismSession(databases={"company": company_db_session})


def configure(session: PrismSession, num_samples: int = 1) -> PrismSession:
    return session.configure("company", num_columns=2, num_samples=num_samples)


class TestConfiguration:
    def test_initial_stage(self, session):
        assert session.stage is SessionStage.CONFIGURATION

    def test_available_databases_reflect_injected_mapping(self, session):
        assert session.available_databases() == ["company"]

    def test_default_session_offers_demo_databases(self):
        assert PrismSession().available_databases() == ["imdb", "mondial", "nba"]

    def test_configure_moves_to_description(self, session):
        configure(session)
        assert session.stage is SessionStage.DESCRIPTION

    def test_configure_rejects_unknown_database(self, session):
        with pytest.raises(SessionError):
            session.configure("oracle", num_columns=2)

    def test_configure_rejects_bad_shapes(self, session):
        with pytest.raises(SessionError):
            session.configure("company", num_columns=0)
        with pytest.raises(SessionError):
            session.configure("company", num_columns=2, num_samples=-1)


class TestDescription:
    def test_cells_require_configuration_first(self, session):
        with pytest.raises(SessionError):
            session.set_sample_cell(0, 0, "x")
        with pytest.raises(SessionError):
            session.set_metadata_constraint(0, "DataType=='text'")

    def test_cell_indices_are_validated(self, session):
        configure(session)
        with pytest.raises(SessionError):
            session.set_sample_cell(1, 0, "x")
        with pytest.raises(SessionError):
            session.set_sample_cell(0, 5, "x")
        with pytest.raises(SessionError):
            session.set_metadata_constraint(9, "DataType=='text'")

    def test_metadata_requires_enablement(self, session):
        session.configure("company", num_columns=2, use_metadata=False)
        with pytest.raises(SessionError):
            session.set_metadata_constraint(0, "DataType=='text'")

    def test_build_spec_collects_cells_and_metadata(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_metadata_constraint(1, "DataType=='text'")
        spec = session.build_spec()
        assert spec.num_columns == 2
        assert len(spec.samples) == 1
        assert spec.metadata_for(1) is not None

    def test_blank_rows_and_blank_metadata_are_dropped(self, session):
        session.configure("company", num_columns=2, num_samples=2)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_metadata_constraint(1, "   ")
        spec = session.build_spec()
        assert len(spec.samples) == 1
        assert spec.metadata == {}


class TestSearchAndResults:
    def test_search_produces_results_and_moves_stage(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        result = session.search()
        assert session.stage is SessionStage.RESULT
        assert result.num_queries >= 1
        assert session.result is result
        assert len(session.queries()) == result.num_queries

    def test_search_without_constraints_is_rejected(self, session):
        configure(session)
        with pytest.raises(Exception):
            session.search()

    def test_select_and_sql_and_explain(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        query = session.select_query(0)
        assert session.selected_query is query
        assert session.sql().startswith("SELECT")
        ascii_text = session.explain(fmt="ascii")
        assert "constraints:" in ascii_text
        dot_text = session.explain(fmt="dot")
        assert dot_text.startswith("graph")
        payload = session.explain(fmt="dict")
        assert payload["sql"] == session.sql()

    def test_explain_plan_matches_the_physical_join_order(self, session):
        from repro.query.plan import Join, Scan, Filter as PlanFilter

        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        joined = next(
            i for i, q in enumerate(session.queries()) if q.join_size >= 1
        )
        session.select_query(joined)
        text = session.explain_plan()
        assert "Project[" in text and "Scan(" in text and "rows" in text
        # The rendered join order is exactly the executor's physical
        # order, predicates notwithstanding: displayed plans come from
        # the structural (cost-only) optimization.
        engine = session._engine()
        query = session.selected_query
        displayed = engine.executor.logical_plan(
            query,
            # Any predicate overlay must not perturb the join order.
            [],
        )
        order = engine.executor.planner.join_order(query)
        spine = displayed.child
        edges = []
        while isinstance(spine, Join):
            edges.append(spine.edge)
            spine = spine.left
        edges.reverse()
        assert tuple(edges) == order.edges
        while isinstance(spine, PlanFilter):
            spine = spine.child
        assert isinstance(spine, Scan) and spine.table == order.start_table

    def test_explain_plan_overlays_one_sample_row_only(self, session):
        configure(session, num_samples=2)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(1, 0, "Marketing")
        session.search()
        session.select_query(0)
        first = session.explain_plan()
        assert "Engineering" in first and "Marketing" not in first
        second = session.explain_plan(sample=1)
        assert "Marketing" in second and "Engineering" not in second
        with pytest.raises(SessionError):
            session.explain_plan(sample=5)

    def test_explain_unknown_format_rejected(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        session.select_query(0)
        with pytest.raises(SessionError):
            session.explain(fmt="png")

    def test_result_access_before_search_is_rejected(self, session):
        configure(session)
        with pytest.raises(SessionError):
            session.queries()
        with pytest.raises(SessionError):
            session.select_query(0)

    def test_select_out_of_range_rejected(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        with pytest.raises(SessionError):
            session.select_query(10_000)

    def test_explain_without_selection_requires_index(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        with pytest.raises(SessionError):
            session.explain()
        assert "SELECT" in session.explain(index=0, fmt="ascii")

    def test_reset_returns_to_configuration(self, session):
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        session.reset()
        assert session.stage is SessionStage.CONFIGURATION
        assert session.result is None


class TestStructuredTimeouts:
    def test_engine_timeout_becomes_partial_result(
        self, company_db_session, monkeypatch
    ):
        from repro.discovery.engine import Prism
        from repro.discovery.result import DiscoveryResult, DiscoveryStats
        from repro.errors import DiscoveryTimeout
        from repro.query.pj_query import ProjectJoinQuery
        from repro.dataset.schema import ColumnRef

        session = PrismSession(databases={"company": company_db_session})
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")

        partial_stats = DiscoveryStats(scheduler_name="bayesian")
        partial_stats.validations = 3
        partial = DiscoveryResult(
            queries=[
                ProjectJoinQuery(
                    (ColumnRef("Department", "Name"), ColumnRef("Project", "Title")),
                    (
                        # any valid single edge won't form the full tree, so
                        # keep a 1-table query for simplicity
                    ),
                )
            ],
            stats=partial_stats,
        )

        def raising_discover(self, spec, **kwargs):
            raise DiscoveryTimeout("deadline exceeded", partial)

        monkeypatch.setattr(Prism, "discover", raising_discover)
        result = session.search()
        # The timeout surfaced as a structured result with the partial
        # queries and their stats, not as an exception.
        assert session.stage is SessionStage.RESULT
        assert result.timed_out
        assert result.stats.validations == 3
        assert result.num_queries == 1
        assert session.queries() == result.queries

    def test_timeout_without_partial_result_yields_empty_result(
        self, company_db_session, monkeypatch
    ):
        from repro.discovery.engine import Prism
        from repro.errors import DiscoveryTimeout

        session = PrismSession(databases={"company": company_db_session})
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        monkeypatch.setattr(
            Prism,
            "discover",
            lambda self, spec, **kwargs: (_ for _ in ()).throw(
                DiscoveryTimeout("deadline exceeded")
            ),
        )
        result = session.search()
        assert result.timed_out
        assert result.is_empty

    def test_tiny_time_limit_times_out_structurally(self, company_db_session):
        session = PrismSession(databases={"company": company_db_session})
        session.configure("company", num_columns=2, num_samples=1,
                          time_limit=1e-9)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        result = session.search()
        assert result.timed_out
        assert session.stage is SessionStage.RESULT


class TestArtifactStoreBackedSessions:
    def test_sessions_share_one_preprocessing_pass(self, company_db_session):
        from repro.api import ArtifactStore

        store = ArtifactStore()
        first = PrismSession(
            databases={"company": company_db_session}, artifact_store=store
        )
        second = PrismSession(
            databases={"company": company_db_session}, artifact_store=store
        )
        for session in (first, second):
            configure(session)
            session.set_sample_cell(0, 0, "Engineering")
            session.set_sample_cell(0, 1, "Query Optimizer")
        first_result = first.search()
        second_result = second.search()
        assert store.stats.builds == 1
        assert store.stats.hits >= 1
        assert first_result.sql() == second_result.sql()
        # Both sessions' engines view the very same artifact objects.
        assert first._engine().index is second._engine().index

    def test_store_backed_session_rebuilds_on_data_change(self, company_db):
        from repro.api import ArtifactStore

        store = ArtifactStore()
        session = PrismSession(
            databases={"company": company_db}, artifact_store=store
        )
        configure(session)
        session.set_sample_cell(0, 0, "Engineering")
        session.set_sample_cell(0, 1, "Query Optimizer")
        session.search()
        old_engine = session._engine()
        company_db.table("Employee").insert(
            (7, "Grace Ito", "Research", 99_000.0, 31)
        )
        session.search()
        assert store.stats.builds == 2
        assert session._engine() is not old_engine

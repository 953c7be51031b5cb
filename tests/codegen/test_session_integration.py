"""End-to-end: sessions, engines, specs and the wire codec.

The headline conformance property: the fingerprint of a query answer —
the canonical serialisation used by the server conformance checks — is
byte-identical with codegen on and off, for every engine and worker
count, so ``REPRO_CODEGEN`` can be flipped on a live deployment without
changing a single answer.
"""

from __future__ import annotations

import pytest

from repro.engine.spec import EvalSpec
from repro.errors import QueryValidationError
from repro.server.codec import VOLATILE_STAT_KEYS, fingerprint, spec_payload
from repro.session import connect


def shop(engine="sprout", **kwargs):
    s = connect(engine=engine, **kwargs)
    t = s.table("items", ["name", "cat", "price"])
    t.insert(("inkjet", 1, 99), p=0.5)
    t.insert(("toner", 1, 120), p=0.7)
    t.insert(("apple", 2, 1), p=0.9)
    c = s.table("cats", ["cat_id", "label"])
    c.insert((1, "office"), p=0.6)
    c.insert((2, "food"))
    return s


JOIN = "SELECT name, label FROM items, cats WHERE cat = cat_id"
GROUP = (
    "SELECT label, COUNT(*) AS n FROM items, cats "
    "WHERE cat = cat_id GROUP BY label"
)


class TestFingerprintInvariance:
    @pytest.mark.parametrize("sql", [JOIN, GROUP], ids=["join", "group"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    def test_naive_codegen_invisible(self, sql, workers):
        prints = set()
        for codegen in (True, False):
            result = shop("naive").run(sql, workers=workers, codegen=codegen)
            prints.add(fingerprint(result))
        assert len(prints) == 1

    @pytest.mark.parametrize("sql", [JOIN, GROUP], ids=["join", "group"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
    def test_montecarlo_codegen_invisible(self, sql, workers):
        prints = set()
        for codegen in (True, False):
            result = shop("montecarlo", seed=11).run(
                sql, spec="sample", budget=256, workers=workers, codegen=codegen
            )
            prints.add(fingerprint(result))
        assert len(prints) == 1

    def test_naive_reports_codegen_used(self):
        on = shop("naive").run(JOIN, codegen=True)
        off = shop("naive").run(JOIN, codegen=False)
        assert on.stats["codegen_used"] is True
        assert on.stats["kernels_compiled"] >= 1
        assert off.stats["codegen_used"] is False
        assert off.stats["kernels_compiled"] == 0

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "0")
        result = shop("naive").run(JOIN)
        assert result.stats["codegen_used"] is False
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        again = shop("naive").run(JOIN)
        assert again.stats["codegen_used"] is True
        assert fingerprint(result) == fingerprint(again)


class TestExplainCode:
    def test_code_format_returns_kernel_source(self):
        s = shop()
        source = s.explain(JOIN, format="code")
        assert "# repro.codegen kernel" in source
        assert "statics / CSE temps" in source
        assert "def _kernel(" in source

    def test_plan_format_unchanged(self):
        s = shop()
        assert "== logical plan ==" in s.explain(JOIN)

    def test_unknown_format_rejected(self):
        with pytest.raises(QueryValidationError, match="explain format"):
            shop().explain(JOIN, format="assembly")


class TestSpecPlumbing:
    def test_spec_field_round_trips(self):
        spec = EvalSpec.make("approx", codegen=False)
        assert spec.codegen is False
        assert EvalSpec.from_json(spec.to_json()) == spec

    def test_spec_validates_codegen(self):
        with pytest.raises(QueryValidationError):
            EvalSpec(codegen="yes")

    def test_codegen_is_execution_only(self):
        assert EvalSpec(codegen=True).execution_only
        assert EvalSpec(codegen=False).execution_only
        assert not EvalSpec(mode="approx", codegen=True).execution_only

    def test_spec_payload_carries_codegen(self):
        payload = spec_payload(None, codegen=False)
        assert payload == {"codegen": False}
        assert spec_payload(None) is None

    def test_codec_treats_codegen_stats_as_volatile(self):
        assert {
            "codegen_used",
            "kernels_compiled",
            "kernel_cache_hits",
            "codegen_compile_seconds",
        } <= VOLATILE_STAT_KEYS


class TestPerRunCounters:
    """Each run reports its own kernel compiles, not a concurrent run's."""

    @pytest.mark.parametrize("engine", ["naive", "montecarlo"])
    def test_concurrent_runs_count_only_their_own_compiles(self, engine, monkeypatch):
        import threading

        from repro.codegen import emit

        # Hold each thread's first compile until the other has compiled
        # too, so both compiles fall inside both runs.
        barrier = threading.Barrier(2, timeout=30)
        compiled: dict[int, list] = {}
        record = emit.record_compile

        def record_then_wait(seconds):
            record(seconds)
            own = compiled.setdefault(threading.get_ident(), [])
            own.append(seconds)
            if len(own) == 1:
                barrier.wait()

        monkeypatch.setattr(emit, "record_compile", record_then_wait)
        sessions = [shop(engine, seed=3) for _ in range(2)]
        options = {"spec": "sample", "budget": 64} if engine == "montecarlo" else {}
        results = [None, None]

        def run(index):
            result = sessions[index].run(GROUP, codegen=True, **options)
            results[index] = (threading.get_ident(), result)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for ident, result in results:
            assert result.stats["kernels_compiled"] == len(compiled[ident]) == 1
            assert result.stats["codegen_compile_seconds"] == sum(compiled[ident])
            assert result.stats["kernel_cache_hits"] == 0

"""The frozen snapshot / mutable session split of the engine."""

import pytest

from repro.filters.engine import (
    AdblockEngine,
    EngineSnapshot,
    FrozenEngineError,
)
from repro.filters.filterlist import parse_filter_list
from repro.filters.options import ContentType
from repro.obs import observe

EASYLIST = "||ads.example^\n||track.example^$third-party\n##.banner-ad"
WHITELIST = "@@||ads.example^$domain=friendly.example"


def lists():
    return [parse_filter_list(EASYLIST, name="easylist"),
            parse_filter_list(WHITELIST, name="exceptionrules")]


def check(engine, host="news.example"):
    return engine.check_request("http://ads.example/a.js",
                                ContentType.SCRIPT, host, "ads.example")


class TestFreeze:
    def test_freeze_is_idempotent(self):
        engine = AdblockEngine()
        engine.subscribe(lists()[0])
        assert engine.freeze() is engine.freeze()

    def test_frozen_engine_rejects_subscribe(self):
        engine = AdblockEngine()
        engine.subscribe(lists()[0])
        engine.freeze()
        assert engine.frozen
        with pytest.raises(FrozenEngineError, match="frozen"):
            engine.subscribe(lists()[1])

    def test_frozen_engine_still_answers(self):
        engine = AdblockEngine()
        for fl in lists():
            engine.subscribe(fl)
        before = check(engine)
        engine.freeze()
        assert check(engine).verdict is before.verdict

    def test_snapshot_preserves_epoch_and_counts(self):
        engine = AdblockEngine()
        for fl in lists():
            engine.subscribe(fl)
        snapshot = engine.freeze()
        assert snapshot.epoch == engine.subscription_epoch
        assert snapshot.filter_count == sum(len(fl) for fl in lists())

    def test_identical_lists_compile_to_identical_epoch(self):
        assert EngineSnapshot.build(lists()).epoch == \
            EngineSnapshot.build(lists()).epoch


class TestSessions:
    def test_session_aliases_compiled_structures(self):
        snapshot = EngineSnapshot.build(lists())
        session = snapshot.session()
        assert session._blocking is snapshot.blocking
        assert session._privilege_cache is snapshot._privilege_cache
        assert session.subscription_epoch == snapshot.epoch
        assert session.frozen

    def test_session_rejects_subscribe(self):
        session = EngineSnapshot.build(lists()).session()
        with pytest.raises(FrozenEngineError):
            session.subscribe(parse_filter_list("||x.example^", name="x"))

    def test_sessions_answer_like_the_original_engine(self):
        engine = AdblockEngine()
        for fl in lists():
            engine.subscribe(fl)
        session = EngineSnapshot.build(lists()).session()
        for host in ("news.example", "friendly.example"):
            assert check(session, host).verdict is \
                check(engine, host).verdict

    def test_exploit_engine_answers_like_a_snapshot(self, monkeypatch):
        """``repro exploit`` consults an engine it never froze: the
        first consultation freezes it, and every answer equals a
        snapshot session's over the same lists."""
        import io

        from repro.cli import main
        from repro.sitekey import factoring
        from repro.web.url import parse_url

        real_demo = factoring.run_bypass_demo
        seen = []

        def recording_demo(engine, factored, **kwargs):
            assert not engine.frozen
            demo = real_demo(engine, factored, **kwargs)
            seen.append((engine, factored, demo))
            return demo

        monkeypatch.setattr(factoring, "run_bypass_demo", recording_demo)
        assert main(["exploit", "--bits", "24", "--seed", "3"],
                    out=io.StringIO()) == 0
        [(engine, factored, demo)] = seen
        assert engine.frozen
        snapshot = EngineSnapshot.build(engine.subscriptions)
        assert real_demo(snapshot.session(), factored) == demo
        host = "adversarial-test-site.com"
        for sitekey in (None, demo.sitekey_b64):
            session = snapshot.session()
            assert (engine.document_privileges(f"http://{host}/", host,
                                               sitekey=sitekey)
                    == session.document_privileges(f"http://{host}/",
                                                   host, sitekey=sitekey))
            for url, content_type in factoring._TEST_REQUESTS:
                call = (url, content_type, host, parse_url(url).host)
                assert (engine.check_request(*call, sitekey=sitekey)
                        == session.check_request(*call, sitekey=sitekey))

    def test_recording_is_per_session(self):
        snapshot = EngineSnapshot.build(lists())
        recording = snapshot.session(record=True)
        silent = snapshot.session()
        check(recording)
        check(silent)
        assert len(recording.activations) == 1
        assert len(silent.activations) == 0

    def test_sessions_share_the_privilege_memo(self):
        snapshot = EngineSnapshot.build(lists())
        snapshot.session().document_privileges(
            "http://friendly.example/", "friendly.example")
        assert len(snapshot._privilege_cache) == 1
        snapshot.session().document_privileges(
            "http://friendly.example/", "friendly.example")
        assert len(snapshot._privilege_cache) == 1

    def test_list_name_resolution_survives_freezing(self):
        snapshot = EngineSnapshot.build(lists())
        decision = snapshot.session().check_request(
            "http://ads.example/a.js", ContentType.SCRIPT,
            "news.example", "ads.example")
        assert [snapshot.list_name_for(f) for f in decision.blocking] == \
            ["easylist"]


class TestPrivilegeCacheClears:
    def test_full_cache_wipe_is_counted(self, monkeypatch):
        monkeypatch.setattr(AdblockEngine, "PRIVILEGE_CACHE_MAX", 2)
        with observe() as (registry, _):
            session = EngineSnapshot.build(lists()).session()
            for i in range(4):
                session.document_privileges(
                    f"http://page{i}.example/", f"page{i}.example")
            flat = registry.flat()
        assert flat["filters.engine.privilege_cache_clears"] >= 1

    def test_no_wipe_below_the_cap(self):
        with observe() as (registry, _):
            session = EngineSnapshot.build(lists()).session()
            for i in range(4):
                session.document_privileges(
                    f"http://page{i}.example/", f"page{i}.example")
            flat = registry.flat()
        assert "filters.engine.privilege_cache_clears" not in flat

"""Hot reload: validate-before-swap, rollback, crash, persistence."""

import threading

import pytest

from repro.obs import observe
from repro.serve.reload import (
    ReloadError,
    Reloader,
    SnapshotHolder,
    build_snapshot_from_sources,
    validate_sources,
)
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing
from repro.state.snapshots import SnapshotStore

GOOD = [("easylist", "||ads.example^\n||track.example^")]
BETTER = [("easylist", "||ads.example^\n||track.example^\n||new.example^")]


class TestValidation:
    def test_accepts_good_sources(self):
        validate_sources(GOOD)

    def test_rejects_empty_candidate(self):
        with pytest.raises(ReloadError, match="no filter lists"):
            validate_sources([])

    def test_rejects_empty_name(self):
        with pytest.raises(ReloadError, match="empty name"):
            validate_sources([("", "||a.example^")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ReloadError, match="duplicate"):
            validate_sources([("x", "||a.example^"), ("x", "||b.example^")])

    def test_rejects_list_with_no_active_filters(self):
        with pytest.raises(ReloadError, match="0 active filters"):
            validate_sources([("x", "! only a comment\n")])


class TestParseOnce:
    """Each source list is parsed once per build, on either path."""

    def count_parses(self, monkeypatch):
        import repro.serve.reload as reload_mod
        calls = []
        real = reload_mod.parse_filter_list

        def counting(text, name=""):
            calls.append(name)
            return real(text, name=name)

        monkeypatch.setattr(reload_mod, "parse_filter_list", counting)
        return calls

    def test_fresh_build_parses_each_source_once(self, monkeypatch):
        sources = GOOD + [("whitelist", "@@||good.example^$document")]
        calls = self.count_parses(monkeypatch)
        build_snapshot_from_sources(sources)
        assert calls == ["easylist", "whitelist"]

    def test_store_build_parses_each_source_once(self, tmp_path,
                                                 monkeypatch):
        from repro.serve.reload import persist_snapshot_artifact
        sources = GOOD + [("whitelist", "@@||good.example^$document")]
        store = SnapshotStore(str(tmp_path))
        persist_snapshot_artifact(
            store, build_snapshot_from_sources(sources), sources)
        calls = self.count_parses(monkeypatch)
        with observe() as (registry, _):
            build_snapshot_from_sources(sources, store)
        assert registry.flat()[
            "filters.index.automaton_artifact{event=load_hit}"] == 1
        assert calls == ["easylist", "whitelist"]


class TestSwap:
    def test_swap_advances_epoch_and_generation(self):
        holder = SnapshotHolder.from_sources(GOOD)
        old_epoch = holder.current().epoch
        result = Reloader(holder).reload(BETTER)
        assert result.status == "swapped"
        assert holder.current().epoch > old_epoch
        assert holder.generation == 1
        assert holder.sources() == BETTER

    def test_rejected_reload_keeps_old_snapshot(self):
        holder = SnapshotHolder.from_sources(GOOD)
        before = holder.current()
        result = Reloader(holder).reload([("easylist", "")])
        assert result.status == "rejected"
        assert "0 active filters" in result.error
        assert holder.current() is before
        assert holder.generation == 0

    def test_reload_of_identical_sources_swaps_same_epoch(self):
        """Reloading the same lists is a no-op *in content*: the new

        snapshot compiles to the same subscription epoch, so clients
        comparing epochs see no spurious change.
        """
        holder = SnapshotHolder.from_sources(GOOD)
        epoch = holder.current().epoch
        result = Reloader(holder).reload(GOOD)
        assert result.status == "swapped"
        assert holder.current().epoch == epoch

    def test_concurrent_reload_rejected_as_busy(self):
        holder = SnapshotHolder.from_sources(GOOD)
        reloader = Reloader(holder)
        entered = threading.Event()
        release = threading.Event()
        original = reloader._build

        def slow_build(sources):
            entered.set()
            release.wait(timeout=10.0)
            return original(sources)

        reloader._build = slow_build
        thread = threading.Thread(target=reloader.reload, args=(BETTER,))
        thread.start()
        assert entered.wait(timeout=5.0)
        busy = reloader.reload(GOOD)
        assert busy.status == "rejected"
        assert "already in progress" in busy.error
        release.set()
        thread.join(timeout=10.0)
        assert holder.current().epoch == \
            build_snapshot_from_sources(BETTER).epoch


class TestCrash:
    def test_crashed_build_leaves_holder_untouched_and_reraises(self):
        holder = SnapshotHolder.from_sources(GOOD)
        before = holder.current()
        reloader = Reloader(holder)
        with pytest.raises(SimulatedCrash):
            with crashing(CrashInjector(at_step=1)):
                reloader.reload(BETTER)
        assert holder.current() is before
        state = reloader.state()
        assert state["state"] == "idle"
        assert state["last_reload"]["status"] == "crashed"

    def test_reload_succeeds_after_a_crash(self):
        holder = SnapshotHolder.from_sources(GOOD)
        reloader = Reloader(holder)
        with pytest.raises(SimulatedCrash):
            with crashing(CrashInjector(at_step=1)):
                reloader.reload(BETTER)
        assert reloader.reload(BETTER).status == "swapped"


class TestPersistence:
    def test_swapped_reload_persists_epoch(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        holder = SnapshotHolder.from_sources(GOOD)
        result = Reloader(holder, store=store).reload(BETTER)
        assert store.latest_epoch() == result.epoch
        assert store.load(result.epoch) == BETTER

    def test_rejected_reload_persists_nothing(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        holder = SnapshotHolder.from_sources(GOOD)
        Reloader(holder, store=store).reload([("easylist", "")])
        assert store.epochs() == []

    def test_restart_resumes_last_served_not_highest_epoch(self, tmp_path):
        """A reload to a *smaller* list lowers the epoch counter; the

        store must still resume the smaller (last-served) snapshot, not
        the earlier one that happened to carry more filters.
        """
        store = SnapshotStore(str(tmp_path))
        holder = SnapshotHolder.from_sources(BETTER)
        store.save(holder.current().epoch, BETTER)   # the CLI boot save
        reloader = Reloader(holder, store=store)
        result = reloader.reload(GOOD)
        assert result.status == "swapped"
        assert result.epoch < max(store.epochs())
        epoch, sources = store.load_latest()
        assert epoch == result.epoch
        assert sources == GOOD


class TestMetrics:
    def test_reload_outcomes_counted(self):
        with observe() as (registry, _):
            holder = SnapshotHolder.from_sources(GOOD)
            reloader = Reloader(holder)
            reloader.reload(BETTER)
            reloader.reload([("easylist", "")])
            flat = registry.flat()
        assert flat["serve.reloads{result=swapped}"] == 1
        assert flat["serve.reloads{result=rejected}"] == 1

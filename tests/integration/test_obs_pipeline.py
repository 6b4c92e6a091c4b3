"""End-to-end observability: the survey CLI with and without the flags.

The contract under test (docs/OBSERVABILITY.md): a run *without*
``--metrics-out``/``--trace`` is byte-identical to pre-observability
behaviour; a run *with* them appends the summary table and writes
deterministic JSON-lines files — without changing the survey's own
output (Table 4, crawl health) by a single byte.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs import OBS
from repro.state.atomic import read_jsonl

ARGS = ("survey", "--top", "60", "--stratum", "15", "--fast")


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs")
    metrics_path = tmp / "metrics.jsonl"
    trace_path = tmp / "trace.jsonl"
    plain = run_cli(*ARGS)
    observed = run_cli(*ARGS, "--metrics-out", str(metrics_path),
                       "--trace", str(trace_path))
    return plain, observed, metrics_path, trace_path


class TestByteIdentity:
    def test_headline_and_table4_byte_identical(self, outputs):
        # The survey's own analysis output (headline + Table 4) must
        # not change by a byte when observability is on.  The crawl
        # health table legitimately differs: an enabled registry embeds
        # its metric snapshot there (docs/OBSERVABILITY.md).
        plain, observed, _, _ = outputs
        marker = "Crawl health"
        assert marker in plain and marker in observed
        assert plain.split(marker)[0] == observed.split(marker)[0]

    def test_observed_crawl_health_embeds_metrics(self, outputs):
        plain, observed, _, _ = outputs
        assert "filters.index.probes" in observed
        assert "filters.index.probes" not in plain

    def test_plain_run_mentions_no_observability(self, outputs):
        plain, _, _, _ = outputs
        assert "Observability summary" not in plain
        assert "filters.index" not in plain

    def test_global_state_restored(self, outputs):
        assert OBS.enabled is False


class TestSummaryTable:
    def test_appended_summary_sections(self, outputs):
        _, observed, _, _ = outputs
        assert "Observability summary" in observed
        assert "Where the time went" in observed
        assert "survey.run" in observed
        assert "filters.engine.verdicts{verdict=" in observed


class TestMetricsFile:
    def test_valid_checksummed_jsonl_with_documented_names(self, outputs):
        # read_jsonl verifies the CRC footer and strips it.
        _, _, metrics_path, _ = outputs
        records = read_jsonl(str(metrics_path))
        assert records
        raw_lines = metrics_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(raw_lines[-1])["type"] == "footer"
        assert len(raw_lines) == len(records) + 1
        names = {r["name"] for r in records if r["type"] != "run"}
        for expected in ("filters.parse.lines", "filters.index.probes",
                         "filters.engine.verdicts", "web.crawl.outcomes",
                         "web.crawl.latency_ms",
                         "measurement.survey.targets"):
            assert expected in names, f"missing metric {expected}"

    def test_run_ledger_header_first(self, outputs):
        # The run-ledger header leads both artifacts, with the same
        # derived run ID, so the files correlate without guesswork.
        _, _, metrics_path, trace_path = outputs
        metrics = read_jsonl(str(metrics_path))
        spans = read_jsonl(str(trace_path))
        assert metrics[0]["type"] == "run"
        assert spans[0]["type"] == "run"
        assert metrics[0]["run_id"] == spans[0]["run_id"]
        assert len(metrics[0]["run_id"]) == 16

    def test_metrics_sorted_and_typed(self, outputs):
        _, _, metrics_path, _ = outputs
        records = [r for r in read_jsonl(str(metrics_path))
                   if r["type"] != "run"]
        keys = [(r["name"], r["type"]) for r in records]
        assert keys == sorted(keys)
        assert {r["type"] for r in records} <= {
            "counter", "gauge", "histogram"}

    def test_histogram_buckets_sum_to_count(self, outputs):
        _, _, metrics_path, _ = outputs
        for record in read_jsonl(str(metrics_path)):
            if record["type"] != "histogram":
                continue
            assert record["buckets"][-1]["le"] == "+inf"
            assert sum(b["count"] for b in record["buckets"]) == \
                record["count"]


class TestTraceFile:
    def test_span_tree_shape(self, outputs):
        _, _, _, trace_path = outputs
        spans = [s for s in read_jsonl(str(trace_path))
                 if s["type"] == "span"]
        assert spans[0]["name"] == "survey.run"
        assert spans[0]["depth"] == 0
        names = {s["name"] for s in spans}
        assert {"survey.build_samples", "survey.build_engines",
                "survey.crawl.parallel", "web.crawl.visit"} <= names
        # Depth never jumps by more than one between consecutive spans
        # (start-order + depth is enough to rebuild the tree).
        depths = [s["depth"] for s in spans]
        assert all(b <= a + 1 for a, b in zip(depths, depths[1:]))

    def test_span_ids_link_into_a_tree(self, outputs):
        _, _, _, trace_path = outputs
        spans = [s for s in read_jsonl(str(trace_path))
                 if s["type"] == "span"]
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids)
        assert all(len(i) == 16 for i in ids)
        known = set(ids)
        roots = [s for s in spans if s["parent_id"] == ""]
        assert roots == [spans[0]]
        assert all(s["parent_id"] in known for s in spans
                   if s["parent_id"] != "")

    def test_visit_spans_carry_domain_attrs(self, outputs):
        _, _, _, trace_path = outputs
        visits = [s for s in read_jsonl(str(trace_path))
                  if s["type"] == "span"
                  and s["name"] == "web.crawl.visit"]
        assert visits
        assert all(v["attrs"].get("domain") for v in visits)

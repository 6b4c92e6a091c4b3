"""Ablation: the keyword index against a naive linear scan.

DESIGN.md calls out the keyword-bucketed filter index as the design
choice that keeps the 16,000-visit survey tractable; this benchmark
quantifies it by matching a realistic request mix against the full
EasyList+whitelist filter set both ways.  The indexed side is the
compiled index every engine matches through.
"""

import pytest

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.web.url import parse_url

from benchmarks.conftest import print_block

REQUEST_MIX = [
    ("http://stats.g.doubleclick.net/dc.js", ContentType.SCRIPT),
    ("http://www.googleadservices.com/pagead/conversion.js",
     ContentType.SCRIPT),
    ("http://fonts.gstatic.com/s/roboto/v15/font.woff",
     ContentType.OTHER),
    ("http://static.adzerk.net/ads.html?sr=reddit.com",
     ContentType.SUBDOCUMENT),
    ("http://www.example-page.com/static/app.js", ContentType.SCRIPT),
    ("http://cdn.bannerfarm.net/ad-frame/banner.gif", ContentType.IMAGE),
    ("http://adserv.genericnet.com/slot/somesite.com/unit.js",
     ContentType.SCRIPT),
    ("http://benign-nothing.org/images/logo.png", ContentType.IMAGE),
]


@pytest.fixture(scope="module")
def all_filters(paper_study):
    filters = list(paper_study.whitelist.request_filters)
    from repro.measurement.easylist import build_easylist

    filters.extend(build_easylist().request_filters)
    return filters


def _compiled(filters) -> CompiledFilterIndex:
    return CompiledFilterIndex.compile(FilterIndex(filters))


def _run_indexed(index: CompiledFilterIndex) -> int:
    hits = 0
    for url, content_type in REQUEST_MIX:
        host = parse_url(url).host
        hits += len(index.match_all(url, content_type,
                                    "www.example-page.com", host))
    return hits


def _run_linear(filters) -> int:
    hits = 0
    for url, content_type in REQUEST_MIX:
        host = parse_url(url).host
        hits += sum(
            1 for flt in filters
            if flt.matches(url, content_type, "www.example-page.com",
                           host))
    return hits


def test_ablation_indexed_matching(benchmark, all_filters):
    index = _compiled(all_filters)
    hits = benchmark(_run_indexed, index)
    print_block(f"indexed matching: {hits} filter hits over "
                f"{len(REQUEST_MIX)} requests, "
                f"{len(all_filters):,} filters loaded")
    assert hits > 0


def test_ablation_linear_matching(benchmark, all_filters):
    hits = benchmark.pedantic(_run_linear, args=(all_filters,),
                              rounds=3, iterations=1)
    print_block(f"linear matching: {hits} filter hits (same request mix)")
    assert hits > 0


def test_index_and_linear_agree(all_filters):
    index = _compiled(all_filters)
    assert _run_indexed(index) == _run_linear(all_filters)

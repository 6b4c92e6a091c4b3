"""Seeded differential fuzz: keyed element hiding vs a linear scan.

``AdblockEngine.hidden_elements`` consults an
:class:`~repro.filters.engine.ElementHideIndex`, which tests only the
``##`` filters keyed by an element's id and classes plus the unkeyed
run.  The oracle here is the scan it replaced: every element-hiding
filter in list order, ``applies_on_domain`` then ``selector.matches``,
first match wins.  For random lists (simple, compound, descendant and
child selectors; comma lists mixing keyed and unkeyed members; domain
include and exclude lists; element exceptions) over random DOM trees
(several and repeated classes per element), the hidden list and the
full activation sequence must equal the oracle's, on a frozen engine
and on an unfrozen one.

Everything is derived from one fixed seed, so a failure reproduces
exactly.
"""

import random

from repro.filters.engine import Activation, AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.filters.parser import ElementFilter
from repro.web.dom import Element

FUZZ_SEED = 20151
TRIALS = 300

TAGS = ["div", "span", "img", "a", "iframe"]
IDS = ["ad", "ad_top", "banner", "main", "x1"]
CLASSES = ["ad", "banner-ad", "sponsored", "box", "promo", "slot"]
ATTRS = ["data-ad", "href", "src", "id", "class"]
VALUES = ["ad", "http", "gpt", "x"]
DOMAIN_LISTS = ["", "", "", "example.com", "~sub.example.com",
                "example.com,~a.example.com", "other.org",
                "~other.org", "site.net,example.com"]
PAGE_HOSTS = ["example.com", "sub.example.com", "a.example.com",
              "other.org", "news.site.net", "unrelated.io"]


def _simple(rng: random.Random) -> str:
    kind = rng.choice(["id", "class", "class", "tag", "attr", "universal"])
    if kind == "id":
        return "#" + rng.choice(IDS)
    if kind == "class":
        return "." + rng.choice(CLASSES)
    if kind == "tag":
        return rng.choice(TAGS)
    if kind == "universal":
        return "*"
    return _attr(rng)


def _attr(rng: random.Random) -> str:
    name = rng.choice(ATTRS)
    op = rng.choice(["", "=", "^=", "$=", "*=", "~="])
    if not op:
        return f"[{name}]"
    return f'[{name}{op}"{rng.choice(VALUES)}"]'


def _compound(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return _simple(rng)
    head = rng.choice(TAGS + ["*", ""])
    tail = "".join(
        rng.choice(["#" + rng.choice(IDS), "." + rng.choice(CLASSES),
                    _attr(rng)])
        for _ in range(rng.randint(1, 3)))
    return head + tail


def _complex(rng: random.Random) -> str:
    parts = [_compound(rng)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        parts.append(rng.choice([" ", " > "]))
        parts.append(_compound(rng))
    return "".join(parts)


def _selector_list(rng: random.Random) -> str:
    return ", ".join(_complex(rng) for _ in range(rng.choice([1, 1, 2, 3])))


def _filter_line(rng: random.Random, *, exception: bool) -> str:
    return (rng.choice(DOMAIN_LISTS) + ("#@#" if exception else "##")
            + _selector_list(rng))


def _random_lists(rng: random.Random) -> list:
    lists = []
    for name in ("blocking-a", "blocking-b"):
        lines = [_filter_line(rng, exception=rng.random() < 0.2)
                 for _ in range(rng.randint(0, 12))]
        filter_list = parse_filter_list("\n".join(lines), name=name)
        assert all(isinstance(f, ElementFilter) for f in filter_list.filters)
        lists.append(filter_list)
    return lists


def _random_tree(rng: random.Random) -> Element:
    root = Element(tag="html")
    frontier = [root]
    for _ in range(rng.randint(1, 40)):
        parent = rng.choice(frontier)
        attributes = {}
        if rng.random() < 0.3:
            attributes["id"] = rng.choice(IDS)
        if rng.random() < 0.7:
            # Several classes, repeats and stray whitespace included.
            names = [rng.choice(CLASSES) for _ in range(rng.randint(0, 4))]
            attributes["class"] = rng.choice([" ", "  ", "\t"]).join(names)
        for name in ("data-ad", "href", "src"):
            if rng.random() < 0.2:
                attributes[name] = rng.choice(VALUES) + rng.choice(
                    ["", "-1", "://a"])
        child = parent.new_child(rng.choice(TAGS))
        child.attributes.update(attributes)
        frontier.append(child)
    return root


def _oracle(lists, elements, page_host):
    """The linear scan ``hidden_elements`` used before it was keyed."""
    element_hide = []
    element_exceptions = []
    for filter_list in lists:
        for flt in filter_list.filters:
            target = (element_exceptions if flt.is_exception
                      else element_hide)
            target.append((filter_list.name, flt))
    hidden = []
    activations = []
    active_exceptions = [(name, flt) for name, flt in element_exceptions
                         if flt.applies_on_domain(page_host)]
    for element in elements:
        hider = None
        for name, flt in element_hide:
            if (flt.applies_on_domain(page_host)
                    and flt.selector.matches(element)):
                hider = name, flt
                break
        if hider is None:
            continue
        list_name, flt = hider
        excepted = False
        for exc_name, exc in active_exceptions:
            if exc.selector.matches(element):
                excepted = True
                activations.append(Activation(
                    filter_text=exc.text, list_name=exc_name,
                    page_host=page_host, target=exc.selector_text,
                    kind="element", is_exception=True))
                break
        activations.append(Activation(
            filter_text=flt.text, list_name=list_name,
            page_host=page_host, target=flt.selector_text,
            kind="element", is_exception=False))
        if not excepted:
            hidden.append(element)
    return hidden, activations


def _engine_result(engine, elements, page_host):
    engine.clear_activations()
    hidden = engine.hidden_elements(elements, page_host)
    return hidden, list(engine.activations)


def test_keyed_hiding_equals_linear_scan():
    rng = random.Random(FUZZ_SEED)
    hidden_total = 0
    for _ in range(TRIALS):
        lists = _random_lists(rng)
        frozen = AdblockEngine(record=True)
        unfrozen = AdblockEngine(record=True)
        for filter_list in lists:
            frozen.subscribe(filter_list)
            unfrozen.subscribe(filter_list)
        frozen.freeze()
        elements = list(_random_tree(rng).iter())
        for page_host in rng.sample(PAGE_HOSTS, 3):
            expected_hidden, expected_acts = _oracle(
                lists, elements, page_host)
            for engine in (frozen, unfrozen):
                hidden, acts = _engine_result(engine, elements, page_host)
                assert [id(e) for e in hidden] == \
                    [id(e) for e in expected_hidden]
                assert acts == expected_acts
            hidden_total += len(expected_hidden)
    # The corpus must actually hide things, or equality proves nothing.
    assert hidden_total > TRIALS


def test_unfrozen_engine_reindexes_after_subscribe():
    engine = AdblockEngine(record=True)
    engine.subscribe(parse_filter_list("##.late", name="first"))
    element = Element(tag="div", attributes={"class": "ad"})
    assert engine.hidden_elements([element], "example.com") == []
    engine.subscribe(parse_filter_list("##.ad", name="second"))
    assert engine.hidden_elements([element], "example.com") == [element]

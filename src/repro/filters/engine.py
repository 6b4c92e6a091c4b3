"""The Adblock Plus decision engine: blacklists + the Acceptable Ads whitelist.

This module reproduces the content-blocking semantics the paper measures:

* a *blocking* filter match cancels a web request — unless *any* matching
  exception filter overrides it ("regardless of any blocking filter
  matches", Section 2.1.1);
* a ``$document`` exception matching the page's own URL (or validated via
  a sitekey signature, Section 4.2.3) disables **all** blocking on that
  page — this is the sitekey bypass of Figure 5;
* an ``$elemhide`` exception matching the page URL disables all
  element-hiding filters on that page (the ``@@||ask.com^$elemhide``
  A-filters of Section 7);
* element-hiding filters (``##``) hide DOM elements unless an element
  exception (``#@#``) with a matching selector applies on that domain.

Every filter consultation can be *recorded*: the survey of Section 5 runs
an instrumented engine that logs each activation (filter, source list,
URL, page) — including "needless" whitelist activations where the
exception fired but nothing would have been blocked, a phenomenon the
paper calls out explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.filters.filterlist import FilterList
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import ElementFilter, RequestFilter
from repro.filters.selectors import SelectorList
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.web.dom import Element

__all__ = [
    "Verdict",
    "Activation",
    "RequestDecision",
    "DocumentPrivileges",
    "EngineSnapshot",
    "FrozenEngineError",
    "AdblockEngine",
]


class Verdict(enum.Enum):
    """Outcome of a request consultation."""

    BLOCK = "block"
    ALLOW = "allow"          # an exception filter overrode blocking
    NO_MATCH = "no_match"    # nothing matched; request proceeds


@dataclass(frozen=True, slots=True)
class Activation:
    """One recorded filter activation."""

    filter_text: str
    list_name: str
    page_host: str
    target: str              # request URL, or selector for element filters
    kind: str                # "request" | "element" | "document"
    is_exception: bool
    needless: bool = False   # exception fired with no blocking counterpart


@dataclass(frozen=True, slots=True)
class RequestDecision:
    """Full result of consulting the engine about one request."""

    verdict: Verdict
    blocking: tuple[RequestFilter, ...] = ()
    exceptions: tuple[RequestFilter, ...] = ()

    @property
    def blocked(self) -> bool:
        return self.verdict is Verdict.BLOCK


@dataclass(frozen=True, slots=True)
class DocumentPrivileges:
    """Page-level privileges granted by ``$document``/``$elemhide``.

    ``allow_all`` short-circuits every blocking decision on the page;
    ``disable_elemhide`` turns off element hiding.  ``granted_by`` names
    the filters responsible (they count as activations).
    """

    allow_all: bool = False
    disable_elemhide: bool = False
    granted_by: tuple[RequestFilter, ...] = ()


class FrozenEngineError(RuntimeError):
    """Raised when a frozen engine (or a snapshot session) is mutated."""


def _selector_keys(selector: SelectorList
                   ) -> tuple[tuple[str, str], ...] | None:
    """One ``("id"|"class", value)`` key per member of ``selector``.

    A member matches an element only if its rightmost compound does, so
    the element must carry that compound's ``#id`` or ``.class``.
    ``None`` when some member's rightmost compound has neither (a tag,
    attribute-only or universal selector): nothing narrows it.
    """
    keys = []
    for member in selector.selectors:
        key = next(((part.kind, part.value)
                    for part in member.compounds[-1].parts
                    if part.kind == "id" or part.kind == "class"), None)
        if key is None:
            return None
        keys.append(key)
    return tuple(dict.fromkeys(keys))


class ElementHideIndex:
    """Element-hiding (``##``) filters keyed by the id or class they need.

    Each filter is filed once per member of its selector list, under
    that member's :func:`_selector_keys` key; a filter with any unkeyed
    member goes into ``unkeyed``, the run checked on every element.  An
    element's candidates are ``unkeyed`` plus the filters filed under
    its id and each of its classes, merged by position in ``filters``
    (list order), so the first matching filter wins exactly as in a
    scan of the whole list.

    Built eagerly and never mutated, so one instance is shared by every
    session over a snapshot without a lazily filled memo.
    """

    __slots__ = ("filters", "unkeyed", "by_id", "by_class")

    def __init__(self,
                 element_hide: Iterable[tuple[str, ElementFilter]]) -> None:
        self.filters = tuple(element_hide)
        unkeyed: list[int] = []
        keyed: dict[str, dict[str, list[int]]] = {"id": {}, "class": {}}
        for position, (_, flt) in enumerate(self.filters):
            keys = _selector_keys(flt.selector)
            if keys is None:
                unkeyed.append(position)
                continue
            for kind, value in keys:
                keyed[kind].setdefault(value, []).append(position)
        self.unkeyed = tuple(unkeyed)
        self.by_id = {k: tuple(v) for k, v in keyed["id"].items()}
        self.by_class = {k: tuple(v) for k, v in keyed["class"].items()}

    def candidates(self, element: "Element") -> tuple[int, ...] | list[int]:
        """Positions of the filters that can hide ``element``, ascending."""
        keyed: list[int] = []
        element_id = element.get("id")
        if element_id is not None:
            keyed.extend(self.by_id.get(element_id, ()))
        # The raw attribute, split once: ``Element.classes`` builds a
        # new frozenset on every access.
        class_attr = element.get("class")
        if class_attr:
            by_class = self.by_class
            for name in class_attr.split():
                keyed.extend(by_class.get(name, ()))
        if not keyed:
            return self.unkeyed
        return sorted(set(keyed).union(self.unkeyed))

    def find_hider(self, element: "Element", page_host: str,
                   applies: dict[int, bool]
                   ) -> tuple[str, ElementFilter] | None:
        """The first filter in list order that applies on ``page_host``
        and matches ``element``, or ``None``.

        ``applies`` memoises ``applies_on_domain`` by position; pass one
        dict per page so each filter's domain is decided at most once.
        """
        filters = self.filters
        for position in self.candidates(element):
            entry = filters[position]
            flt = entry[1]
            on_domain = applies.get(position)
            if on_domain is None:
                on_domain = applies[position] = flt.applies_on_domain(
                    page_host)
            if on_domain and flt.selector.matches(element):
                return entry
        return None


class EngineSnapshot:
    """The frozen, shareable compiled form of an engine's subscriptions.

    A snapshot owns everything that is expensive to build and safe to
    share: the compiled request-filter indexes (every engine matches
    through them, sessions and self-frozen engines alike), the element
    filter lists, the filter→list-name map, the subscription epoch, and
    the long-lived page-privilege memo.  It is immutable by contract —
    no method on it (or on any session over it) adds or removes filters
    — which is what makes one snapshot safely shareable between every
    request thread of a serving daemon, and buildable off-thread while
    an old snapshot keeps serving (:mod:`repro.serve`).  Three memos
    fill lazily under that sharing: inside a compiled index, a keyword
    bucket's required-token runs and a single-hit ``candidates()``
    tuple, each stored with one dict assignment under the GIL; and each
    filter's :class:`~repro.filters.pattern.CompiledPattern`, which
    translates and compiles its regex on first match and stores it with
    one attribute assignment.  All three are pure functions of immutable
    inputs, so two threads that race on one key build equal values and
    one store wins; the duplicate build is harmless.  The element-hiding
    index (:class:`ElementHideIndex`) is built here, eagerly, by every
    path that constructs a snapshot, so it has no lazy fill at all.

    Sessions are the thin mutable layer: :meth:`session` returns an
    :class:`AdblockEngine` that aliases the compiled structures but has
    its own ``recording`` flag and activation log.

    >>> from repro.filters.filterlist import parse_filter_list
    >>> snap = EngineSnapshot.build([parse_filter_list("||ads.example^",
    ...                                                name="demo")])
    >>> session = snap.session()
    >>> session.check_request("http://ads.example/x", ContentType.SCRIPT,
    ...                       "example.com", "ads.example").blocked
    True
    >>> session.subscribe(parse_filter_list("||more.example^", name="m"))
    Traceback (most recent call last):
        ...
    repro.filters.engine.FrozenEngineError: engine is frozen: build a new EngineSnapshot instead of subscribing
    """

    __slots__ = ("blocking", "exceptions", "element_hide",
                 "element_index", "element_exceptions", "lists", "epoch",
                 "_list_of_filter", "_privilege_cache")

    def __init__(self, *, blocking, exceptions,
                 element_hide: list[tuple[str, ElementFilter]],
                 element_exceptions: list[tuple[str, ElementFilter]],
                 lists: tuple[FilterList, ...],
                 list_of_filter: dict[int, str],
                 epoch: int) -> None:
        self.blocking = blocking
        self.exceptions = exceptions
        self.element_hide = element_hide
        self.element_index = ElementHideIndex(element_hide)
        self.element_exceptions = element_exceptions
        self.lists = lists
        self.epoch = epoch
        self._list_of_filter = list_of_filter
        # Shared across every session: privilege answers are a pure
        # function of (epoch, page_url, page_host, sitekey), so one
        # session's miss is every session's hit.
        self._privilege_cache: dict[
            tuple, tuple[bool, bool, tuple[RequestFilter, ...]]] = {}

    @classmethod
    def build(cls, filter_lists: Iterable[FilterList]) -> "EngineSnapshot":
        """Compile ``filter_lists`` into a frozen snapshot.

        This is the off-thread entry point the serving daemon's
        hot-reload uses: building touches nothing shared, so it can run
        in the background while an older snapshot keeps serving.
        """
        engine = AdblockEngine()
        for filter_list in filter_lists:
            engine.subscribe(filter_list)
        return engine.freeze()

    def list_name_for(self, flt: RequestFilter | ElementFilter) -> str:
        return self._list_of_filter.get(id(flt), "?")

    @property
    def filter_count(self) -> int:
        """Total active filters compiled into this snapshot."""
        return sum(len(fl) for fl in self.lists)

    def compiled_stats(self) -> dict[str, dict[str, int]]:
        """Per-index size figures (reported by ``/healthz``)."""
        return {"blocking": self.blocking.stats(),
                "exceptions": self.exceptions.stats()}

    def session(self, record: bool = False) -> "AdblockEngine":
        """A thin mutable consultation layer over this snapshot."""
        return AdblockEngine(record=record, snapshot=self)


class AdblockEngine:
    """ABP configured with blocking lists and exception (whitelist) lists.

    The default configuration the paper studies is::

        engine = AdblockEngine()
        engine.subscribe(easylist)          # blocking
        engine.subscribe(acceptable_ads)    # the whitelist

    Each list contributes its blocking filters, exception filters, and
    element filters; the engine resolves interactions between them.

    The engine is split into two layers.  The *compiled* layer —
    indices, element filters, list map, epoch, privilege memo — is
    frozen into an :class:`EngineSnapshot` by :meth:`freeze`, or by the
    engine's first consultation, and shared between sessions;
    ``AdblockEngine(snapshot=snap)`` (or ``snap.session()``) builds a
    new session over an existing snapshot without recompiling anything.
    The *session* layer is what remains mutable: the ``recording`` flag
    and the activation log.  A frozen engine (and every snapshot
    session) rejects :meth:`subscribe` with :class:`FrozenEngineError`
    — subscribe every list before the first consultation; subscription
    changes require building a fresh snapshot, which is exactly the
    atomic-swap discipline the serving daemon's hot-reload relies on.

    >>> from repro.filters.filterlist import parse_filter_list
    >>> engine = AdblockEngine()
    >>> engine.subscribe(parse_filter_list("||ads.example^", name="demo"))
    >>> engine.check_request("http://ads.example/x", ContentType.SCRIPT,
    ...                      "example.com", "ads.example").blocked
    True
    >>> engine.frozen
    True
    """

    #: Upper bound on memoised page-privilege entries; the cache is
    #: cleared (not evicted) when full, which keeps the bookkeeping off
    #: the hot path.  A survey visits each domain once, so in practice
    #: the cap is never reached — but a long-lived serving daemon can
    #: reach it, so every wipe is counted under
    #: ``filters.engine.privilege_cache_clears``.
    PRIVILEGE_CACHE_MAX = 4096

    def __init__(self, record: bool = False, *,
                 snapshot: EngineSnapshot | None = None) -> None:
        if snapshot is None:
            # The build structures, until freeze() compiles them.
            self._blocking = FilterIndex()
            self._exceptions = FilterIndex()
            self._element_hide: list[tuple[str, ElementFilter]] = []
            self._element_exceptions: list[tuple[str, ElementFilter]] = []
            self._list_of_filter: dict[int, str] = {}
            self._lists: list[FilterList] = []
            # Advances on every filter added; the snapshot keys its
            # privilege memo on it.
            self._subscription_epoch = 0
            self._snapshot: EngineSnapshot | None = None
        else:
            self._adopt(snapshot)
        self.recording = record
        self.activations: list[Activation] = []

    def _adopt(self, snapshot: EngineSnapshot) -> None:
        """Alias ``snapshot``'s compiled structures (no copies — that is
        the point) and share its privilege memo."""
        self._blocking = snapshot.blocking
        self._exceptions = snapshot.exceptions
        self._element_hide = snapshot.element_hide
        self._element_index = snapshot.element_index
        self._element_exceptions = snapshot.element_exceptions
        self._list_of_filter = snapshot._list_of_filter
        self._lists = list(snapshot.lists)
        self._subscription_epoch = snapshot.epoch
        self._privilege_cache = snapshot._privilege_cache
        self._snapshot = snapshot

    # -- subscription management -------------------------------------

    @property
    def frozen(self) -> bool:
        """True once the compiled layer is sealed (snapshot exists)."""
        return self._snapshot is not None

    def freeze(self) -> EngineSnapshot:
        """Seal the compiled layer and return it as a shareable snapshot.

        Freezing is idempotent — repeated calls return the same
        snapshot — and happens by itself on the engine's first
        consultation (:meth:`document_privileges`,
        :meth:`check_request`, :meth:`hidden_elements` or
        :meth:`should_send_dnt`).  After freezing, :meth:`subscribe`
        raises :class:`FrozenEngineError`; the engine itself keeps
        working as a session over its own snapshot.

        Freezing is where the keyword indexes are *compiled*: the
        mutable :class:`FilterIndex` pair becomes a pair of read-only
        :class:`~repro.filters.compiled.index.CompiledFilterIndex`
        (keyword set + bucket tuples), the only form any engine matches
        through.  Candidate ordering is preserved byte-for-byte.
        """
        if self._snapshot is None:
            # Imported here, not at module level: the compiled package's
            # artifact module imports EngineSnapshot from this module.
            from repro.filters.compiled.index import CompiledFilterIndex
            self._adopt(EngineSnapshot(
                blocking=CompiledFilterIndex.compile(
                    self._blocking, name="blocking"),
                exceptions=CompiledFilterIndex.compile(
                    self._exceptions, name="exceptions"),
                element_hide=self._element_hide,
                element_exceptions=self._element_exceptions,
                lists=tuple(self._lists),
                list_of_filter=self._list_of_filter,
                epoch=self._subscription_epoch,
            ))
        return self._snapshot

    def subscribe(self, filter_list: FilterList) -> None:
        """Add every filter of ``filter_list`` to the engine."""
        if self._snapshot is not None:
            raise FrozenEngineError(
                "engine is frozen: build a new EngineSnapshot instead "
                "of subscribing")
        self._lists.append(filter_list)
        name = filter_list.name
        for flt in filter_list.filters:
            self._add_filter(flt, name)

    def _add_filter(self, flt: RequestFilter | ElementFilter,
                    list_name: str) -> None:
        self._subscription_epoch += 1
        self._list_of_filter[id(flt)] = list_name
        if isinstance(flt, RequestFilter):
            if flt.is_exception:
                self._exceptions.add(flt)
            else:
                self._blocking.add(flt)
        else:
            if flt.is_exception:
                self._element_exceptions.append((list_name, flt))
            else:
                self._element_hide.append((list_name, flt))

    @property
    def subscriptions(self) -> tuple[FilterList, ...]:
        return tuple(self._lists)

    @property
    def subscription_epoch(self) -> int:
        """The compiled state's version: advances on every filter added."""
        return self._subscription_epoch

    def list_name_for(self, flt: RequestFilter | ElementFilter) -> str:
        return self._list_of_filter.get(id(flt), "?")

    # -- recording -----------------------------------------------------

    def clear_activations(self) -> None:
        self.activations.clear()

    def _record(self, activation: Activation) -> None:
        if self.recording:
            self.activations.append(activation)

    # -- document-level privileges --------------------------------------

    def document_privileges(
        self, page_url: str, page_host: str, *, sitekey: str | None = None
    ) -> DocumentPrivileges:
        """Privileges the page itself gets from ``$document``/``$elemhide``.

        ``sitekey`` is the (already signature-verified) public key the
        server presented, if any; sitekey exception filters only activate
        when it matches one of their keys.

        The two exception-index scans are memoised in the snapshot per
        ``(subscription epoch, page_url, page_host, sitekey)`` — the
        crawler re-derives the same page's privileges for every request
        on it, and the answer cannot change unless the subscriptions
        do.  Activations are *not* cached: every call records the
        granted filters exactly as an uncached scan would.
        """
        if self._snapshot is None:
            self.freeze()
        cache_key = (self._subscription_epoch, page_url, page_host, sitekey)
        cached = self._privilege_cache.get(cache_key)
        if cached is None:
            allow_all = False
            disable_elemhide = False
            granted_list: list[RequestFilter] = []
            for flt in self._exceptions.match_all(
                page_url, ContentType.DOCUMENT, page_host, page_host,
                sitekey=sitekey,
            ):
                allow_all = True
                granted_list.append(flt)
            for flt in self._exceptions.match_all(
                page_url, ContentType.ELEMHIDE, page_host, page_host,
                sitekey=sitekey,
            ):
                disable_elemhide = True
                if flt not in granted_list:
                    granted_list.append(flt)
            granted = tuple(granted_list)
            if len(self._privilege_cache) >= self.PRIVILEGE_CACHE_MAX:
                # A full wipe (not an eviction) — cheap, but it resets
                # hit rates for *every* page, which matters once a
                # long-lived daemon shares this memo across requests.
                # Never silent: each wipe is counted.
                self._privilege_cache.clear()
                if OBS.enabled:
                    OBS.registry.counter(
                        "filters.engine.privilege_cache_clears").inc()
            self._privilege_cache[cache_key] = (allow_all, disable_elemhide,
                                                granted)
        else:
            allow_all, disable_elemhide, granted = cached
            if OBS.enabled:
                OBS.registry.counter(
                    "filters.engine.privilege_cache_hits").inc()
        for flt in granted:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=page_url,
                kind="document",
                is_exception=True,
            ))
        if OBS.enabled:
            OBS.registry.counter("filters.engine.document_checks").inc()
            if granted:
                OBS.registry.counter(
                    "filters.engine.privileges_granted").inc(len(granted))
        return DocumentPrivileges(
            allow_all=allow_all,
            disable_elemhide=disable_elemhide,
            granted_by=granted,
        )

    # -- request decisions ----------------------------------------------

    def check_request(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
        sitekey: str | None = None,
    ) -> RequestDecision:
        """Decide one request; records all activations when instrumented."""
        if self._snapshot is None:
            self.freeze()
        if privileges is not None and privileges.allow_all:
            if OBS.enabled:
                OBS.registry.counter("filters.engine.verdicts",
                                     verdict="allow",
                                     via="document-privilege").inc()
            return RequestDecision(verdict=Verdict.ALLOW)

        # ``$donottrack`` filters only steer the DNT header (see
        # :meth:`should_send_dnt`); they never block or allow content.
        blocking = tuple(
            flt for flt in self._blocking.match_all(
                url, content_type, page_host, request_host)
            if not flt.options.donottrack)
        exceptions = tuple(
            flt for flt in self._exceptions.match_all(
                url, content_type, page_host, request_host,
                sitekey=sitekey)
            if not flt.options.donottrack)

        for flt in blocking:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=url,
                kind="request",
                is_exception=False,
            ))
        for flt in exceptions:
            self._record(Activation(
                filter_text=flt.text,
                list_name=self.list_name_for(flt),
                page_host=page_host,
                target=url,
                kind="request",
                is_exception=True,
                needless=not blocking,
            ))

        if exceptions:
            verdict = Verdict.ALLOW
        elif blocking:
            verdict = Verdict.BLOCK
        else:
            verdict = Verdict.NO_MATCH
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("filters.engine.verdicts",
                        verdict=verdict.value, via="match").inc()
            if exceptions and not blocking:
                # The paper's "needless activations": the whitelist fired
                # with nothing to override.
                reg.counter("filters.engine.needless_activations").inc(
                    len(exceptions))
        if verdict is Verdict.NO_MATCH:
            return RequestDecision(Verdict.NO_MATCH)
        return RequestDecision(verdict, blocking, exceptions)

    # -- element hiding ---------------------------------------------------

    def hidden_elements(
        self,
        elements: Iterable["Element"],
        page_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
    ) -> list["Element"]:
        """Which of ``elements`` get hidden on a page at ``page_host``.

        An element is hidden when some element-hiding filter applies on
        the domain and matches it, and no element exception (with a
        selector that also matches it) applies on the domain.
        """
        if self._snapshot is None:
            self.freeze()
        if privileges is not None and (
                privileges.allow_all or privileges.disable_elemhide):
            return []
        index = self._element_index
        applies: dict[int, bool] = {}
        hidden: list["Element"] = []
        active_exceptions = [
            (name, flt) for name, flt in self._element_exceptions
            if flt.applies_on_domain(page_host)
        ]
        for element in elements:
            hider = index.find_hider(element, page_host, applies)
            if hider is None:
                continue
            list_name, flt = hider
            excepted = False
            for exc_name, exc in active_exceptions:
                if exc.selector.matches(element):
                    excepted = True
                    self._record(Activation(
                        filter_text=exc.text,
                        list_name=exc_name,
                        page_host=page_host,
                        target=exc.selector_text,
                        kind="element",
                        is_exception=True,
                    ))
                    break
            self._record(Activation(
                filter_text=flt.text,
                list_name=list_name,
                page_host=page_host,
                target=flt.selector_text,
                kind="element",
                is_exception=False,
            ))
            if not excepted:
                hidden.append(element)
        return hidden

    def elemhide_stylesheet(
        self,
        page_host: str,
        *,
        privileges: DocumentPrivileges | None = None,
    ) -> str:
        """The CSS a real ABP would inject on a page at ``page_host``.

        Every element-hiding selector applicable on the domain (and not
        cancelled by an identical-selector element exception) collapses
        to ``display: none !important`` — the extension's actual hiding
        mechanism.  Pages holding ``$elemhide``/``$document`` privileges
        get an empty stylesheet.
        """
        if privileges is not None and (
                privileges.allow_all or privileges.disable_elemhide):
            return ""
        excepted = {
            flt.selector_text
            for _, flt in self._element_exceptions
            if flt.applies_on_domain(page_host)
        }
        selectors = []
        seen: set[str] = set()
        for _, flt in self._element_hide:
            if not flt.applies_on_domain(page_host):
                continue
            text = flt.selector_text
            if text in excepted or text in seen:
                continue
            seen.add(text)
            selectors.append(text)
        if not selectors:
            return ""
        return (",\n".join(selectors)
                + " { display: none !important; }")

    # -- Do-Not-Track (the $donottrack option) ---------------------------

    def should_send_dnt(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
    ) -> bool:
        """Should a DNT header accompany this request?

        Appendix A.4: a matching ``$donottrack`` filter asks the browser
        to send ``DNT: 1``, "as long as there is no matching exception
        rule with a donottrack option on the same page."
        """
        if self._snapshot is None:
            self.freeze()
        call = (url, content_type, page_host, request_host)
        return (any(flt.options.donottrack
                    for flt in self._blocking.match_all(*call))
                and not any(flt.options.donottrack
                            for flt in self._exceptions.match_all(*call)))

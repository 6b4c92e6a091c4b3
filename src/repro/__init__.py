"""repro — a reproduction of *Measuring the Impact and Perception of
Acceptable Advertisements* (IMC 2015).

The package rebuilds the paper's entire apparatus in pure Python: an
Adblock Plus filter engine, a synthetic web and instrumented browser,
the whitelist's 989-revision history, the sitekey cryptography and
parked-domain scan, the Alexa site survey, and the Mechanical Turk
perception study.

Quick start::

    from repro import AcceptableAdsStudy
    study = AcceptableAdsStudy()
    for row in study.table1():
        print(row.year, row.filters_added, row.filters_removed)

Every package re-exports the public names of its modules
(``from repro.filters import AdblockEngine`` works as well as
``from repro.filters.engine import AdblockEngine``), and resolves each
one on first access through :func:`_lazy_exports`.  Importing a package
(``repro.obs``, which serving uses whole, excepted) therefore imports
none of its modules, and a command imports only the
modules it runs: a ``repro serve`` boot loads fewer than half the
modules it loaded when the re-exports were eager ``from … import``
blocks (docs/SERVING.md, "Cold start").
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                  ) -> tuple[list[str], Callable[[str], object],
                             Callable[[], list[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule, relative to ``package`` (as in
    ``".engine"``), to the public names it defines.  The returned
    functions are the package's module-level ``__getattr__`` and
    ``__dir__`` (PEP 562).  The first access to a name imports the one
    submodule that defines it and stores the value in the package's
    namespace, so every later lookup is a plain attribute hit that never
    reaches ``__getattr__`` again.  Attribute access,
    ``from package import name`` and ``from package import *`` all
    reach ``__getattr__``.  A package uses it as::

        __all__, __getattr__, __dir__ = _lazy_exports(__name__, {
            ".engine": ("AdblockEngine", "EngineSnapshot"),
        })

    It lives here, not in a module of its own, because every package
    import runs this file anyway.
    """
    exported = [name for names in exports.values() for name in names]
    where = {name: package + module
             for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the
        # former is reported by ``python -X importtime``.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return exported, __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".core.study": ("AcceptableAdsStudy", "StudyConfig"),
})
__all__.append("__version__")

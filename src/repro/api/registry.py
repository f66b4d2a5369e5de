"""String-keyed registries for partial orders and clock data structures.

These registries are the single source of truth behind every textual
configuration surface — ``parse_spec("hb+tc+detect")``, the CLI
``--order`` / ``--clock`` / ``--spec`` flags and the experiment
runners.  They are seeded from the built-in HB/SHB/MAZ analyses and the
VC/TC clocks, and they are *open*: call :func:`register_order` or
:func:`register_clock` to plug in a new partial order or clock class and
it immediately becomes addressable from every consumer, including
``repro analyze --spec``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..analysis.hb import HBAnalysis
from ..analysis.maz import MAZAnalysis
from ..analysis.shb import SHBAnalysis
from ..clocks.tree_clock import TreeClock
from ..clocks.vector_clock import VectorClock


class Registry:
    """A case-insensitive name → class registry with aliases.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered ("partial
        order", "clock"), used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._classes: Dict[str, type] = {}
        self._aliases: Dict[str, str] = {}

    def register(
        self, name: str, cls: type, *, aliases: Iterable[str] = (), overwrite: bool = False
    ) -> type:
        """Register ``cls`` under canonical ``name`` (plus ``aliases``).

        Returns ``cls`` so the call can be used as a decorator helper.
        Re-registering an existing name raises unless ``overwrite`` is
        true or the class is identical (idempotent re-registration).
        """
        canonical = name.upper()
        existing = self._classes.get(canonical)
        if existing is not None and existing is not cls and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered to {existing.__name__}; "
                "pass overwrite=True to replace it"
            )
        self._classes[canonical] = cls
        self._aliases[canonical] = canonical
        for alias in aliases:
            self._aliases[alias.upper()] = canonical
        return cls

    def canonical(self, name: str) -> str:
        """Resolve a name or alias (case-insensitive) to its canonical form."""
        canonical = self._aliases.get(name.upper())
        if canonical is None:
            raise ValueError(
                f"unknown {self.kind} {name!r}; expected one of {self.names()}"
            )
        return canonical

    def get(self, name: str) -> type:
        """The class registered under ``name`` (or one of its aliases)."""
        return self._classes[self.canonical(name)]

    def names(self) -> List[str]:
        """Sorted canonical names."""
        return sorted(self._classes)

    def items(self) -> List[Tuple[str, type]]:
        """(canonical name, class) pairs, sorted by name."""
        return sorted(self._classes.items())

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._aliases

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


#: The partial-order registry, seeded with the paper's three analyses.
ORDERS = Registry("partial order")
ORDERS.register("HB", HBAnalysis, aliases=("happens-before",))
ORDERS.register("SHB", SHBAnalysis, aliases=("schedulable-hb",))
ORDERS.register("MAZ", MAZAnalysis, aliases=("mazurkiewicz",))

#: The clock registry, seeded with the paper's two data structures.
CLOCKS = Registry("clock")
CLOCKS.register("TC", TreeClock, aliases=("tree", "treeclock"))
CLOCKS.register("VC", VectorClock, aliases=("vector", "vectorclock"))


def register_order(name: str, cls: type, *, aliases: Iterable[str] = ()) -> type:
    """Register a new partial-order analysis class under ``name``.

    ``cls`` must be constructible like
    :class:`~repro.analysis.engine.PartialOrderAnalysis` — positional
    ``clock_class`` plus the keyword arguments ``capture_timestamps``,
    ``count_work``, ``detect``, ``keep_races``, ``on_race`` and
    ``locate`` — and drive the same ``begin()/feed()/finish()`` protocol.
    Subclassing ``PartialOrderAnalysis`` (as the deep-copy ablations do)
    gives all of this for free and is the intended extension path;
    :meth:`AnalysisSpec.build <repro.api.spec.AnalysisSpec.build>`
    instantiates registered classes with exactly that signature.
    """
    return ORDERS.register(name, cls, aliases=aliases)


def register_clock(name: str, cls: type, *, aliases: Iterable[str] = ()) -> type:
    """Register a new clock data structure class under ``name``."""
    return CLOCKS.register(name, cls, aliases=aliases)


def order_class(name: str) -> type:
    """Resolve a partial-order name (e.g. ``"hb"``) to its analysis class."""
    return ORDERS.get(name)


def clock_class(name: str) -> type:
    """Resolve a clock name (e.g. ``"tc"``) to its clock class."""
    return CLOCKS.get(name)

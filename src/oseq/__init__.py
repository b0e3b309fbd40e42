"""Exact counting, validation, and bound checking for O-sequences.

The package exports every public name of its library modules; each module's
``__all__`` is the one list of them. Importing the package loads none of
them: a submodule, ``cli`` included, loads alone when it is first imported
(``from oseq import cli`` too) or read as ``oseq.<module>``, and the first
read of any other name (``oseq.HVector``, ``oseq.__all__``, ``from oseq
import *``, ``dir(oseq)``) loads all five library modules and binds their
public names here. So ``python -m oseq.cli`` and the scripts load only the
modules they use. No module imports ``typing``, which imports ``re`` on
Python 3.10 to 3.12: the result records are ``collections.namedtuple``
subclasses with their fields annotated, and names that only annotations use
are imported under ``TYPE_CHECKING``.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("bounds", "census", "errors", "macaulay", "partitions")


def __getattr__(name: str):
    # ``from oseq import cli`` asks for the attribute before it imports the submodule.
    if name in _MODULES or name == "cli":
        return import_module(f"{__name__}.{name}")
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("__")):
        names: list[str] = []
        for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
            globals().update((public, getattr(module, public)) for public in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})

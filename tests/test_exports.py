"""The public surface: every exported name exists."""

from __future__ import annotations

import importlib
import pkgutil

import oseq


def test_every_exported_name_resolves():
    modules = [oseq] + [
        importlib.import_module(f"oseq.{info.name}") for info in pkgutil.iter_modules(oseq.__path__)
    ]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    with_all = {m.__name__ for m, _ in exported}
    assert with_all >= {"oseq", "oseq.bounds", "oseq.census", "oseq.macaulay", "oseq.partitions"}
    missing = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert missing == []

"""Paths the tests share."""

from __future__ import annotations

from importlib import resources


def builtin_table1_path() -> str:
    """Path to the shipped per-emitter results table."""
    return str(resources.files("phasemirror.data") / "table1.csv")

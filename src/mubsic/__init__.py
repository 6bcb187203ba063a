"""Unbiased operator frames, equal-overlap measurement families, and dual
affine plane geometry in prime dimensions.  Each layer loads on first access."""

import importlib


def __getattr__(name):
    if name in ("cli", "linalg", "weyl", "plane", "frames", "siclab"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

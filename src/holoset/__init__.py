"""Holonomy sets of translation surfaces and Delone-property diagnostics.

The package builds exact sets of saddle-connection holonomy vectors for
square-tiled surfaces (permutation data) and for a branched double cover
of the torus with irrational branch shift, checks uniform-discreteness
and relative-density properties, constructs arbitrarily large holes in
gcd-filtered lattice sets via CRT certificates, and produces arbitrarily
close holonomy pairs from parallel cylinder twists.
"""

from __future__ import annotations

from .exact import (
    FieldMismatchError,
    ParseError,
    PlanarPoint,
    PointSet,
    QuadExt,
    RadicalSum,
    format_quadext,
    parse_quadext,
    point,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMismatchError",
    "ParseError",
    "PlanarPoint",
    "PointSet",
    "QuadExt",
    "RadicalSum",
    "format_quadext",
    "parse_quadext",
    "point",
    "__version__",
]

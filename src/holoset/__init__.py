"""Holonomy sets of translation surfaces and Delone-property diagnostics.

The package builds exact sets of saddle-connection holonomy vectors for
square-tiled surfaces (permutation data) and for a branched double cover
of the torus with irrational branch shift, checks uniform-discreteness
and relative-density properties, constructs arbitrarily large holes in
gcd-filtered lattice sets via CRT certificates, and produces arbitrarily
close holonomy pairs from parallel cylinder twists.
"""

__version__ = "0.1.0"

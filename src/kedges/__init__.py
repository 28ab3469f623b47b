"""Exact-arithmetic toolkit for k-edges, halving lines, and rectilinear
crossing numbers of planar point sets, built on circular/allowable
sequences, together with the bound pipelines and extremal constructions
that go with them."""

__version__ = "0.1.0"

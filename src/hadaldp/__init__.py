"""Locally private frequency estimation and heavy hitters over huge domains.

Clients randomize a single Hadamard-matrix entry of their (hashed) value;
the server accumulates the +-1 reports, runs a fast Walsh-Hadamard
transform, and reads off debiased frequency estimates.  On top of the
single-round oracle sits a prefix-tree search that surfaces heavy hitters
from domains as large as 2^61 while every user talks to the server twice
at half the privacy budget.
"""

__version__ = "0.1.0"

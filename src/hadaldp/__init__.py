"""Locally private frequency estimation and heavy hitters over huge domains.

Clients randomize a single Hadamard-matrix entry of their (hashed) value;
the server accumulates the +-1 reports, runs a fast Walsh-Hadamard
transform, and reads off debiased frequency estimates.  On top of the
single-round oracle sits a prefix-tree search that surfaces heavy hitters
from domains as large as 2^61 while every user talks to the server twice
at half the privacy budget.
"""

from .hadamard import entry, fht, hadamard_matrix, naive_multiply
from .hashing import P61, PairwiseHash, sample_hash
from .randomizer import (PrivacyBudget, debias_factor, keep_probability,
                         randomize, round_streams)
from .partition import Partition, independent_partition, permutation_partition
from .hrr import HrrState, build as hrr_build, query as hrr_query, query_direct as hrr_query_direct
from .freq_oracle import (OracleParams, OracleState, PROFILES, construct,
                          hash_range_for, query, query_many, repetitions_for,
                          row_estimates, theoretical_error_bound)
from .prefixes import PrefixCode, children_of, encode_prefix, encode_prefix_batch, make_code
from .heavy_hitters import (FrontierOverflow, HeavyParams, SuccinctHistogram,
                            lambda_threshold, level_noise_sigma, run as heavy_run,
                            search_with_oracle)
from .datasets import (Dataset, exact_counts, exact_frequency,
                       exact_heavy_hitters, gen_planted, gen_zipf,
                       load_dataset, save_dataset)

__version__ = "0.1.0"

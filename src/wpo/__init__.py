"""Order theory of lower sets of N^m, with a verifiable ordinal toolkit.

The pieces: exact ordinal arithmetic in Cantor normal form below
epsilon_0 (ordinal), lower sets as box unions, a finite one also as
the closure of its generators (lowerset), monomial ideals as their
complements (monomial), ordinal ranking of finite lower sets
(linearize), long bad sequences driven by fundamental-sequence descent
(badseq), and brute-force cross-checks for all of it (oracles).
"""

__version__ = "0.1.0"

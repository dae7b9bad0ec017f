"""Exact combinatorics engine for chromatic symmetric functions of Dyck
paths, linked rook placements, and Hall-Littlewood expansions.

Everything is computed over the integers: coefficients live in a Laurent
polynomial ring in one variable q, partitions and Dyck paths are plain
integer tuples, and every identity checked by :mod:`rookhl.verify` is an
exact equality of such polynomials.

Each name is imported from the module that defines it, as in
``from rookhl.symfunc import SymFunc``.  ``import rookhl`` loads none of
those modules, so a command line query that never checks an identity
never compiles verify.
"""

# The identities verify checks, here so that the command line can offer
# them without loading verify.
IDENTITIES = ("main", "modular", "mult", "llt", "principal")

"""Exact combinatorics engine for chromatic symmetric functions of Dyck
paths, linked rook placements, and Hall-Littlewood expansions.

Everything is computed over the integers: coefficients live in a Laurent
polynomial ring in one variable q, partitions and Dyck paths are plain
integer tuples, and every identity checked by :mod:`rookhl.verify` is an
exact equality of such polynomials.
"""

from rookhl.qseries import (
    QLaurent, ZERO, ONE, Q, from_int, q_power, pack, pack_signed,
    unpack, unpack_signed,
    q_int, q_factorial, q_binomial, q_falling,
)
from rookhl.partitions import (
    is_partition, check_partition, enumerate_partitions, conjugate,
    nstat, multiplicities, parse_partition, format_partition,
)
from rookhl.dyck import (
    from_heights, parse_heights, format_heights, enumerate_dyck,
    area, area_sequence, reflect, concat, complete_path,
    ModularTriple, modular_triples,
)
from rookhl.rook import (
    placements, placement_type, RankTables, rank_tables, free_cells,
    type_polynomials, hl_coefficients,
)
from rookhl.symfunc import (
    Transitions, transitions, SymFunc, coefficient_line, multiply,
)
from rookhl.chromatic import (
    chromatic_x, llt_poly, principal_monomial, principal_from_x,
    principal_direct,
)
from rookhl.verify import (
    CheckReport, IDENTITIES, check_main, check_modular,
    check_multiplicativity, check_llt, check_principal,
    sweep_tasks, sweep,
)

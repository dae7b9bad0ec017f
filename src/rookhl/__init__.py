"""Exact combinatorics engine for chromatic symmetric functions of Dyck
paths, linked rook placements, and Hall-Littlewood expansions.

Everything is computed over the integers: coefficients live in a Laurent
polynomial ring in one variable q, partitions and Dyck paths are plain
integer tuples, and every identity checked by :mod:`rookhl.verify` is an
exact equality of such polynomials.

``import rookhl`` loads none of its modules.  Each name below is looked up
in its module on first use (PEP 562), so ``from rookhl import SymFunc``
loads symfunc and what it needs, and a command line query that never
checks an identity never compiles verify.
"""

# The identities verify checks, here so that the command line can offer
# them without loading verify.
IDENTITIES = ("main", "modular", "mult", "llt", "principal")

_EXPORTS = {
    "qseries": (
        "QLaurent", "ZERO", "ONE", "Q", "from_int", "q_power", "pack",
        "pack_signed", "unpack", "unpack_signed",
        "q_int", "q_factorial", "q_binomial", "q_falling",
    ),
    "partitions": (
        "is_partition", "check_partition", "enumerate_partitions",
        "conjugate", "nstat", "multiplicities", "parse_partition",
        "format_partition", "coefficient_line",
    ),
    "dyck": (
        "from_heights", "parse_heights", "format_heights", "enumerate_dyck",
        "area", "area_sequence", "reflect", "concat", "complete_path",
        "ModularTriple", "modular_triples",
    ),
    "rook": (
        "placements", "placement_type", "RankTables", "rank_tables",
        "free_cells", "type_polynomials", "hl_coefficients",
    ),
    "symfunc": ("Transitions", "transitions", "SymFunc", "multiply"),
    "chromatic": (
        "chromatic_x", "llt_poly", "principal_monomial", "principal_direct",
    ),
    "verify": (
        "CheckReport", "check_main", "check_modular",
        "check_multiplicativity", "check_llt", "check_principal",
        "sweep_tasks", "sweep",
    ),
}
# Each exported name -> the module that defines it.
_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["IDENTITIES", *_MODULE]


def __getattr__(name):
    # An unknown name must raise AttributeError: `from rookhl import rook`
    # then falls through to importing the submodule.
    mod = _MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module 'rookhl' has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"rookhl.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

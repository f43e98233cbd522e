"""Copy and constant propagation over single-statement three-address-code CFGs.

One availability analysis covers both: facts are (dst, src) pairs whose src
may be a variable or a constant, and the rewriting pass resolves whole pair
chains in a single sweep. A classic single-definition baseline, a concrete
interpreter, and brute-force solvers are included for cross-checking.
"""

from .analysis import run_acs, transfer
from .classic import classic_transform, reaching_definitions
from .dataflow import (
    EMPTY,
    AnalysisResult,
    FactSet,
    format_facts,
    solve_forward,
)
from .ir import (
    Binary,
    Block,
    Branch,
    Copy,
    Nop,
    Operand,
    ParseError,
    Program,
    Statement,
    defined_var,
    format_statement,
    parse_program,
    predecessors,
    print_program,
    reverse_postorder,
    to_dot,
    used_vars,
    uses,
    validate,
    variables,
)
from .oracle import (
    CyclicGraphError,
    Env,
    GenParams,
    PathBudgetError,
    Trace,
    Verdict,
    differential_check,
    enumerate_paths,
    fact_soundness_violation,
    interpret,
    mop_in,
    random_program,
    solve_round_robin,
)
from .propagate import (
    Replacement,
    ReplacementReport,
    resolve_chain,
    transform,
    transform_to_fixpoint,
)

__version__ = "0.1.0"

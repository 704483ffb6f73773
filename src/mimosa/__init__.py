"""Mimosa: an asynchronous dataflow language with periodic nodes and timed
FIFO channels — parser, static checks, step evaluator, and simulator."""

from .analysis import (
    CheckedProgram,
    check_initialization,
    check_network,
    check_program,
    infer_types,
    order_equations,
)
from .ast import Program, free_variables
from .errors import (
    CausalityError,
    Diagnostic,
    EvalError,
    InitError,
    MimosaError,
    NetworkError,
    ParseError,
    SimError,
    TypeCheckError,
)
from .eval import Env, EvalContext, EvalResult, HostContext, eval_equations, eval_expr
from .parser import parse_duration, parse_expression, parse_program
from .pretty import pretty_expr, pretty_program, pretty_value
from .sim import (
    HostRegistry,
    SimConfig,
    Simulation,
    Trace,
    builtin_hosts,
    const_seq,
    from_file,
    from_values,
    print_host,
    run,
    run_randomized_equivalence,
)

__all__ = [
    "CausalityError",
    "CheckedProgram",
    "Diagnostic",
    "Env",
    "EvalContext",
    "EvalError",
    "EvalResult",
    "HostContext",
    "HostRegistry",
    "InitError",
    "MimosaError",
    "NetworkError",
    "ParseError",
    "Program",
    "SimConfig",
    "SimError",
    "Simulation",
    "Trace",
    "TypeCheckError",
    "builtin_hosts",
    "check_initialization",
    "check_network",
    "check_program",
    "const_seq",
    "eval_equations",
    "eval_expr",
    "free_variables",
    "from_file",
    "from_values",
    "infer_types",
    "order_equations",
    "parse_duration",
    "parse_expression",
    "parse_program",
    "pretty_expr",
    "pretty_program",
    "pretty_value",
    "print_host",
    "run",
    "run_randomized_equivalence",
]

__version__ = "0.1.0"

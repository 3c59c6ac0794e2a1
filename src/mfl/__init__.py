"""MFL: a small functional language with selective memoization."""

from .syntax import Program, Term, Expr, Type, erase, free_resources, term_eq, type_eq
from .parser import parse, parse_term, parse_expr
from .typecheck import check_program, check_term, check_expr
from .eval_memo import EvalConfig, eval_term, eval_expr, run_program
from .eval_pure import diff_check, eval_pure_term, run_program_pure
from .memostore import Store, MemoTable, mt_lookup, mt_insert, index_of
from .stats import EvalStats

__all__ = [
    "Program", "Term", "Expr", "Type", "erase", "free_resources", "term_eq",
    "type_eq", "parse", "parse_term", "parse_expr", "check_program",
    "check_term", "check_expr", "EvalConfig", "eval_term", "eval_expr",
    "run_program", "diff_check", "eval_pure_term", "run_program_pure",
    "Store", "MemoTable", "mt_lookup", "mt_insert", "index_of", "EvalStats",
]

from support import program_nodes
from mfl.gen import GenLimits, gen_program
from mfl.parser import parse
from mfl.pretty import print_program
from mfl.syntax import KeyOf, term_eq
from mfl.typecheck import check_program


def test_generated_programs_typecheck():
    for seed in range(200):
        check_program(gen_program(seed))  # gen also self-checks


def test_generation_is_deterministic():
    for seed in (0, 17, "text-seed"):
        a = gen_program(seed)
        b = gen_program(seed)
        assert term_eq(a.main, b.main)
        assert [n for n, _ in a.decls] == [n for n, _ in b.decls]


def test_size_budget_respected():
    limits = GenLimits(max_nodes=60)
    for seed in range(100):
        program = gen_program(seed, limits)
        # the budget bounds generator spending; allow slack for the
        # minimal-term completions it falls back to at exhaustion
        assert sum(1 for _ in program_nodes(program)) <= 3 * limits.max_nodes


def test_literals_in_declared_range():
    from mfl.syntax import IntLit
    limits = GenLimits()
    for seed in range(60):
        for node in program_nodes(gen_program(seed, limits)):
            if type(node) is IntLit:
                assert limits.int_min - 1 <= node.value <= limits.int_max


def test_no_keyof_generated():
    # box keys are allocation-order values; generated programs must not
    # leak them into comparable outputs
    for seed in range(200):
        assert not any(type(n) is KeyOf for n in program_nodes(gen_program(seed)))


def test_generated_programs_print_and_reparse():
    for seed in range(50):
        program = gen_program(seed)
        assert term_eq(parse(print_program(program)).main, program.main)

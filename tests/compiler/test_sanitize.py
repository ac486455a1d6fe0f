"""Static annotation sanitizer: seeded-bug fixtures and kernel certification."""

import pytest

from repro.apps import acec_sources as K
from repro.compiler.driver import OPT_BASE, OPT_DIRECT, OPT_LI, OPT_LI_MC, compile_source
from repro.compiler.errors import AnnotationError
from repro.protocols.registry import default_registry
from repro.sanitize import Violation, check_or_raise, check_program

ALL_OPTS = [OPT_BASE, OPT_LI, OPT_LI_MC, OPT_DIRECT]

KERNELS = {
    "em3d": lambda: K.em3d_source(K.EM3DKernelWL()),
    "bsc": lambda: K.bsc_source(K.BSCKernelWL()),
    "water": lambda: K.water_source(K.WaterKernelWL()),
    "bh": lambda: K.bh_source(K.BHKernelWL()),
    "tsp": lambda: K.tsp_source(K.TSPKernelWL()),
}

_PRELUDE = """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    p = ace_gmalloc(s, 4);
    mapped double *m;
    m = ace_map(p);
"""

#: seeded misannotations -> (rule, source line the diagnostic must carry)
FIXTURES = {
    "missing_end": (
        _PRELUDE + """    ace_start_write(m);
    m[0] = 1;
}
""",
        "open-access-at-exit",
        8,
    ),
    "write_under_read": (
        _PRELUDE + """    ace_start_read(m);
    m[0] = 1;
    ace_end_read(m);
}
""",
        "write-under-read",
        9,
    ),
    "double_start": (
        _PRELUDE + """    ace_start_read(m);
    ace_start_read(m);
    ace_end_read(m);
    ace_end_read(m);
}
""",
        "double-start",
        9,
    ),
    "unmap_leak": (
        """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    shared double *q;
    p = ace_gmalloc(s, 4);
    q = ace_gmalloc(s, 4);
    mapped double *a;
    mapped double *b;
    a = ace_map(p);
    b = ace_map(q);
    ace_start_write(a);
    a[0] = 1;
    ace_end_write(a);
    ace_start_write(b);
    b[0] = 2;
    ace_end_write(b);
    ace_unmap(a);
}
""",
        "map-leak",
        11,
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_seeded_fixture_is_flagged_with_function_and_line(name):
    source, rule, line = FIXTURES[name]
    with pytest.raises(AnnotationError) as exc:
        compile_source(source, sanitize=True)
    msg = str(exc.value)
    assert f"[{rule}]" in msg
    assert f"main:{line}:" in msg
    assert "post-lowering" in msg


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_seeded_fixture_without_sanitize_compiles(name):
    # The sanitizer is opt-in: a misannotated program still compiles
    # (and misbehaves at run time) when the check is off.
    source, _, _ = FIXTURES[name]
    compile_source(source, sanitize=False)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("opt", ALL_OPTS, ids=lambda o: o.name)
def test_all_kernels_certify_clean_at_every_level(kernel, opt):
    prog = compile_source(KERNELS[kernel](), opt=opt, sanitize=True)
    assert prog.pass_stats["sanitize"] == [
        "post-lowering",
        f"post-optimization ({opt.name})",
    ]


def test_post_optimization_recheck_catches_a_pass_bug():
    """Deleting a non-elidable END from optimized IR must be flagged."""
    prog = compile_source(KERNELS["em3d"](), opt=OPT_LI_MC, sanitize=True)
    registry = prog.registry
    mutated = False
    for fn in prog.ir.funcs.values():
        for block in fn.blocks.values():
            for i, ins in enumerate(block.instrs):
                if ins.op in ("end_read", "end_write") and not registry.may_elide(
                    ins.protocols, ins.op
                ):
                    del block.instrs[i]
                    mutated = True
                    break
            if mutated:
                break
        if mutated:
            break
    assert mutated, "expected at least one non-elidable END in optimized IR"
    violations = check_program(prog.ir, registry, strict=False)
    assert violations, "sanitizer missed the deleted END"
    with pytest.raises(AnnotationError, match="post-optimization"):
        check_or_raise(prog.ir, registry, phase="post-optimization (LI+MC)", strict=False)


def test_check_or_raise_returns_zero_on_clean_ir():
    prog = compile_source(KERNELS["tsp"](), opt=OPT_BASE)
    assert check_or_raise(prog.ir, prog.registry) == 0


def test_violation_rendering_is_stable():
    v = Violation(rule="double-start", func="main", line=9, message="boom")
    assert str(v) == "main:9: [double-start] boom"


def test_lock_imbalance_is_flagged():
    source = """
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    p = ace_gmalloc(s, 4);
    ace_lock(p);
}
"""
    violations = check_program(compile_source(source).ir, default_registry)
    assert any(v.rule == "lock-leak" for v in violations)

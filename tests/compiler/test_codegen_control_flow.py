"""Control-flow differential tests: the closures backend vs the interpreter.

The closures backend (DESIGN.md §12) emits every AceC function as one
Python generator whose loops, conditionals, ``break``/``continue``/
``return`` are Python's own, rebuilt from the structure lowering
recorded.  These tests aim at that rebuilding: a fixed corpus of the
shapes it has to get right (tier 1) and a generator of random structured
programs at every optimization level (``slow``).  Both compare every
observable — cycles, results, prints, bulletin board, kernel events —
and, for failures, exception type and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OPT_BASE, compile_source, run_compiled
from repro.compiler.driver import BACKENDS
from repro.harness.experiments import TABLE4_LEVELS


def observe(src, backend, opt=OPT_BASE, n_procs=1, surgery=None):
    """Everything one run of ``src`` shows, or how it failed."""
    prog = compile_source(src, opt=opt, backend=backend)
    if surgery is not None:
        surgery(prog.ir)
    try:
        run = run_compiled(prog, n_procs=n_procs)
    except Exception as exc:  # noqa: BLE001 - the failure *is* the observation
        return {"raised": type(exc), "message": str(exc)}
    return {
        "time": run.time,
        "results": run.results,
        "prints": run.prints,
        "bb": dict(run.bb),
        "events": run.run_result.machine.sim.events,
    }


def both(src, **kw):
    closures, interp = (observe(src, backend, **kw) for backend in BACKENDS)
    assert closures == interp
    return closures


# ------------------------------------------------------------ fixed corpus
def test_continue_in_a_for_runs_the_step():
    out = both("""
    double bump(double i) { work(7); return i + 1; }
    void main() {
        double s = 0;
        for (int i = 0; i < 6; i++) { if (imod(i, 2) == 0) { continue; } s += i; }
        for (int k = 0; k < 5; k = bump(k)) { if (k == 1) { continue; } s += 100; }
        print(s);
    }
    """)
    assert out["prints"] == [(0, 1 + 3 + 5 + 400.0)]


def test_break_from_an_if_nested_in_two_loops():
    out = both("""
    void main() {
        double n = 0;
        for (int i = 0; i < 4; i++) {
            int j = 0;
            while (j < 4) {
                j += 1;
                if (j > i) { if (j > 1) { break; } }
                n += 1;
            }
            n += 10;
        }
        print(n);
    }
    """)
    assert out["prints"] == [(0, 1 + 1 + 2 + 3 + 40.0)]


def test_return_from_inside_two_loops():
    out = both("""
    double find(double want) {
        for (int i = 0; i < 4; i++) {
            for (int j = 0; j < 4; j++) {
                work(3);
                if (i * 4 + j == want) { return i * 10 + j; }
            }
        }
        return 0 - 1;
    }
    void main() { print(find(6)); print(find(99)); }
    """)
    assert out["prints"] == [(0, 12.0), (0, -1.0)]


def test_if_whose_both_arms_return_leaves_join_and_latch_unreachable():
    out = both("""
    double sign(double x) {
        if (x > 0) { return 1; } else { return 0 - 1; }
        work(1000);
        return 7;
    }
    double first(double x) {
        while (1) {
            if (x > 2) { return x; } else { return 0; }
            x += 1;
        }
    }
    void main() { print(sign(3)); print(sign(0)); print(first(5)); print(first(1)); }
    """)
    assert out["prints"] == [(0, 1.0), (0, -1.0), (0, 5.0), (0, 0.0)]


def test_while_one_left_only_by_break():
    out = both("""
    void main() {
        double n = 0;
        while (1) { n += 1; if (n >= 5) { break; } }
        for (;;) { n += 1; if (n >= 9) { break; } }
        print(n);
    }
    """)
    assert out["prints"] == [(0, 9.0)]


def test_empty_bodied_loops():
    out = both("""
    void main() {
        int i = 0;
        for (i = 0; i < 5; i++) { }
        while (i < 0) { }
        for (int k = 0; k < 3; k++) { for (int m = 0; m < 2; m++) { } }
        print(i);
    }
    """)
    assert out["prints"] == [(0, 5.0)]


_RECURSION = """
double walk(shared double *p, double n) {
    work(%(w)d);
    if (n == 0) { return p[0]; }
    double below = walk(p, n - 1);
    work(%(w)d);
    return below + p[0];
}
void main() {
    int s = ace_new_space("SC");
    shared double *p;
    p = ace_gmalloc(s, 1);
    p[0] = 2;
    work(%(w)d);
    print(walk(p, 3));
}
"""


@pytest.mark.parametrize("w", [30, 500], ids=["rides", "flushes"])
def test_recursion_carries_pending_across_call_and_return(w):
    """``work(w)`` is pending when ``walk`` is entered and again when it
    returns into an access: one running total, on both sides of
    ``lead_room`` (30 rides the next access, 500 is flushed first)."""
    out = both(_RECURSION % {"w": w})
    assert out["prints"] == [(0, 8.0)]


def _drop_declaration(ir):
    entry = ir.funcs["main"].blocks["entry"]
    entry.instrs = [i for i in entry.instrs if not (i.op == "const" and i.dst.startswith("x$"))]


def test_variable_assigned_on_one_path_only():
    """Lowering zero-fills every declaration, so take that away: the
    read after the join must fail as the interpreter's does."""
    src = """
    void main() {
        double x;
        if (my_proc() == 7) { x = 1; }
        work(100);
        print(x);
    }
    """
    out = both(src, surgery=_drop_declaration)
    assert out["message"] == "main: read of unset variable x$1"
    # ... and only where it can be unset: the assigning path reads it unchecked
    emitted = compile_source(src).emitted("main")
    assert emitted.count("is _UNSET") == 0


@pytest.mark.parametrize(
    "fault, message",
    [
        ("x[7] = 1;", "line 6: index 7 out of bounds (size 4)"),
        ("x[0] = 1 / zero;", "division by zero"),
        ("x[0] = imod(1, zero) + 1 % zero;", None),
        ('x[0] = host_data("nope", 3);', "host_data('nope', 3) missing"),
        ('x[0] = bb_get("nope", 3);', "bb_get('nope', 3): not published yet (missing barrier?)"),
        ("print(0 - 1e999); x[1e999] = 1;", "cannot convert float infinity to integer"),
    ],
)
def test_runtime_errors_after_pending_cost_has_accrued(fault, message):
    out = both("""
    void main() {
        double x[4];
        double zero = 0;
        work(100);
        %s
    }
    """ % fault)
    assert "raised" in out
    assert message is None or out["message"] == message


def test_negative_work_is_forgotten_by_a_library_call_and_rides_an_access():
    """``work(-n)`` can take pending below zero: a library builtin then
    flushes nothing and starts again from zero; an access takes it as its lead."""
    out = both("""
    void main() {
        int s = ace_new_space("Null");
        shared double *p;
        p = ace_gmalloc(s, 1);
        work(0 - 40);
        ace_barrier(s);
        work(500);
        work(0 - 495);
        p[0] = 1;
        work(0 - 3);
    }
    """)
    assert "raised" not in out


def test_main_calling_itself_settles_only_the_outermost_return():
    """Each activation opens a fresh space, so the space id counts them;
    the inner ones return with cycles pending and must not flush."""
    out = both("""
    void main() {
        int s = ace_new_space("Null");
        work(30);
        if (s < 3) { main(); }
        work(500);
        print(s);
    }
    """)
    assert out["prints"] == [(0, 3.0), (0, 2.0), (0, 1.0), (0, 0.0)]


def test_main_with_a_parameter_reads_it_unset_at_top_level():
    out = both("void main(int n) { print(n); }")
    assert out["message"] == "main: read of unset variable n$1"


def test_spmd_control_flow_on_four_nodes():
    """Node-dependent trip counts and early exits, with shared traffic."""
    out = both("""
    void main() {
        int me = my_proc();
        int s = ace_new_space("SC");
        shared double *p;
        p = ace_gmalloc(s, 4);
        bb_put("p", me, p);
        ace_barrier(s);
        shared double *q;
        q = bb_get("p", imod(me + 1, num_procs()));
        double acc = 0;
        for (int i = 0; i < 4; i++) {
            p[i] = me * 10 + i;
            if (i == me) { continue; }
            acc += p[i];
        }
        ace_barrier(s);
        int k = 0;
        while (1) {
            if (k > me) { break; }
            acc += q[k];
            k += 1;
        }
        bb_put("acc", me, acc);
    }
    """, n_procs=4)
    assert len(out["bb"]) == 8


# ------------------------------------------------- random structured programs
SIZE = 4


@st.composite
def exprs(draw, names):
    atom = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(names),
        st.sampled_from([f"p[{k}]" for k in range(SIZE)] + [f"q[{k}]" for k in range(SIZE)]),
    )
    left, right = draw(atom), draw(atom)
    return draw(st.sampled_from([left, f"{left} + {right}", f"{left} * {right} - {right}"]))


@st.composite
def conds(draw, names):
    a, b = draw(exprs(names)), draw(exprs(names))
    simple = f"{a} {draw(st.sampled_from(['<', '>=', '==', '!=']))} {b}"
    return draw(st.sampled_from([simple, f"({simple}) && (acc < 50)", "my_proc() == 0"]))


@st.composite
def blocks(draw, names, depth, in_loop, uid, calls=True):
    """A list of statements.  Everything terminates: a loop is bounded by
    a counter its body cannot touch (a ``while`` decrements first, so
    ``continue`` is safe) and only ``main`` calls (``calls``) the helper."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["assign", "store", "work", "print"]
        if depth < 3:
            kinds += ["if", "if", "for", "while"] + ["call"] * calls
        if in_loop:
            kinds += ["break", "continue"]
        if depth > 0:
            kinds.append("return")
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            out.append(f"acc += {draw(exprs(names))};")
        elif kind == "store":
            op = draw(st.sampled_from(["=", "+="]))
            k = draw(st.sampled_from(list(range(SIZE)) * 4 + [SIZE]))  # now and then out of bounds
            out.append(f"p[{k}] {op} {draw(exprs(names))};")
        elif kind == "work":
            out.append(f"work({draw(st.sampled_from([3, 60, 500]))});")
        elif kind == "print":
            out.append("print(acc);")
        elif kind == "call":
            out.append(f"acc += helper(p, q, {draw(exprs(names))});")
        elif kind == "if":
            then = draw(blocks(names, depth + 1, in_loop, uid, calls))
            text = f"if ({draw(conds(names))}) {{ {' '.join(then)} }}"
            if draw(st.booleans()):
                els = draw(blocks(names, depth + 1, in_loop, uid, calls))
                text += f" else {{ {' '.join(els)} }}"
            out.append(text)
        elif kind == "for":
            uid[0] += 1
            i = f"i{uid[0]}"
            body = draw(blocks(names + [i], depth + 1, True, uid, calls))
            out.append(f"for (int {i} = 0; {i} < {draw(st.integers(0, 3))}; {i}++) {{ {' '.join(body)} }}")
        elif kind == "while":
            uid[0] += 1
            n = f"n{uid[0]}"
            body = draw(blocks(names, depth + 1, True, uid, calls))
            out.append(f"int {n} = {draw(st.integers(0, 3))}; while ({n} > 0) {{ {n} -= 1; {' '.join(body)} }}")
        elif kind == "return":
            out.append("return acc;")
            break
        else:
            out.append(f"{kind};")
            break
    return out


@st.composite
def programs(draw):
    protocol = draw(st.sampled_from(["SC", "Null", "StaticUpdate", "HomeWrite"]))
    uid = [0]
    helper = draw(blocks(["acc", "a"], 1, False, uid, calls=False))
    main = draw(blocks(["acc"], 0, False, uid))
    return f"""
    double helper(shared double *p, shared double *q, double a) {{
        double acc = a;
        {' '.join(helper)}
        return acc;
    }}
    double main() {{
        int s = ace_new_space("SC");
        ace_change_protocol(s, "{protocol}");
        shared double *p;
        p = ace_gmalloc(s, {SIZE});
        bb_put("p", my_proc(), p);
        ace_barrier(s);
        shared double *q;
        q = bb_get("p", imod(my_proc() + 1, num_procs()));
        double acc = 0;
        {' '.join(main)}
        bb_put("acc", my_proc(), acc);
        return acc;
    }}
    """


@pytest.mark.slow
@given(programs())
@settings(max_examples=150, deadline=None)
def test_random_structured_programs_agree(src):
    for level in TABLE4_LEVELS:
        for n_procs in (1, 4):
            both(src, opt=level, n_procs=n_procs)

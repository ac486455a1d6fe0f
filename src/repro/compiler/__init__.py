"""The Ace compiler for AceC, a C subset with the ``shared`` qualifier (§3, §4.2).

Pipeline (mirroring the paper's SUIF-based compiler):

1. **Front end** — :mod:`lexer` / :mod:`parser_` produce an AST for
   AceC: functions, recursion, ``int``/``double`` scalars and local
   arrays, ``shared`` region pointers, and the Ace library calls
   (Tables 1-2).  Two programming styles coexist, as in the paper:
   *source-level* programs dereference ``shared`` pointers directly
   and let the compiler insert annotations (Figure 5); *runtime-level*
   programs (the "hand-optimized" Table 4 rows) call ``ace_map`` /
   ``ace_start_read`` / ... explicitly on ``mapped`` handles (Figure 4).
2. **Lowering** — :mod:`lowering` builds a per-function CFG of basic
   blocks over a linear IR (:mod:`ir`).
3. **Annotation insertion** — :mod:`annotate` wraps every shared
   dereference in MAP / START / END, exactly the Figure 5 recipe.
4. **Analysis** — :mod:`analysis` reproduces §4.2's interprocedural
   dataflow: region values are traced to their ``ace_gmalloc`` sites,
   spaces to their ``ace_new_space`` sites, and protocol states are
   propagated from ``ace_new_space``/``ace_change_protocol`` through
   dominators and call edges, yielding the *set of possible protocols*
   for every annotated access.
5. **Optimizations** — :mod:`opt_loops` (loop-invariant MAP/START/END
   motion), :mod:`opt_merge` (available-expression merging of
   redundant protocol calls, Figure 6), :mod:`opt_direct` (direct
   dispatch + null-handler deletion).  All passes respect the
   registry's ``optimizable`` flags and never move code past
   synchronization.
6. **Execution** — two bit-identical backends run the optimized IR as
   an SPMD program on the simulated Ace runtime, charging per-op cycle
   costs so Table 4's ladder falls out of real pass behaviour:
   :mod:`codegen` (default) walks the IR once and emits one Python
   generator per function; :mod:`interp` is the tree-walking
   interpreter, retained as the differential-testing oracle
   (``compile_source(backend="interp")``).
"""

from repro.compiler.driver import (
    BACKENDS,
    OPT_BASE,
    OPT_DIRECT,
    OPT_LI,
    OPT_LI_MC,
    CompiledProgram,
    OptConfig,
    compile_source,
    run_compiled,
)
from repro.compiler.errors import AceCompileError, AceRuntimeErr, AceSyntaxError

__all__ = [
    "AceCompileError",
    "AceRuntimeErr",
    "AceSyntaxError",
    "BACKENDS",
    "CompiledProgram",
    "OPT_BASE",
    "OPT_DIRECT",
    "OPT_LI",
    "OPT_LI_MC",
    "OptConfig",
    "compile_source",
    "run_compiled",
]

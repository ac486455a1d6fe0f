"""Compiler and interpreter error types."""


class AceCompileError(Exception):
    """Any error raised while compiling an AceC program."""


class AceSyntaxError(AceCompileError):
    """Lexical or syntactic error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


class AceInternalError(AceCompileError):
    """The backend met IR of a shape lowering never builds: a pass or
    hand-built ``FuncIR`` broke the structure it emits from."""


class AnnotationError(AceCompileError):
    """Annotation-discipline violations found by the sanitizer.

    Raised by :func:`repro.sanitize.static_check.check_or_raise`;
    carries the full violation list so tools can render per-line
    diagnostics, and names the pipeline phase (post-lowering vs.
    post-optimization) so a pass bug is distinguishable from a
    front-end bug.
    """

    def __init__(self, phase: str, violations):
        self.phase = phase
        self.violations = list(violations)
        body = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} annotation violation(s) {phase}:\n{body}"
        )


class AceRuntimeErr(Exception):
    """Error raised while interpreting compiled AceC code."""

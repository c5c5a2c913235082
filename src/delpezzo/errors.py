"""Error hierarchy shared by the library and the command line front end.

Two families matter to callers: verification failures (a replay or a
comparison that does not check out) and input faults (malformed or
out-of-range data).  The CLI maps the former to exit code 1 and the
latter to exit code 2.  Every concrete error carries a small stable
numeric code used in JSON reports.
"""

from __future__ import annotations


class ToolError(Exception):
    code: int = 0
    exit_code: int = 2


class VerificationFailure(ToolError):
    exit_code = 1


class InputFault(ToolError):
    exit_code = 2


# -- hypersurface / defect ------------------------------------------------

class NoSolution(InputFault):
    """The node constraint system admits only the zero form."""
    code = 10


class NodeAtAmbientSingularity(InputFault):
    """A requested node sits at a singular point of the weighted space, or
    the hypersurface passes through one."""
    code = 11


class NodalityFailed(InputFault):
    """Retry budget exhausted without rank-4 Hessians at every node."""
    code = 12


class NegativeLDegree(InputFault):
    """The adjoint-twist degree is negative, the defect formula does not apply."""
    code = 13


class UnsupportedChart(InputFault):
    """No weight-1 coordinate is nonzero at the point, so no affine chart
    in which nodality can be certified is available; such inputs are
    rejected rather than guessed."""
    code = 14


class InvariantViolation(InputFault):
    """Supplied data does not satisfy the declared hypersurface invariants."""
    code = 15


class InvalidNode(InputFault, ValueError):
    """A node of the wrong length, the zero tuple, or a repeated node."""
    code = 16


class DegreeTooLarge(InputFault):
    """A degree with more than ``wps.MAX_MONOMIALS`` monomials, or whose
    monomial search would take more steps than that bound allows."""
    code = 17


# -- divisor classes ------------------------------------------------------

# code 20, an unknown basis name, is retired

class OutOfRangeDegree(InputFault):
    code = 21


class NoRelationsForDegree(InputFault):
    """No basis rewrite relations are registered for this degree."""
    code = 22


# -- mutation engine ------------------------------------------------------

class SideConditionFailed(VerificationFailure):
    code = 30

    def __init__(self, rule_id: str, detail: str, step: int | None = None):
        self.rule_id = rule_id
        self.detail = detail
        self.step = step
        where = f" (step {step})" if step is not None else ""
        super().__init__(f"{rule_id}{where}: {detail}")


class PositionOutOfRange(InputFault):
    code = 31


class PerfectnessUnknown(SideConditionFailed):
    """Neither block of a Serre rotation is flagged perfect."""
    code = 32


class FinalMismatch(VerificationFailure):
    code = 33

    def __init__(self, diffs: list[str]):
        self.diffs = list(diffs)
        super().__init__("final decomposition differs from the expected one:\n"
                         + "\n".join(self.diffs))


class TailMismatch(VerificationFailure):
    code = 34

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"tail position {position}: expected {expected}, found {found}")


# -- quiver algebras ------------------------------------------------------

class MalformedRelation(InputFault):
    code = 40


# code 41, an infinite-dimensional path algebra, is retired

class BasisTooLarge(InputFault):
    """A finite path algebra whose basis exceeds ``quivers.MAX_BASIS``."""
    code = 42


# -- K-theory gate --------------------------------------------------------

class UnmodeledComponent(InputFault):
    code = 50


class InvalidDegree(InputFault):
    code = 51


class SmoothInput(InputFault):
    """The gate only applies to non-smooth inputs (at least one node)."""
    code = 52


# -- catalog --------------------------------------------------------------

class UnknownDegree(InputFault):
    code = 60


class UnsupportedDegree(InputFault):
    code = 61


class BudgetExceeded(InputFault):
    code = 62


# -- text formats ---------------------------------------------------------

class ScriptSyntaxError(InputFault):
    code = 70

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class InstanceFormatError(InputFault):
    code = 71


class UndecodableInput(InputFault):
    """An input file whose bytes are not UTF-8 text."""
    code = 72


# how many characters of a rejected token, and of a path or name, a message repeats
TOKEN_ECHO, NAME_ECHO = 32, 128


def clip(text: str, limit: int) -> str:
    """text cut after its first `limit` characters, unquoted."""
    return text if len(text) <= limit else text[:limit] + "..."


def echo(text: str, limit: int = TOKEN_ECHO) -> str:
    """repr of rejected input, cut after its first `limit` characters."""
    return repr(text) if len(text) <= limit else repr(text[:limit]) + "..."

"""Recording how a lowering's integers depend on a config's split factors.

A lowering run with :class:`SymInt` split factors is an ordinary lowering:
every integer it derives from a factor is again a :class:`SymInt`, whose
value is the one a plain run computes and which also remembers *how* it was
computed, as an entry of its :class:`Trace`'s tape.  Every comparison of
such an integer is recorded with its outcome: the imperfect-split guards,
the simplifier's identities, the region clamps and each branch a schedule
template takes on a factor.  Those outcomes are the lowering's *path
condition*: a config whose factors give every comparison the same outcome
is lowered through exactly the same steps, into the same tree, with each
integer the tape's value for its factors (:meth:`Tape.evaluate`).

Anything the tape cannot follow (a true division used as a float, a
conversion to ``int`` or ``float``, a factor used as an index) raises
:class:`Untraceable` instead of silently dropping the dependence, and the
caller lowers that config plainly.
"""

from __future__ import annotations

import math
import operator
import threading
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["SymInt", "Trace", "Tape", "Untraceable", "recording", "smaller",
           "larger", "gcd"]

#: per thread: whether a recording is under way (see :meth:`Trace.__enter__`)
_STATE = threading.local()


class Untraceable(Exception):
    """A recorded lowering used a traced integer in a way the tape cannot
    replay."""


def _neg(a, _b):
    return -a


def _abs(a, _b):
    return abs(a)


class SymInt(int):
    """An ``int`` that remembers its tape entry (``trace``, ``slot``)."""

    def __new__(cls, value: int, trace: "Trace", slot: int) -> "SymInt":
        obj = int.__new__(cls, value)
        obj.trace = trace
        obj.slot = slot
        return obj

    __hash__ = int.__hash__

    def __add__(self, other):
        return self.trace.apply(operator.add, self, other)

    def __radd__(self, other):
        return self.trace.apply(operator.add, other, self)

    def __sub__(self, other):
        return self.trace.apply(operator.sub, self, other)

    def __rsub__(self, other):
        return self.trace.apply(operator.sub, other, self)

    def __mul__(self, other):
        return self.trace.apply(operator.mul, self, other)

    def __rmul__(self, other):
        return self.trace.apply(operator.mul, other, self)

    def __floordiv__(self, other):
        return self.trace.apply(operator.floordiv, self, other)

    def __rfloordiv__(self, other):
        return self.trace.apply(operator.floordiv, other, self)

    def __mod__(self, other):
        return self.trace.apply(operator.mod, self, other)

    def __rmod__(self, other):
        return self.trace.apply(operator.mod, other, self)

    def __neg__(self):
        return self.trace.apply(_neg, self, 0)

    def __pos__(self):
        return self

    def __abs__(self):
        return self.trace.apply(_abs, self, 0)

    def __truediv__(self, other):
        return _Quotient(self, other)

    def __rtruediv__(self, other):
        return _Quotient(other, self)

    def __eq__(self, other):
        return self.trace.test(operator.eq, self, other)

    def __ne__(self, other):
        return self.trace.test(operator.ne, self, other)

    def __lt__(self, other):
        return self.trace.test(operator.lt, self, other)

    def __le__(self, other):
        return self.trace.test(operator.le, self, other)

    def __gt__(self, other):
        return self.trace.test(operator.gt, self, other)

    def __ge__(self, other):
        return self.trace.test(operator.ge, self, other)

    def __bool__(self):
        return self.trace.test(operator.ne, self, 0)

    def _untraceable(self, *_args):
        raise Untraceable("a traced integer left the tape")

    __int__ = __float__ = __index__ = _untraceable
    __pow__ = __rpow__ = __and__ = __rand__ = __or__ = __ror__ = _untraceable
    __xor__ = __rxor__ = __lshift__ = __rlshift__ = _untraceable
    __rshift__ = __rrshift__ = __divmod__ = __rdivmod__ = _untraceable
    __round__ = __trunc__ = __floor__ = __ceil__ = _untraceable


class _Quotient(float):
    """``a / b`` of a traced integer: only its floor and ceiling — the
    integer quotients interval arithmetic takes — stay on the tape."""

    def __new__(cls, num, den) -> "_Quotient":
        obj = float.__new__(cls, int.__int__(num) / int.__int__(den))
        obj.num = num
        obj.den = den
        return obj

    def __floor__(self):
        return self.num // self.den

    def __ceil__(self):
        return -(-self.num // self.den)

    def _untraceable(self, *_args):
        raise Untraceable("a traced quotient was used as a float")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _untraceable
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _untraceable
    __mod__ = __rmod__ = __neg__ = __abs__ = __int__ = _untraceable
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _untraceable
    __bool__ = __round__ = __trunc__ = _untraceable
    __hash__ = float.__hash__


def recording() -> bool:
    """Whether this thread is inside a recorded lowering."""
    return getattr(_STATE, "active", False)


# A value choice is a tape entry, not a recorded comparison: which operand
# ``min`` returns does not change the tree, only an integer in it.

def smaller(a: int, b: int) -> int:
    """``min(a, b)``, on the tape if either is traced."""
    if type(a) is SymInt:
        return a.trace.apply(min, a, b)
    if type(b) is SymInt:
        return b.trace.apply(min, a, b)
    return min(a, b)


def larger(a: int, b: int) -> int:
    """``max(a, b)``, on the tape if either is traced."""
    if type(a) is SymInt:
        return a.trace.apply(max, a, b)
    if type(b) is SymInt:
        return b.trace.apply(max, a, b)
    return max(a, b)


def gcd(a: int, b: int) -> int:
    """``math.gcd(a, b)``, on the tape if either is traced."""
    if type(a) is SymInt:
        return a.trace.apply(math.gcd, a, b)
    if type(b) is SymInt:
        return b.trace.apply(math.gcd, a, b)
    return math.gcd(a, b)


_INPUT, _CONST = None, False

#: every function a tape entry or a recorded comparison may apply; a tape
#: names each by its index, so what it keeps is plain integers
_FUNCTIONS = (operator.add, operator.sub, operator.mul, operator.floordiv,
              operator.mod, _neg, _abs, min, max, math.gcd, operator.eq,
              operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
_OPCODE = {fn: index for index, fn in enumerate(_FUNCTIONS)}


class Trace:
    """The tape of one recorded lowering over ``factors``.

    Slot ``i`` of the tape holds input ``i`` (a factor), a constant, or
    ``fn(slot a, slot b)``; structurally equal entries share a slot.
    ``conditions`` maps each recorded comparison ``(fn, slot a, slot b)`` to
    its outcome.
    """

    def __init__(self, factors: Sequence[int]):
        self.ops: List[Tuple] = []
        self._memo: Dict[Tuple, SymInt] = {}
        self._consts: Dict[int, int] = {}
        self.conditions: Dict[Tuple, bool] = {}
        self._width = len(factors)
        self.inputs = [self._push((_INPUT, index, None), int(value))
                       for index, value in enumerate(factors)]

    def __enter__(self) -> "Trace":
        _STATE.active = True
        return self

    def __exit__(self, *_exc) -> None:
        _STATE.active = False
        # Each traced integer refers to its trace: dropping the trace's own
        # references leaves no cycle for the collector.
        self._memo.clear()
        self.inputs = []

    def _push(self, entry: Tuple, value: int) -> SymInt:
        result = SymInt(value, self, len(self.ops))
        self.ops.append(entry)
        self._memo[entry] = result
        return result

    def _slot(self, value) -> int:
        if type(value) is SymInt:
            if value.trace is not self:
                raise Untraceable("two recordings' integers met")
            return value.slot
        if isinstance(value, int):
            value = int(value)
            slot = self._consts.get(value)
            if slot is None:
                slot = self._consts[value] = len(self.ops)
                self.ops.append((_CONST, value, None))
            return slot
        raise Untraceable(f"a traced integer met a {type(value).__name__}")

    def apply(self, fn: Callable, a, b) -> SymInt:
        if type(a) is SymInt and a.trace is self:
            slot_a = a.slot
        else:
            slot_a = self._slot(a)
        if type(b) is SymInt and b.trace is self:
            slot_b = b.slot
            if fn is operator.floordiv or fn is operator.mod:
                # a zero divisor raises, and the simplifier keeps the node
                self.test(operator.ne, b, 0)
        else:
            slot_b = self._slot(b)
        entry = (fn, slot_a, slot_b)
        hit = self._memo.get(entry)
        if hit is not None:
            return hit
        return self._push(entry, fn(int.__int__(a), int.__int__(b)))

    def test(self, fn: Callable, a, b) -> bool:
        if not isinstance(b, int) and not isinstance(b, float):
            return NotImplemented       # ``x == None`` and the like
        entry = (fn, self._slot(a), self._slot(b))
        outcome = fn(int.__int__(a), int.__int__(b))
        self.conditions[entry] = outcome
        return outcome

    def tape(self, outputs: Sequence[int]) -> "Tape":
        """The part of the tape that computes the slots ``outputs`` and the
        recorded conditions, renumbered densely."""
        needed = set(outputs)
        for _fn, a, b in self.conditions:
            needed.update((a, b))
        for slot in range(len(self.ops) - 1, -1, -1):
            if slot in needed:
                fn, a, b = self.ops[slot]
                if fn is not _INPUT and fn is not _CONST:
                    needed.update((a, b))
        order = sorted(needed | set(range(self._width)))
        where = {slot: index for index, slot in enumerate(order)}
        initial: List[Optional[int]] = []
        program: List[int] = []
        for index, slot in enumerate(order):
            fn, a, b = self.ops[slot]
            if fn is _CONST:
                initial.append(a)
            else:
                initial.append(None)
                if fn is not _INPUT:
                    program += (index, _OPCODE[fn], where[a], where[b])
        checks: List[int] = []
        for (fn, a, b), outcome in self.conditions.items():
            checks += (_OPCODE[fn], where[a], where[b], outcome)
        return Tape(self._width, initial, program, checks,
                    [where[slot] for slot in outputs])


class Tape:
    """A recorded lowering's integers as a program over the factors, and the
    path condition under which that program is the lowering's.

    The program's steps ``(slot, function, slot a, slot b)`` and the
    conditions ``(function, slot a, slot b, outcome)`` are kept flat, four
    machine integers each: a recorded class lives as long as the cache
    keeps it."""

    __slots__ = ("_inputs", "_initial", "_program", "_checks", "_outputs")

    def __init__(self, inputs: int, initial: List[Optional[int]],
                 program: Sequence[int], checks: Sequence[int],
                 outputs: List[int]):
        self._inputs = inputs
        self._initial = initial
        self._program = array("i", program)
        self._checks = array("i", checks)
        self._outputs = outputs

    def _run(self, factors: Sequence[int]) -> List[int]:
        functions = _FUNCTIONS
        values = list(self._initial)
        values[:self._inputs] = factors
        steps = iter(self._program)
        for index, op, a, b in zip(steps, steps, steps, steps):
            values[index] = functions[op](values[a], values[b])
        return values

    def _conditions(self):
        checks = iter(self._checks)
        return zip(checks, checks, checks, checks)

    def evaluate(self, factors: Sequence[int]) -> Optional[List[int]]:
        """The output integers for ``factors``, or None if ``factors`` break
        the path condition."""
        try:
            values = self._run(factors)
        except ArithmeticError:
            return None     # a divisor the recording saw nonzero is zero
        functions = _FUNCTIONS
        for op, a, b, outcome in self._conditions():
            if functions[op](values[a], values[b]) != outcome:
                return None
        return [values[index] for index in self._outputs]

    def broken_checks(self, factors: Sequence[int]) -> List[int]:
        """Positions of the recorded conditions ``factors`` break."""
        values = self._run(factors)
        return [position for position, (op, a, b, outcome)
                in enumerate(self._conditions())
                if _FUNCTIONS[op](values[a], values[b]) != outcome]

    def without_check(self, position: int) -> "Tape":
        """This tape with one recorded condition dropped (a perturbation for
        tests: replay must then be caught disagreeing with a lowering)."""
        checks = self._checks[:4 * position] + self._checks[4 * position + 4:]
        return Tape(self._inputs, self._initial, self._program, checks,
                    self._outputs)

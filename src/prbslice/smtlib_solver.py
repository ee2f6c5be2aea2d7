"""Self-contained SMT-LIB 2 solver for quantifier-free linear integer
arithmetic with booleans.

This is the fallback backend used when no system SMT solver is installed: it
reads a script on stdin (or from a file argument), answers ``sat`` /
``unsat`` / ``unknown`` to ``(check-sat)`` and ``(check-sat-assuming
(literals))``, and prints a model of ``(define-fun name () Sort value)``
entries for ``(get-model)``.  It knows nothing about the rest of this
package; it only interprets the script text.  Stdin is read as it arrives:
each read, up to its last line end, is run as one batch of forms and the
output flushed, so one process can answer many scripts, each after a
``(reset)``, or many ``check-sat-assuming`` queries on one set of
assertions; it ends at EOF or ``(exit)``.  A form left open at a line
end waits for the next read.  A file argument is read whole and parsed
before any command runs.

The engine is constraint propagation on one assignment plus depth-first
splitting on boolean variables when propagation stalls; underdetermined
integer systems are answered ``unknown`` rather than guessed.  One
evaluator, ``simplify``, partially evaluates a term under the assignment
and builds a list only for a residual.  Each visit reads its result as a
value (true is done, false a conflict), the unit it forces, or the
conjuncts of an ``and``; a term that stalls keeps its residual and joins
the watch list of every variable left in it, so an assignment revisits only
its watchers.  Every change is logged on a trail.  The assertions are ids
0..n-1 in script order and queued in that order; a conjunct gets the next
free id and is queued at the front, in order, so its units are set before a
later term reads them.  A split assigns one Bool (true before false): the
first unassigned one, in name order, of the lowest-id open term that has
one.  It propagates from that decision alone; a failed branch is undone
from the trail.  The verdict is ``sat`` for the first leaf where every term
holds, else ``unknown`` if any leaf was undecided, else ``unsat``.  The
literals of ``check-sat-assuming`` -- each a declared Bool symbol or its
``not`` -- are assigned before the first propagation, as decisions at level
0 that no backtrack undoes; two that clash give ``unsat``, and they hold
for that query alone.  A ``sat`` leaf must pass a guard: ``simplify``
evaluates every assertion again on the complete model, and any that is not
true, or an assumption that does not hold, turns the answer into
``unknown``.  A unit that gives a declared symbol a value of the other sort
is an error.  ``(get-info :all-statistics)`` reports, for the last
``check-sat``, ``:propagations`` (term visits), ``:splits`` (split
variables chosen) and ``:conflicts`` (branches closed by a conflict).

Supported commands: set-logic, set-info, set-option, declare-const,
declare-fun (zero arity), assert, check-sat, check-sat-assuming,
get-model, get-info, echo, reset, exit.  Supported theory symbols: true
false not and or => xor ite = distinct + - * div mod abs < <= > >=; a
comparison may chain, as in ``(< a b c)``.
"""

from __future__ import annotations

import gc
import operator
import re
import sys
from collections import deque
from functools import reduce

_COMMENT = re.compile(r";[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_INT = re.compile(r"-?\d+\Z")
STATISTICS = (":propagations", ":splits", ":conflicts")
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge}


class SmtError(Exception):
    pass


def tokenize(text: str) -> list:
    # cut each ; comment at its line end (every str.splitlines boundary),
    # then pad the parens so that a whitespace split yields every token
    if ";" in text:
        text = _COMMENT.sub("", text)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _atom(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    # only a token starting with '-' or a digit can match _INT; the cheap
    # test spares the regex on every symbol
    c = tok[0]
    if (c == "-" or c.isdigit()) and _INT.match(tok):
        return int(tok)
    return tok


class Reader:
    """The top-level forms of a text that arrives in pieces.  ``feed``
    takes the tokens of the next piece and returns the forms it completes;
    a form still open waits for the next piece, and ``close`` rejects one
    left open at the end."""

    def __init__(self):
        self.forms: list = []       # top-level forms not yet returned
        self.stack: list = []       # the lists enclosing the one filled
        self.top = self.forms       # the list being filled
        self.atoms: dict = {}       # token text -> value, one _atom call each

    def feed(self, tokens: list) -> list:
        forms, top, stack, atoms = self.forms, self.top, self.stack, self.atoms
        for tok in tokens:
            if tok == "(":
                sub: list = []
                top.append(sub)
                stack.append(top)
                top = sub
            elif tok == ")":
                if not stack:
                    raise SmtError("unbalanced ')'")
                top = stack.pop()
            else:
                node = atoms.get(tok, atoms)
                if node is atoms:
                    node = atoms[tok] = _atom(tok)
                top.append(node)
        self.top = top
        if stack:                   # the last form is still open
            done = forms[:-1]
            del forms[:-1]
            return done
        self.forms = self.top = []
        return forms

    def close(self) -> None:
        if self.stack:
            raise SmtError("unbalanced '('")


def parse(tokens: list) -> list:
    reader = Reader()
    forms = reader.feed(tokens)
    reader.close()
    return forms


def _is_val(x) -> bool:
    return type(x) is bool or type(x) is int


def _ediv(a: int, b: int) -> int:
    # SMT-LIB Int division is Euclidean: the remainder is never negative
    return (a - _emod(a, b)) // b


def _emod(a: int, b: int) -> int:
    if b == 0:
        raise SmtError("division by zero")
    return a % abs(b)


# operator -> its value on two value arguments
_BINARY = {"=": lambda a, b: a == b and type(a) is type(b),
           "+": operator.add, "-": operator.sub, "div": _ediv, "mod": _emod,
           **_COMPARE}
# operator -> its value on a list of value arguments, None for a residual;
# "+" and "*" have their own rule
_FOLD = {
    # "=" and a comparison chain hold when each adjacent pair does
    **{op: (lambda a, f=_BINARY[op]: all(map(f, a, a[1:])))
       for op in ("=", *_COMPARE)},
    # the others fold from the left; only "-" takes a lone argument
    **{op: (lambda a, f=_BINARY[op]: -a[0] if len(a) == 1 else reduce(f, a))
       for op in ("-", "div", "mod")},
    "distinct": lambda a: len(set(a)) == len(a),
    "xor": lambda a: (reduce(operator.xor, a, False)
                      if all(type(x) is bool for x in a) else None),
    "abs": lambda a: abs(a[0]),
}
# operator -> (fewest, most) arguments, most None when unbounded
_ARITY = {"not": (1, 1), "abs": (1, 1), "div": (2, 2), "mod": (2, 2),
          "ite": (3, 3), "=>": (1, None), "-": (1, None),
          **dict.fromkeys(_COMPARE, (2, None))}


def simplify(t, env):
    """Partial evaluation of a term under a partial assignment: its value,
    or the residual term.  ``and``, ``or``, ``=>``, ``ite``, ``not`` and
    the two-argument ``_BINARY`` operators build a list only for a
    residual.  ``and`` and ``or`` stop at the argument that decides them,
    ``=>`` at a false guard, and an ``ite`` with a Bool condition evaluates
    only its taken branch, so a dead argument is never evaluated (a zero
    divisor there is no error)."""
    if type(t) is str:
        return env.get(t, t)
    if type(t) is not list:
        return t
    op = t[0]
    if op == "and" or op == "or":
        stop = op == "or"       # the argument value that decides it
        skip = not stop
        rest = None             # [op, the arguments that do not]
        for x in t[1:]:
            a = (env.get(x, x) if type(x) is str
                 else simplify(x, env) if type(x) is list else x)
            if a is stop:
                return stop
            if a is not skip:
                if rest is None:
                    rest = [op, a]
                else:
                    rest.append(a)
        if rest is None:
            return skip
        return rest if len(rest) > 2 else rest[1]
    n = len(t) - 1
    if op == "ite" and n == 3:
        x = t[1]
        c = (env.get(x, x) if type(x) is str
             else simplify(x, env) if type(x) is list else x)
        if type(c) is bool:
            x = t[2] if c else t[3]
            return (env.get(x, x) if type(x) is str
                    else simplify(x, env) if type(x) is list else x)
        return [op, c] + [env.get(x, x) if type(x) is str
                          else simplify(x, env) if type(x) is list else x
                          for x in t[2:]]
    if op == "not" and n == 1:
        x = t[1]
        a = env.get(x, x) if type(x) is str else simplify(x, env)
        if type(a) is bool:
            return not a
        return a[1] if type(a) is list and a[0] == "not" else ["not", a]
    if op == "=>" and n:
        guards = None           # the guards that are not true
        for x in t[1:-1]:
            a = env.get(x, x) if type(x) is str else simplify(x, env)
            if a is False:
                return True
            if a is not True:
                if guards is None:
                    guards = [a]
                else:
                    guards.append(a)
        x = t[-1]
        result = env.get(x, x) if type(x) is str else simplify(x, env)
        if result is True or guards is None:
            return result
        for a in reversed(guards):
            result = (simplify(["not", a], env) if result is False
                      else ["=>", a, result])
        return result
    rule = _BINARY.get(op) if n == 2 else None
    if rule is not None:
        x, y = t[1], t[2]
        a = (env.get(x, x) if type(x) is str
             else simplify(x, env) if type(x) is list else x)
        b = (env.get(y, y) if type(y) is str
             else simplify(y, env) if type(y) is list else y)
        ta, tb = type(a), type(b)
        if (ta is int or ta is bool) and (tb is int or tb is bool):
            return rule(a, b)
        if op != "+":
            return [op, a, b]
        args = [a, b]
    else:
        args = [env.get(x, x) if type(x) is str
                else simplify(x, env) if type(x) is list else x
                for x in t[1:]]
        fewest, most = _ARITY.get(op, (0, n))
        if not fewest <= n <= (most or n):
            raise SmtError(f"{op} takes {'' if most else 'at least '}"
                           f"{fewest} argument{'s' * (fewest > 1)}, got {n}")
    if op == "+" or op == "*":
        unit = const = 0 if op == "+" else 1
        rest = []
        for a in args:
            if _is_val(a):
                const = const + a if op == "+" else const * a
            else:
                rest.append(a)
        if op == "*" and const == 0:
            return 0
        if not rest:
            return const
        if const == unit:
            return rest[0] if len(rest) == 1 else [op] + rest
        return [op] + rest + [const]
    fold = _FOLD.get(op)
    if fold is None:
        raise SmtError(f"unsupported operator {op!r}")
    v = fold(args) if all(map(_is_val, args)) else None
    return [op] + args if v is None else v


def _free_vars(t, acc: set) -> None:
    if isinstance(t, str):
        acc.add(t)
    elif isinstance(t, list):
        for a in t[1:]:
            _free_vars(a, acc)


def _shape(t):
    """What propagation makes of a simplified term: its value (True is
    done, False a conflict), the unit it forces as a ``(variable, value)``
    tuple, the arguments of an ``and`` as a list, or None while it
    stalls."""
    if type(t) is not list:
        return (t, True) if type(t) is str else t
    op = t[0]
    if op == "and":
        return t[1:]
    if op == "not":
        return (t[1], False) if type(t[1]) is str else None
    if op == "=" and len(t) == 3:
        a, b = t[1], t[2]
        if type(a) is str and _is_val(b):
            return a, b
        if type(b) is str and _is_val(a):
            return b, a
    return None


class Propagator:
    """Terms under one assignment, with a trail to undo it.

    Term ids: the assertions are 0..n-1 in script order, and each conjunct
    split off an ``and`` gets the next free id.  ``residual[tid]`` is the
    term, True once it holds, or while it stalls its residual under
    ``env``, whose free variables it watches from its first stall on.
    Every change (assignment, residual, new term, watch registration) is
    logged on ``trail``, newest last."""

    def __init__(self, assertions, sorts: dict):
        self.sorts = sorts          # declared symbol -> "Int" or "Bool"
        self.env: dict = {}
        self.residual: list = []
        self.vars: list = []        # free variables at first stall, else None
        self.watch: dict[str, list] = {}
        self.trail: list = []
        self.open = 0               # terms whose residual is not True
        self.stats = dict.fromkeys(STATISTICS, 0)
        self.queue = deque(self._new(t) for t in assertions)

    def _new(self, term) -> int:
        tid = len(self.residual)
        self.residual.append(term)
        self.vars.append(None)
        self.trail.append(("new", tid, None))
        self.open += term is not True
        return tid

    def assign(self, var, val) -> bool:
        """Assign and wake the watchers; False on a clash.  A value of the
        wrong sort for a declared symbol is an error, not a clash."""
        env = self.env
        sort = self.sorts.get(var)
        if sort is not None and (sort == "Bool") is not (type(val) is bool):
            raise SmtError(f"ill-sorted assertion: the {sort} symbol {var} "
                           f"is given the value {_fmt_value(val)}")
        if var in env:
            return env[var] == val and type(env[var]) is type(val)
        env[var] = val
        self.trail.append(("set", var, None))
        residual, queue = self.residual, self.queue
        for tid in self.watch.get(var, ()):
            if residual[tid] is not True:
                queue.append(tid)
        return True

    def undo(self, mark: int) -> None:
        """Take back every change logged after ``mark``."""
        trail, residual = self.trail, self.residual
        while len(trail) > mark:
            kind, key, old = trail.pop()
            if kind == "set":
                del self.env[key]
            elif kind == "term":
                if residual[key] is True:
                    self.open += 1
                residual[key] = old
            elif kind == "watch":
                for v in self.vars[key]:
                    self.watch[v].pop()
                self.vars[key] = None
            else:               # "new": the term is the last one
                self.open -= residual.pop() is not True
                self.vars.pop()

    def propagate(self) -> str:
        """Visit queued terms until no assignment is forced.  Returns
        'ok', 'unsat' on a conflict, or 'unknown' when a stalled term has
        no unassigned variable left, i.e. a ground term the evaluator
        cannot decide (e.g. an ite on an Int condition)."""
        env, residual, queue, trail = (self.env, self.residual, self.queue,
                                       self.trail)
        status = "ok"
        while queue:
            tid = queue.popleft()
            term = residual[tid]
            if term is True:
                continue
            self.stats[":propagations"] += 1
            # only a term never visited can be an ``and``, since a residual
            # one is split at once: split it untouched, and let each
            # conjunct's own visit simplify it
            if type(term) is list and term[0] == "and":
                r = term[1:]
            else:
                t = simplify(term, env)
                r = _shape(t)
            if r is False:
                status = "unsat"
                break
            trail.append(("term", tid, term))
            if r is not None:
                residual[tid] = True
                self.open -= 1
                if type(r) is tuple:
                    if not self.assign(*r):
                        status = "unsat"
                        break
                elif type(r) is list:
                    # the conjuncts run next, in order, before any term
                    # queued earlier
                    queue.extendleft(reversed([self._new(sub) for sub in r]))
                elif r is not True:
                    raise SmtError("ill-sorted assertion: it evaluates to "
                                   f"the Int {r}")
                continue
            residual[tid] = t
            vs = self.vars[tid]
            if vs is None:
                found: set = set()
                _free_vars(t, found)
                self.vars[tid] = vs = tuple(found)
                for v in vs:
                    self.watch.setdefault(v, []).append(tid)
                trail.append(("watch", tid, None))
            if all(v in env for v in vs):
                status = "unknown"
                break
        if status != "ok":
            queue.clear()
            self.stats[":conflicts"] += status == "unsat"
        return status

    def split_var(self, first: int):
        """The first unassigned Bool, in name order, of the residual of the
        lowest-id open term that has one, scanning from id ``first``.
        Returns (var or None, id to scan from next time)."""
        residual, env = self.residual, self.env
        while first < len(residual):
            t = residual[first]
            if t is not True:
                found: set = set()
                _free_vars(t, found)
                for v in sorted(found):
                    if v not in env and self.sorts.get(v) == "Bool":
                        return v, first
            first += 1
        return None, first


def search(prop: Propagator):
    """Propagation plus depth-first boolean splitting on one assignment.

    When propagation stalls with open terms left, split on the first
    unassigned Bool, in name order, of the lowest-id open term that has
    one (see ``Propagator`` for the ids), true before false.  A split
    assigns only the decision variable and propagates from its watchers;
    a failed branch is undone from the trail.  The pending false branches
    live on an explicit stack, so the depth is not bounded by Python's
    recursion limit.  A term with no unassigned Bool stays without one
    deeper in the branch, so each frame also keeps the id to scan from.
    Returns ('sat', env) for the first satisfying leaf, else ('unknown',)
    if any leaf was undecided, else ('unsat',)."""
    stack = []                  # (variable, trail mark, first id to scan)
    first = 0
    saw_unknown = False
    status = prop.propagate()
    while True:
        if status == "ok":
            if not prop.open:
                return ("sat", prop.env)
            var, first = prop.split_var(first)
            if var is not None:
                prop.stats[":splits"] += 1
                stack.append((var, len(prop.trail), first))
                prop.assign(var, True)
                status = prop.propagate()
                continue
            saw_unknown = True
        elif status == "unknown":
            saw_unknown = True
        if not stack:
            return ("unknown",) if saw_unknown else ("unsat",)
        var, mark, first = stack.pop()
        prop.undo(mark)
        prop.assign(var, False)
        status = prop.propagate()


def _fmt_value(v) -> str:
    if type(v) is bool:
        return "true" if v else "false"
    return str(v) if v >= 0 else f"(- {-v})"


class Interpreter:
    def __init__(self, out):
        self.out = out
        self.reader = Reader()      # the forms of ``feed``'s pieces
        self.reset()

    def reset(self) -> None:
        """Forget every declaration, assertion, result and interned atom,
        as the ``reset`` command does."""
        self.sorts: dict[str, str] = {}
        self.order: list[str] = []
        self.assertions: list = []
        self.result: str | None = None
        self.model: dict | None = None
        self.stats = dict.fromkeys(STATISTICS, 0)
        self.reader.atoms.clear()

    def declare(self, name: str, sort: str) -> None:
        if name in self.sorts:
            raise SmtError(f"symbol {name!r} declared twice")
        if sort not in ("Int", "Bool"):
            raise SmtError(f"unsupported sort {sort!r}")
        self.sorts[name] = sort
        self.order.append(name)

    def literal(self, lit) -> tuple[str, bool]:
        """The (symbol, value) that an assumption literal asks for."""
        var, val = lit, True
        if type(lit) is list and len(lit) == 2 and lit[0] == "not":
            var, val = lit[1], False
        if type(var) is not str or self.sorts.get(var) != "Bool":
            raise SmtError(f"assumption {lit!r} is not a declared Bool "
                           f"symbol or its negation")
        return var, val

    def check_sat(self, assumptions=()) -> None:
        prop = Propagator(self.assertions, self.sorts)
        if all(prop.assign(var, val) for var, val in assumptions):
            outcome = search(prop)
        else:
            outcome = ("unsat",)
        self.stats = prop.stats
        self.result, self.model = outcome[0], None
        if self.result == "sat":
            env = outcome[1]
            for name in self.order:
                env.setdefault(name, 0 if self.sorts[name] == "Int" else False)
            # soundness guard: the model must satisfy every original
            # assertion and every assumption
            if (all(simplify(t, env) is True for t in self.assertions)
                    and all(env[var] is val for var, val in assumptions)):
                self.model = env
            else:
                self.result = "unknown"
        print(self.result, file=self.out)

    def get_model(self) -> None:
        if self.model is None:
            print('(error "model is not available")', file=self.out)
            return
        self.out.write("(\n" + "".join(
            f"  (define-fun {name} () {self.sorts[name]} "
            f"{_fmt_value(self.model[name])})\n" for name in self.order)
            + ")\n")

    def get_info(self, key) -> None:
        if key != ":all-statistics":
            print("unsupported", file=self.out)
            return
        print("(" + "\n ".join(f"{k} {v}" for k, v in self.stats.items())
              + ")", file=self.out)

    def run(self, text: str) -> bool:
        """Run a whole script, which must parse before any command runs;
        False if it ended with ``exit``."""
        return self.execute(parse(tokenize(text)))

    def feed(self, text: str) -> bool:
        """Run the forms that ``text`` completes, one piece of a script
        that arrives in pieces cut at line ends; False after ``exit``."""
        return self.execute(self.reader.feed(tokenize(text)))

    def execute(self, forms: list) -> bool:
        for form in forms:
            if not isinstance(form, list) or not form:
                raise SmtError(f"top-level form is not a command: {form!r}")
            cmd = form[0]
            if cmd in ("set-logic", "set-info", "set-option"):
                continue
            if cmd == "echo":
                print(str(form[1]).strip('"'), file=self.out)
            elif cmd == "declare-const":
                self.declare(form[1], form[2])
            elif cmd == "declare-fun":
                if form[2]:
                    raise SmtError("declare-fun with arguments is unsupported")
                self.declare(form[1], form[3])
            elif cmd == "assert":
                self.assertions.append(form[1])
            elif cmd == "check-sat":
                self.check_sat()
            elif cmd == "check-sat-assuming":
                if len(form) != 2 or type(form[1]) is not list:
                    raise SmtError("check-sat-assuming takes one list of "
                                   "literals")
                self.check_sat([self.literal(lit) for lit in form[1]])
            elif cmd == "get-model":
                self.get_model()
            elif cmd == "get-info":
                self.get_info(form[1])
            elif cmd == "reset":
                self.reset()
            elif cmd == "exit":
                return False
            else:
                raise SmtError(f"unsupported command {cmd!r}")
        return True


def _serve(interp: Interpreter, stream) -> None:
    """Run a script read from a binary stream as it arrives: each read, up
    to its last line end, is one batch of forms, and the output is flushed
    after each batch.  Ends at EOF or ``exit``."""
    rest: list[bytes] = []      # read since the last line end
    while chunk := stream.read1(1 << 16):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            rest.append(chunk)
            continue
        # a line end falls inside no UTF-8 sequence, token or comment
        rest.append(chunk[:cut])
        text = b"".join(rest).decode("utf-8")
        rest = [chunk[cut:]]
        if not interp.feed(text):
            return
        interp.out.flush()
    if interp.feed(b"".join(rest).decode("utf-8")):
        interp.reader.close()


def main(argv=None) -> int:
    # the parsed script holds no reference cycle, so the cyclic collector
    # would only rescan it
    gc.disable()
    argv = sys.argv[1:] if argv is None else list(argv)
    interp = Interpreter(sys.stdout)
    try:
        if argv:
            with open(argv[0], "r", encoding="utf-8") as fh:
                interp.run(fh.read())
        else:
            _serve(interp, sys.stdin.buffer)
    except SmtError as exc:
        print(f'(error "{exc}")')
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-contained SMT-LIB 2 solver for quantifier-free linear integer
arithmetic with booleans.

This is the fallback backend used when no system SMT solver is installed: it
reads a script on stdin (or from a file argument), answers ``sat`` /
``unsat`` / ``unknown`` to ``(check-sat)``, and prints a model of
``(define-fun name () Sort value)`` entries for ``(get-model)``.

The engine is constraint propagation (partial evaluation of assertions under
the current assignment, extracting forced units) plus depth-first splitting
on boolean variables when propagation stalls.  Underdetermined integer
systems are answered ``unknown`` rather than guessed.  It knows nothing about
the rest of this package; it only interprets the script text.

Propagation keeps one assignment and works in time linear in the script:
each term keeps its residual (the term simplified so far), and the first
time a term stalls it joins the watch list of every variable left in it, so
an assignment re-simplifies only the terms that watch that variable.  Every
change is logged on a trail.  The assertions are ids 0..n-1 in script order
and are queued in that order; a conjunct split off an ``and`` gets the next
free id and is queued at the front, in order, so it is simplified before
any term queued earlier and its units are set before a later term reads
them.  A split assigns one Bool (true before false): the first unassigned
one, in name order, of the lowest-id open term that has one.  It propagates
from that decision alone, and a failed branch is undone from the trail.
The verdict is ``sat`` for the first leaf where every term holds, else
``unknown`` if any leaf was undecided, else ``unsat``.  A ``sat`` leaf must
pass a guard: every original assertion is evaluated again on the complete
model by ``evaluate``, which decides ground terms without building
residuals, and any that is not true turns the answer into ``unknown``.  A
unit that gives a declared symbol a value of the other sort is an error.
``(get-info :all-statistics)`` reports, for the last ``check-sat``,
``:propagations`` (terms simplified), ``:splits`` (split variables chosen)
and ``:conflicts`` (branches closed by a conflict).

Supported commands: set-logic, set-info, set-option, declare-const,
declare-fun (zero arity), assert, check-sat, get-model, get-info, echo,
exit.  Supported theory symbols: true false not and or => xor ite =
distinct + - * div mod abs < <= > >=; a comparison may chain, as in
``(< a b c)``.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import deque

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


def parse(tokens: list) -> list:
    forms = []
    top = forms                 # the list being filled
    stack: list[list] = []      # its enclosing lists
    atoms: dict = {}            # token text -> value, one _atom call each
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
    if stack:
        raise SmtError("unbalanced '('")
    return forms


def _is_val(x) -> bool:
    return type(x) is bool or type(x) is int


def _ediv(a: int, b: int) -> int:
    # SMT-LIB Int division is Euclidean: remainder is always non-negative.
    if b == 0:
        raise SmtError("division by zero")
    r = a - _emod(a, b)
    return r // b


def _emod(a: int, b: int) -> int:
    if b == 0:
        raise SmtError("division by zero")
    m = a % abs(b)
    return m


def _all_vals(args) -> bool:
    for a in args:
        if type(a) is not int and type(a) is not bool:
            return False
    return True


def simplify(t, env):
    """Partial evaluation of a term under a partial assignment."""
    if type(t) is str:
        return env.get(t, t)
    if type(t) is not list:
        return t
    op = t[0]
    args = [env.get(x, x) if type(x) is str
            else simplify(x, env) if type(x) is list else x
            for x in t[1:]]

    if op == "and":
        out = []
        for a in args:
            if a is False:
                return False
            if a is not True:
                out.append(a)
        if not out:
            return True
        return out[0] if len(out) == 1 else ["and"] + out
    if op == "or":
        out = []
        for a in args:
            if a is True:
                return True
            if a is not False:
                out.append(a)
        if not out:
            return False
        return out[0] if len(out) == 1 else ["or"] + out
    if op == "not":
        if len(args) != 1:
            raise SmtError(f"not takes 1 argument, got {len(args)}")
        a = args[0]
        if type(a) is bool:
            return not a
        if type(a) is list and a[0] == "not":
            return a[1]
        return ["not", a]
    if op == "=>":
        result = args[-1]
        for a in reversed(args[:-1]):
            if a is True:
                continue
            if a is False:
                return True
            if result is True:
                return True
            if result is False:
                result = simplify(["not", a], env)
            else:
                result = ["=>", a, result]
        return result
    if op == "=":
        if _all_vals(args):
            return all(a == args[0] and type(a) is type(args[0])
                       for a in args[1:])
        return ["="] + args
    if op == "distinct":
        if _all_vals(args):
            return len(set(args)) == len(args)
        return ["distinct"] + args
    if op == "ite":
        if len(args) != 3:
            raise SmtError(f"ite takes 3 arguments, got {len(args)}")
        c, a, b = args
        if c is True:
            return a
        if c is False:
            return b
        return ["ite", c, a, b]
    if op == "xor":
        if all(type(a) is bool for a in args):
            acc = False
            for a in args:
                acc ^= a
            return acc
        return ["xor"] + args
    if op == "+":
        const = 0
        rest = []
        for a in args:
            if _is_val(a):
                const += a
            else:
                rest.append(a)
        if not rest:
            return const
        if const == 0:
            return rest[0] if len(rest) == 1 else ["+"] + rest
        return ["+"] + rest + [const]
    if op == "-":
        if len(args) == 1:
            return -args[0] if _is_val(args[0]) else ["-", args[0]]
        if _all_vals(args):
            acc = args[0]
            for a in args[1:]:
                acc -= a
            return acc
        return ["-"] + args
    if op == "*":
        const = 1
        rest = []
        for a in args:
            if _is_val(a):
                const *= a
            else:
                rest.append(a)
        if const == 0:
            return 0
        if not rest:
            return const
        if const == 1 and len(rest) == 1:
            return rest[0]
        return ["*"] + rest + ([const] if const != 1 else [])
    if op == "div" or op == "mod":
        if len(args) != 2:
            raise SmtError(f"{op} takes 2 arguments, got {len(args)}")
        if _all_vals(args):
            return (_ediv if op == "div" else _emod)(args[0], args[1])
        return [op] + args
    if op == "abs":
        if len(args) != 1:
            raise SmtError(f"abs takes 1 argument, got {len(args)}")
        return abs(args[0]) if _is_val(args[0]) else ["abs", args[0]]
    if op in _COMPARE:
        if len(args) < 2:
            raise SmtError(f"{op} takes at least 2 arguments, got {len(args)}")
        if _all_vals(args):
            # a chain holds when each adjacent pair does
            cmp = _COMPARE[op]
            if len(args) == 2:
                return cmp(args[0], args[1])
            return all(map(cmp, args, args[1:]))
        return [op] + args
    raise SmtError(f"unsupported operator {op!r}")


def evaluate(t, env):
    """The value ``simplify`` gives a term under a complete assignment,
    computed without building residuals; the model guard calls it.

    ``and``, ``=>``, ``not`` and a binary ``=`` are evaluated here, and
    ``and`` and ``=>`` stop at the first argument that decides them.  Every
    other operator, and every n-ary ``=``, goes to ``simplify`` with its
    arguments evaluated, and an ``and``, ``=>`` or ``not`` with an argument
    of the wrong sort goes to ``simplify`` whole, so the semantics live in
    one place.  The one difference: ``simplify`` evaluates every argument,
    so a zero divisor in one that cannot change the value (a consequent
    under a false guard) raises there and not here."""
    if type(t) is str:
        return env.get(t, t)
    if type(t) is not list:
        return t
    op = t[0]
    if op == "and":
        for a in t[1:]:
            v = evaluate(a, env)
            if v is not True:
                return False if v is False else simplify(t, env)
        return True
    if op == "=>":
        for a in t[1:-1]:
            v = evaluate(a, env)
            if v is not True:
                return True if v is False else simplify(t, env)
        return evaluate(t[-1], env)
    if op == "not":
        v = evaluate(t[1], env)
        return (not v) if type(v) is bool else simplify(t, env)
    args = [evaluate(a, env) for a in t[1:]]
    if op == "=" and len(args) == 2:
        a, b = args
        if _is_val(a) and _is_val(b):
            return a == b and type(a) is type(b)
    return simplify([op] + args, env)


def _free_vars(t, acc: set) -> None:
    if isinstance(t, str):
        acc.add(t)
    elif isinstance(t, list):
        for a in t[1:]:
            _free_vars(a, acc)


def _unit(t):
    """The (variable, value) a residual forces by itself, else None."""
    if isinstance(t, str):
        return t, True
    if type(t) is int:
        raise SmtError(f"ill-sorted assertion: it evaluates to the Int {t}")
    if t[0] == "not" and isinstance(t[1], str):
        return t[1], False
    if t[0] == "=" and len(t) == 3:
        a, b = t[1], t[2]
        if isinstance(a, str) and _is_val(b):
            return a, b
        if isinstance(b, str) and _is_val(a):
            return b, a
    return None


class Propagator:
    """Terms under one assignment, with a trail to undo it.

    Term ids: the assertions are 0..n-1 in script order, and each conjunct
    split off an ``and`` residual gets the next free id and goes to the
    front of the queue, in order.  ``residual[tid]`` is the term simplified
    under ``env``, True once satisfied.  The first time a term stalls, the
    free variables of its residual are computed and the term joins each
    one's watch list; after that it is simplified again only when one of
    them is assigned.  Every change (assignment, residual, new term, watch
    registration) is logged on ``trail``, newest last."""

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
        """Simplify queued terms until no assignment is forced.  Returns
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
            t = simplify(term, env)
            if t is False:
                status = "unsat"
                break
            trail.append(("term", tid, term))
            unit = None
            if t is not True:
                unit = _unit(t)
                if unit is not None:
                    t = True
                elif t[0] == "and":
                    # the conjuncts run next, in order, before any term
                    # queued earlier
                    queue.extendleft(reversed([self._new(sub)
                                               for sub in t[1:]]))
                    t = True
            residual[tid] = t
            if t is True:
                self.open -= 1
                if unit is not None and not self.assign(*unit):
                    status = "unsat"
                    break
                continue
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
        self.sorts: dict[str, str] = {}
        self.order: list[str] = []
        self.assertions: list = []
        self.result: str | None = None
        self.model: dict | None = None
        self.stats = dict.fromkeys(STATISTICS, 0)

    def declare(self, name: str, sort: str) -> None:
        if name in self.sorts:
            raise SmtError(f"symbol {name!r} declared twice")
        if sort not in ("Int", "Bool"):
            raise SmtError(f"unsupported sort {sort!r}")
        self.sorts[name] = sort
        self.order.append(name)

    def check_sat(self) -> None:
        prop = Propagator(self.assertions, self.sorts)
        outcome = search(prop)
        self.stats = prop.stats
        if outcome[0] != "sat":
            self.result = outcome[0]
            self.model = None
            print(self.result, file=self.out)
            return
        env = outcome[1]
        for name in self.order:
            env.setdefault(name, 0 if self.sorts[name] == "Int" else False)
        # soundness guard: the model must satisfy every original assertion
        for t in self.assertions:
            if evaluate(t, env) is not True:
                self.result = "unknown"
                self.model = None
                print(self.result, file=self.out)
                return
        self.result = "sat"
        self.model = env
        print(self.result, file=self.out)

    def get_model(self) -> None:
        if self.model is None:
            print('(error "model is not available")', file=self.out)
            return
        print("(", file=self.out)
        for name in self.order:
            sort = self.sorts[name]
            print(f"  (define-fun {name} () {sort} "
                  f"{_fmt_value(self.model[name])})", file=self.out)
        print(")", file=self.out)

    def get_info(self, key) -> None:
        if key != ":all-statistics":
            print("unsupported", file=self.out)
            return
        print("(" + "\n ".join(f"{k} {v}" for k, v in self.stats.items())
              + ")", file=self.out)

    def run(self, text: str) -> None:
        for form in parse(tokenize(text)):
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
            elif cmd == "get-model":
                self.get_model()
            elif cmd == "get-info":
                self.get_info(form[1])
            elif cmd == "exit":
                return
            else:
                raise SmtError(f"unsupported command {cmd!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv:
        with open(argv[0], "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        Interpreter(sys.stdout).run(text)
    except SmtError as exc:
        print(f'(error "{exc}")')
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

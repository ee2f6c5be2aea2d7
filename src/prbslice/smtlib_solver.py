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

Supported commands: set-logic, set-info, set-option, declare-const,
declare-fun (zero arity), assert, check-sat, get-model, echo, exit.
Supported theory symbols: true false not and or => xor ite = distinct
+ - * div mod abs < <= > >=.
"""

from __future__ import annotations

import re
import sys
from collections import deque

_TOKEN = re.compile(r"[()]|[^()\s]+")
_INT = re.compile(r"-?\d+\Z")


class SmtError(Exception):
    pass


def tokenize(text: str) -> list:
    # strip ; comments line by line, then split into parens and atoms
    lines = []
    for line in text.splitlines():
        cut = line.find(";")
        lines.append(line if cut < 0 else line[:cut])
    return _TOKEN.findall("\n".join(lines))


def _atom(tok: str):
    if tok == "true":
        return True
    if tok == "false":
        return False
    if _INT.match(tok):
        return int(tok)
    return tok


def parse(tokens: list) -> list:
    forms = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SmtError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append(done)
        else:
            node = _atom(tok)
            if stack:
                stack[-1].append(node)
            else:
                forms.append(node)
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


def simplify(t, env):
    """Partial evaluation of a term under a partial assignment."""
    if _is_val(t):
        return t
    if isinstance(t, str):
        return env.get(t, t)
    op = t[0]
    args = [simplify(x, env) for x in t[1:]]

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
        a = args[0]
        if type(a) is bool:
            return not a
        if isinstance(a, list) and a[0] == "not":
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
        if all(_is_val(a) for a in args):
            return all(a == args[0] and type(a) is type(args[0])
                       for a in args[1:])
        return ["="] + args
    if op == "distinct":
        if all(_is_val(a) for a in args):
            return len(set(args)) == len(args)
        return ["distinct"] + args
    if op == "ite":
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
        if all(_is_val(a) for a in args):
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
    if op == "div":
        if all(_is_val(a) for a in args):
            return _ediv(args[0], args[1])
        return ["div"] + args
    if op == "mod":
        if all(_is_val(a) for a in args):
            return _emod(args[0], args[1])
        return ["mod"] + args
    if op == "abs":
        return abs(args[0]) if _is_val(args[0]) else ["abs", args[0]]
    if op in ("<", "<=", ">", ">="):
        if all(_is_val(a) for a in args):
            a, b = args
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
        return [op] + args
    raise SmtError(f"unsupported operator {op!r}")


def _free_vars(t, acc: set) -> None:
    if isinstance(t, str):
        acc.add(t)
    elif isinstance(t, list):
        for a in t[1:]:
            _free_vars(a, acc)


def propagate(terms, env):
    """Exhaust forced assignments.  Returns (status, env, remaining) where
    status is 'ok', 'unsat', or 'unknown' when a ground term is left that
    the evaluator cannot decide (e.g. an ite on an Int condition)."""
    pending: dict[int, object] = {}
    watch: dict[str, set] = {}
    queue = deque()
    conflict = [False]
    next_id = [0]

    def enqueue(term):
        pending[next_id[0]] = term
        queue.append(next_id[0])
        next_id[0] += 1

    def assign(var, val):
        if var in env:
            if env[var] != val or type(env[var]) is not type(val):
                conflict[0] = True
            return
        env[var] = val
        for aid in watch.pop(var, ()):
            queue.append(aid)

    for t in terms:
        enqueue(t)

    while queue and not conflict[0]:
        aid = queue.popleft()
        term = pending.pop(aid, None)
        if term is None:
            continue
        t = simplify(term, env)
        if t is True:
            continue
        if t is False:
            conflict[0] = True
            break
        if isinstance(t, str):
            assign(t, True)
            continue
        if t[0] == "not" and isinstance(t[1], str):
            assign(t[1], False)
            continue
        if t[0] == "and":
            for sub in t[1:]:
                enqueue(sub)
            continue
        if t[0] == "=" and len(t) == 3:
            a, b = t[1], t[2]
            if isinstance(a, str) and _is_val(b):
                assign(a, b)
                continue
            if isinstance(b, str) and _is_val(a):
                assign(b, a)
                continue
        pending[aid] = t
        vs: set = set()
        _free_vars(t, vs)
        vs -= env.keys()
        if not vs:
            return "unknown", env, []
        for v in vs:
            watch.setdefault(v, set()).add(aid)

    if conflict[0]:
        return "unsat", env, []
    return "ok", env, list(pending.values())


def _split_var(remaining, env, sorts):
    """The first unassigned Bool, in name order, of the first remaining
    term that has one; None when no term has one."""
    for t in remaining:
        vs: set = set()
        _free_vars(t, vs)
        for v in sorted(vs):
            if v not in env and sorts.get(v) == "Bool":
                return v
    return None


def search(terms, env, sorts):
    """Propagation plus depth-first boolean splitting, true before false,
    on an explicit stack so the depth is not bounded by Python's recursion
    limit.  Returns ('sat', env) for the first satisfying leaf, else
    ('unknown',) if any leaf was undecided, else ('unsat',)."""
    stack = [(terms, env)]
    saw_unknown = False
    while stack:
        terms, env = stack.pop()
        status, env, remaining = propagate(terms, env)
        if status != "ok":
            saw_unknown = saw_unknown or status == "unknown"
            continue
        if not remaining:
            return ("sat", env)
        split = _split_var(remaining, env, sorts)
        if split is None:
            saw_unknown = True
            continue
        stack.append((remaining + [["=", split, False]], dict(env)))
        stack.append((remaining + [["=", split, True]], env))
    return ("unknown",) if saw_unknown else ("unsat",)


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

    def declare(self, name: str, sort: str) -> None:
        if name in self.sorts:
            raise SmtError(f"symbol {name!r} declared twice")
        if sort not in ("Int", "Bool"):
            raise SmtError(f"unsupported sort {sort!r}")
        self.sorts[name] = sort
        self.order.append(name)

    def check_sat(self) -> None:
        outcome = search(list(self.assertions), {}, self.sorts)
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
            if simplify(t, env) is not True:
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

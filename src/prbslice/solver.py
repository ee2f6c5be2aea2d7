"""External SMT solver driver and model decoding.

The solver is an ordinary subprocess speaking SMT-LIB 2 text: script in
(stdin, or a temp file when the command template contains ``{script}``),
``sat``/``unsat``/``unknown`` plus ``(define-fun ...)`` model entries out.
The command comes from, in order: the explicit argument, the
``PRBSLICE_SOLVER_CMD`` environment variable, or the bundled solver.  The
bundled solver is launched as a plain file, ``python -S
<package dir>/smtlib_solver.py``: it imports only the standard library, so
the child loads no package module and needs neither ``site`` nor the
package on ``PYTHONPATH``.  Any SMT-LIB-conformant solver can be dropped in;
z3's and cvc5's default model output both parse.

Each process keeps one child of the bundled solver and sends it
``(reset)``, the script and an ``echo`` whose line ends the reply.  A
timeout kills and reaps the child, and a child that exits, or that was
launched for another command line, is reaped; either way the next solve
launches a new one.  An at-fork hook makes a forked process forget the
inherited child, which stays its parent's, so the forked process launches
its own.  An ``atexit`` hook closes the child's stdin and waits a moment
before killing it.  Any other command is one-shot: it runs through
``subprocess.run`` with the script on stdin, and a timeout kills and
reaps it.
"""

from __future__ import annotations

import atexit
import os
import selectors
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .encoder import (
    v_en, v_ew, v_lv, v_ovr, v_pt, v_ramp, v_resi, v_rp, v_shr, v_top,
    v_usg, v_usr,
)
from .model import NetworkConfig
from .oracle import AllocationTrace, SliceState, SystemState
from .smtlib_solver import parse, tokenize

SOLVER_CMD_ENV = "PRBSLICE_SOLVER_CMD"


class SolverProcessError(RuntimeError):
    """The solver process failed to run or exited without a verdict."""


class SolverOutputError(RuntimeError):
    """The solver ran but its output could not be parsed."""


class DecodeError(RuntimeError):
    """A satisfying model could not be turned into a trace."""


@dataclass(frozen=True)
class SolverVerdict:
    status: str                                # sat | unsat | unknown | timeout
    model: Optional[Mapping[str, object]]      # present iff status == sat
    wall_time: float

    def __post_init__(self) -> None:
        if (self.status == "sat") != (self.model is not None):
            raise ValueError("model must be present exactly when status is sat")


def default_solver_command() -> list[str]:
    return [sys.executable, "-S",
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "smtlib_solver.py")]


def resolve_solver_command(command: str | Sequence[str] | None) -> list[str]:
    if command is None:
        command = os.environ.get(SOLVER_CMD_ENV)
    if command is None:
        return default_solver_command()
    if isinstance(command, str):
        return shlex.split(command)
    return list(command)


def _parse_model(text: str) -> dict[str, object]:
    """Pull every (define-fun name () Sort value) out of solver output."""
    model: dict[str, object] = {}

    def walk(node) -> None:
        if not isinstance(node, list):
            return
        if (len(node) >= 5 and node[0] == "define-fun"
                and isinstance(node[2], list) and not node[2]):
            name, value = node[1], node[4]
            if isinstance(value, list):
                if len(value) == 2 and value[0] == "-":
                    value = -value[1]
                else:
                    raise SolverOutputError(
                        f"unparseable model value for {name}: {value!r}")
            model[str(name)] = value
            return
        for child in node:
            walk(child)

    for form in parse(tokenize(text)):
        walk(form)
    return model


# The bundled solver's child answers each script after a (reset); the line
# it echoes after the script ends its reply.
_RESET = "(reset)\n"
_DONE = "prbslice-solve-done"
_ECHO_DONE = f'\n(echo "{_DONE}")\n'
_DONE_LINE = f"{_DONE}\n".encode()
_PIECE = 1 << 16                # characters encoded per write, bytes per read
_EXIT_GRACE_S = 1.0             # wait for an idle child to exit at EOF

_child: Optional[subprocess.Popen] = None   # this process's warm child
_child_lock = threading.Lock()              # threads take turns with it


def _forget_child() -> None:
    """In a forked process: the inherited child and lock are the
    parent's, so start with neither."""
    global _child, _child_lock
    _child, _child_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_child)


def _drop_child(deadline: float) -> None:
    """Close the warm child's pipes and reap it, killing it if it is still
    running at ``deadline``."""
    global _child
    proc, _child = _child, None
    if proc is None:
        return
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        stream.close()
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


@atexit.register
def _close_child() -> None:
    _drop_child(time.monotonic() + _EXIT_GRACE_S)


def _exchange(proc: subprocess.Popen, texts: Sequence[str],
              deadline: float) -> Optional[tuple[str, str, bool]]:
    """One round trip with the warm child: write ``texts`` to its stdin,
    encoded a piece at a time, while reading its stdout and stderr until
    the ``_DONE`` line, which is cut off, or EOF on both.  Returns (stdout,
    stderr, whether the ``_DONE`` line came), or None if ``deadline``
    passes first."""
    pieces = (text[at:at + _PIECE].encode() for text in texts
              for at in range(0, len(text), _PIECE))
    pending = memoryview(b"")
    out, err = bytearray(), bytearray()
    stdin = proc.stdin.fileno()
    sinks = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    with selectors.DefaultSelector() as sel:
        sel.register(stdin, selectors.EVENT_WRITE)
        for fd in sinks:
            sel.register(fd, selectors.EVENT_READ)
        while sinks:                # the outputs not yet at EOF
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            for key, _ in sel.select(remaining):
                if key.fd != stdin:
                    data = os.read(key.fd, _PIECE)
                    if not data:
                        sel.unregister(key.fd)
                        del sinks[key.fd]
                        continue
                    sinks[key.fd] += data
                    if out == _DONE_LINE or out.endswith(b"\n" + _DONE_LINE):
                        del out[-len(_DONE_LINE):]
                        return (out.decode(errors="replace"),
                                err.decode(errors="replace"), True)
                    continue
                if not pending:
                    pending = memoryview(next(pieces, b""))
                try:
                    if pending:
                        pending = pending[os.write(stdin, pending):]
                        continue
                except BlockingIOError:
                    continue
                except BrokenPipeError:
                    pass                # the child has stopped reading
                sel.unregister(stdin)
    return out.decode(errors="replace"), err.decode(errors="replace"), False


def _ask_child(argv: list[str], script: str, deadline: float):
    """Send the script to the warm child, launching it first if there is
    none for ``argv`` or it has exited.  A child that timed out, exited or
    raised is dropped, so the next solve launches a new one.  Returns
    (stdout, stderr, exit status or None), or None at the deadline."""
    global _child
    if _child is not None and (_child.args != argv
                               or _child.poll() is not None):
        _close_child()
    if _child is None:
        try:
            _child = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE)
        except OSError as exc:
            raise SolverProcessError(
                f"could not run solver {argv!r}: {exc}") from exc
        os.set_blocking(_child.stdin.fileno(), False)
    proc, reply = _child, None
    try:
        reply = _exchange(proc, (_RESET, script, _ECHO_DONE), deadline)
    finally:
        if reply is None or not reply[2]:
            _drop_child(0.0 if reply is None else deadline)
    if reply is None:
        return None
    return reply[0], reply[1], proc.returncode


def _run_once(argv: list[str], script: str, timeout: float):
    """Run the command for this script alone: the script goes on stdin, or
    into a file in a temp directory when ``{script}`` in the command names
    it.  Returns as ``_ask_child`` does."""
    with tempfile.TemporaryDirectory() as tmp:
        if any("{script}" in a for a in argv):
            path = os.path.join(tmp, "script.smt2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(script)
            argv, script = [a.replace("{script}", path) for a in argv], ""
        try:
            done = subprocess.run(argv, input=script, capture_output=True,
                                  encoding="utf-8", errors="replace",
                                  timeout=timeout)
        except subprocess.TimeoutExpired:   # run killed and reaped it
            return None
        except OSError as exc:
            raise SolverProcessError(
                f"could not run solver {argv!r}: {exc}") from exc
    return done.stdout, done.stderr, done.returncode


def solve(
    script: str,
    timeout: float = 120.0,
    command: str | Sequence[str] | None = None,
) -> SolverVerdict:
    """Run the solver on the script and return its verdict.  The bundled
    default command answers in this process's warm child; any other
    command is launched for this script alone."""
    argv = resolve_solver_command(command)
    started = time.monotonic()
    if argv == default_solver_command():
        with _child_lock:
            reply = _ask_child(argv, script, started + timeout)
    else:
        reply = _run_once(argv, script, timeout)
    elapsed = time.monotonic() - started
    if reply is None:
        return SolverVerdict(status="timeout", model=None, wall_time=elapsed)
    stdout, stderr, returncode = reply

    status = None
    lines = stdout.splitlines()
    for at, line in enumerate(lines):
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            status = line
            break
        if line.startswith("(error"):
            raise SolverProcessError(f"solver reported an error: {line}")
    if status is None:
        raise SolverProcessError(
            f"solver produced no verdict (exit {returncode}); "
            f"stdout={stdout[:500]!r} stderr={stderr[:500]!r}"
        )
    if status != "sat":
        return SolverVerdict(status=status, model=None, wall_time=elapsed)

    try:
        model = _parse_model("\n".join(lines[at + 1:]))
    except Exception as exc:
        raise SolverOutputError(f"could not parse model: {exc}") from exc
    return SolverVerdict(status="sat", model=model, wall_time=elapsed)


def extract_trace(
    verdict: SolverVerdict,
    config: NetworkConfig,
    scenario,
) -> AllocationTrace:
    """Rebuild the full state sequence from a satisfying model."""
    if verdict.status != "sat":
        raise DecodeError(
            f"cannot decode a trace from a {verdict.status!r} verdict")
    model = verdict.model
    assert model is not None

    def lookup(name: str):
        try:
            return model[name]
        except KeyError:
            raise DecodeError(f"model is missing variable {name!r}") from None

    states = []
    for j in range(config.horizon + 1):
        slices = []
        for i in range(1, config.num_slices + 1):
            if j == 0:
                en = lv = top = ramp = False
            else:
                en = bool(lookup(v_en(i, j)))
                lv = bool(lookup(v_lv(i, j)))
                top = bool(lookup(v_top(i, j)))
                ramp = bool(lookup(v_ramp(i, j)))
            slices.append(SliceState(
                usr=int(lookup(v_usr(i, j))),
                shr=int(lookup(v_shr(i, j))),
                usg=int(lookup(v_usg(i, j))),
                resi=int(lookup(v_resi(i, j))),
                entries=int(lookup(v_ew(i, j))),
                en=en, lv=lv, top=top, ramp=ramp,
            ))
        rp = int(lookup(v_rp(j)))
        if j == 0:
            ovr = False
        else:
            ovr = bool(lookup(v_ovr(j)))
        states.append(SystemState(
            j=j,
            slices=tuple(slices),
            pt_shr=tuple(int(lookup(v_pt(k, j))) for k in config.partitions),
            rp_shr=rp,
            rp_ovr=ovr,
        ))
    return AllocationTrace(config=config, scenario=scenario,
                           states=tuple(states))

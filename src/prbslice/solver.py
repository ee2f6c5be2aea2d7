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
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
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


def solve(
    script: str,
    timeout: float = 120.0,
    command: str | Sequence[str] | None = None,
) -> SolverVerdict:
    """Run the solver on the script and return its verdict."""
    argv = resolve_solver_command(command)
    tmp_path = None
    stdin_text = script
    if any("{script}" in a for a in argv):
        fd, tmp_path = tempfile.mkstemp(suffix=".smt2", text=True)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(script)
        argv = [a.replace("{script}", tmp_path) for a in argv]
        stdin_text = ""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv,
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return SolverVerdict(status="timeout", model=None,
                             wall_time=time.monotonic() - started)
    except OSError as exc:
        raise SolverProcessError(f"could not run solver {argv!r}: {exc}") from exc
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    elapsed = time.monotonic() - started

    status = None
    lines = proc.stdout.splitlines()
    for at, line in enumerate(lines):
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            status = line
            break
        if line.startswith("(error"):
            raise SolverProcessError(f"solver reported an error: {line}")
    if status is None:
        raise SolverProcessError(
            f"solver produced no verdict (exit {proc.returncode}); "
            f"stdout={proc.stdout[:500]!r} stderr={proc.stderr[:500]!r}"
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

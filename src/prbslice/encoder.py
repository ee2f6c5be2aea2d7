"""Constraint emission: the allocation semantics as an SMT-LIB 2 script.

Each timestep contributes one block of assertions:

* slice layer: user-count, window-entry, and usage/residual updates, then the
  top-up / ramp-down signal rules at window boundaries;
* partition layer: at its window boundary each slice moves share and
  residual by its own cap (up on top-up, down on ramp-down, held otherwise),
  and each partition share moves by the sum of its members' moves;
* system layer: the residual-overuse flag, the per-service entry rules
  (argmin over user counts for multi-slice services, lowest id on ties), and
  one linear equation adding the partition moves back to the residual share.

Both upper layers are linear sums: at each step they emit one assertion per
slice, one per partition and one for the residual, so the script grows with
N*T rather than with the number of signal combinations.

The script is in definitional (SSA) form: every declared symbol has exactly
one definition -- a scenario flag, an initial value, or an update ``(= x e)``
(``(not flag)`` for a signal away from its boundary, the ``closure`` tag) --
and ``e`` names only symbols defined earlier in the script.  Guarded cases
are folded into ``ite`` terms, so a user event adds ``(ite en 1 0)`` and a
boundary move is ``cap`` times ``(ite top 1 0)`` minus ``(ite ramp 1 0)``;
away from a boundary ``frame`` definitions carry the shares over.  Every
assertion is a definition with a provenance tag, one of the TAGS below.

The scenario flags (``ser_e`` arrivals, ``sl_lv`` departures) are not
asserted: they are the script's assumptions, one literal each, passed to
``(check-sat-assuming ...)``, and they define their flags before any
assertion.  So the assertions -- the layout -- depend on the config alone,
and the script has exactly one model under the assumptions, which a solver
that reads it in order decides term by term on its first visit.  The
layout and its rendered text are built once per config and reused (a
one-entry cache), so a new scenario costs only its literals.
``layout_text()`` gives that text; the solver's warm child holds it
between solves and is then sent only what follows it.

Integer variables use the Int sort (every quantity is a count), booleans the
Bool sort.  A per-slice auxiliary Int holds the residual value after the
user-event update and before any share adjustment; both the signal rules and
the partition bodies read it, which is what makes a user event and a share
move at the same boundary compose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .model import NetworkConfig
from .scenario import ScenarioTrace

# The 5N + K + 1 + T(7N + K + 2) assertions emitted for N >= 1 slices fit in
# this multiple of constraint_count_bound(), the paper's analytic bound.
BOUND_MULTIPLIER = 2

# ``scenario`` and ``signal-conflict`` tag no assertion: the flags became
# assumptions, and top and ramp are disjoint for every cap >= 1 (a row of
# ``properties.check_all``).  Both stay in the vocabulary, whose per-tag
# counts are reported by name.
TAGS = (
    "initial", "scenario", "closure", "frame",
    "user-count", "window-entries", "usage-residual",
    "top-signal", "ramp-signal", "signal-conflict",
    "entry-single", "entry-argmin",
    "partition-adjust", "residual-adjust",
)


@dataclass(frozen=True)
class ConstraintSet:
    """Declarations plus tagged assertions (the layout) and the scenario's
    assumption literals, ready for text emission."""

    declarations: tuple[tuple[str, str], ...]   # (name, sort)
    assertions: tuple[tuple[str, str], ...]     # (tag, formula)
    assumptions: tuple[str, ...] = ()           # flag or (not flag)


# -- variable naming --------------------------------------------------------

def v_usr(i, j): return f"sl_usr_{i}_{j}"
def v_shr(i, j): return f"sl_shr_{i}_{j}"
def v_usg(i, j): return f"sl_usg_{i}_{j}"
def v_resi(i, j): return f"sl_resi_{i}_{j}"
def v_rmid(i, j): return f"sl_rmid_{i}_{j}"
def v_ew(i, j): return f"sl_ew_{i}_{j}"
def v_en(i, j): return f"sl_en_{i}_{j}"
def v_lv(i, j): return f"sl_lv_{i}_{j}"
def v_top(i, j): return f"sl_top_{i}_{j}"
def v_ramp(i, j): return f"sl_ramp_{i}_{j}"
def v_pt(k, j): return f"pt_shr_{k}_{j}"
def v_rp(j): return f"rp_shr_{j}"
def v_ovr(j): return f"rp_ovr_{j}"
def v_se(mu, j): return f"ser_e_{mu}_{j}"


def _and(*parts: str) -> str:
    return f"(and {' '.join(parts)})"


@dataclass(frozen=True)
class _Layout:
    config: NetworkConfig
    declarations: tuple[tuple[str, str], ...]
    assertions: tuple[tuple[str, str], ...]
    text: str                   # rendered up to the check-sat command


_last_layout: Optional[_Layout] = None


def encode(config: NetworkConfig, scenario: ScenarioTrace) -> ConstraintSet:
    """Build the full constraint system for (config, scenario): the
    config's layout, built once for a run of equal configs, and one
    assumption literal per scenario flag."""
    global _last_layout
    config.validate()
    scenario.check_dimensions(config)
    layout = _last_layout
    if layout is None or layout.config != config:
        _last_layout = None     # the old layout goes before the new is built
        decls, asserts = _encode_layout(config)
        # a copy, so that a partitions dict edited in place cannot match
        layout = _last_layout = _Layout(replace(config), decls, asserts,
                                        _render_layout(decls, asserts))
    literals = []
    for j in range(1, config.horizon + 1):
        for svc in config.services:
            flag = scenario.arrivals[svc.service_id - 1][j - 1]
            literals.append(_literal(v_se(svc.service_id, j), flag))
        for sl in config.slices:
            flag = scenario.departures[sl.slice_id - 1][j - 1]
            literals.append(_literal(v_lv(sl.slice_id, j), flag))
    return ConstraintSet(layout.declarations, layout.assertions,
                         tuple(literals))


def layout_text() -> Optional[str]:
    """The rendered text of the last encoded layout, up to its check-sat
    command, or None before the first ``encode``."""
    return None if _last_layout is None else _last_layout.text


def _literal(name: str, flag) -> str:
    return name if flag else f"(not {name})"


def _encode_layout(config: NetworkConfig):
    """The declarations and tagged assertions of a config, with the
    scenario flags left free."""
    horizon = config.horizon
    slices = config.slices
    floor = config.overuse_floor

    decls: list[tuple[str, str]] = []
    asserts: list[tuple[str, str]] = []

    def decl(name: str, sort: str) -> None:
        decls.append((name, sort))

    def emit(tag: str, formula: str) -> None:
        asserts.append((tag, formula))

    # declarations
    for j in range(horizon + 1):
        for sl in slices:
            i = sl.slice_id
            for fn in (v_usr, v_shr, v_usg, v_resi, v_ew):
                decl(fn(i, j), "Int")
            if j >= 1:
                decl(v_rmid(i, j), "Int")
                for fn in (v_en, v_lv, v_top, v_ramp):
                    decl(fn(i, j), "Bool")
        for k in config.partitions:
            decl(v_pt(k, j), "Int")
        decl(v_rp(j), "Int")
        if j >= 1:
            decl(v_ovr(j), "Bool")
            for svc in config.services:
                decl(v_se(svc.service_id, j), "Bool")

    # initial state
    for sl in slices:
        i, cap = sl.slice_id, sl.usage_cap
        emit("initial", f"(= {v_usr(i, 0)} 0)")
        emit("initial", f"(= {v_usg(i, 0)} 0)")
        emit("initial", f"(= {v_ew(i, 0)} 0)")
        emit("initial", f"(= {v_shr(i, 0)} {cap})")
        emit("initial", f"(= {v_resi(i, 0)} {cap})")
    for k, members in config.partitions.items():
        total = sum(slices[i - 1].usage_cap for i in members)
        emit("initial", f"(= {v_pt(k, 0)} {total})")
    emit("initial", f"(= {v_rp(0)} {config.initial_residual})")

    for j in range(1, horizon + 1):
        # residual-overuse flag from the previous residual share
        emit("closure", f"(= {v_ovr(j)} (< {v_rp(j - 1)} {floor}))")

        # per-service entry rules: a multi-slice service enters its slice
        # with the fewest users, the lowest id on a tie
        for svc in config.services:
            mu = svc.service_id
            owned = [sl.slice_id for sl in config.service_slices(mu)]
            for c in owned:
                comps = [f"({'<=' if c < s else '<'} {v_usr(c, j - 1)} "
                         f"{v_usr(s, j - 1)})" for s in owned if s != c]
                emit("entry-argmin" if comps else "entry-single",
                     f"(= {v_en(c, j)} "
                     f"{_and(f'(not {v_ovr(j)})', v_se(mu, j), *comps)})")

        # slice layer
        for sl in slices:
            i, cap = sl.slice_id, sl.usage_cap
            en, lv = v_en(i, j), v_lv(i, j)
            step = f"(ite {en} 1 0)"
            emit("user-count", f"(= {v_usr(i, j)} "
                 f"(- (+ {v_usr(i, j - 1)} {step}) (ite {lv} 1 0)))")
            emit("window-entries", f"(= {v_ew(i, j)} " + (
                f"{step})" if j % sl.t_win == 1 % sl.t_win
                else f"(+ {v_ew(i, j - 1)} {step}))"))

            inc = _and(en, f"(not {lv})",
                       f"(= (mod {v_usr(i, j)} {sl.m}) {1 % sl.m})")
            dec = _and(f"(not {en})", lv, f"(= (mod {v_usr(i, j)} {sl.m}) 0)")
            d = f"(- (ite {inc} 1 0) (ite {dec} 1 0))"
            emit("usage-residual",
                 _and(f"(= {v_usg(i, j)} (+ {v_usg(i, j - 1)} {d}))",
                      f"(= {v_rmid(i, j)} (- (+ {v_resi(i, j - 1)} "
                      f"{v_usg(i, j - 1)}) {v_usg(i, j)}))"))

            top, ramp, rmid = v_top(i, j), v_ramp(i, j), v_rmid(i, j)
            if j % sl.t_win == 0:
                emit("top-signal", f"(= {top} (and "
                     f"(not {v_ovr(j)}) (<= {rmid} {cap})))")
                emit("ramp-signal", f"(= {ramp} (and "
                     f"(>= (- {rmid} {cap}) {cap}) (= {v_ew(i, j)} 0)))")
            else:
                emit("closure", f"(not {top})")
                emit("closure", f"(not {ramp})")

        # partition layer: a boundary slice moves share and residual by its
        # own cap, the partition share by the sum of its members' moves
        for k, members in config.partitions.items():
            moves = []
            for sl in (slices[i - 1] for i in members):
                i, cap = sl.slice_id, sl.usage_cap
                shr, shr_prev = v_shr(i, j), v_shr(i, j - 1)
                resi, rmid = v_resi(i, j), v_rmid(i, j)
                if j % sl.t_win != 0:
                    emit("frame", _and(f"(= {shr} {shr_prev})",
                                       f"(= {resi} {rmid})"))
                    continue
                mv = (f"(* {cap} (- (ite {v_top(i, j)} 1 0) "
                      f"(ite {v_ramp(i, j)} 1 0)))")
                emit("partition-adjust", _and(f"(= {shr} (+ {shr_prev} {mv}))",
                                              f"(= {resi} (+ {rmid} {mv}))"))
                moves.append(f"(- {shr} {shr_prev})")
            if moves:
                emit("partition-adjust", f"(= {v_pt(k, j)} "
                     f"(+ {v_pt(k, j - 1)} {' '.join(moves)}))")
            else:
                emit("frame", f"(= {v_pt(k, j)} {v_pt(k, j - 1)})")

        # system layer: the residual absorbs the net partition moves
        give_back = " ".join(f"(- {v_pt(k, j - 1)} {v_pt(k, j)})"
                             for k in config.partitions)
        emit("residual-adjust",
             f"(= {v_rp(j)} (+ {v_rp(j - 1)} {give_back}))")

    return tuple(decls), tuple(asserts)


def _render_layout(declarations, assertions) -> str:
    lines = ["(set-logic QF_LIA)"]
    for name, sort in declarations:
        lines.append(f"(declare-const {name} {sort})")
    for tag, formula in assertions:
        lines.append(f"; [{tag}]")
        lines.append(f"(assert {formula})")
    lines.append("")
    return "\n".join(lines)


def emit_smtlib(cs: ConstraintSet) -> str:
    """Render a ConstraintSet as a deterministic SMT-LIB 2 script: the
    layout, then ``(check-sat-assuming (literals))``, or ``(check-sat)``
    when there are no assumptions, and ``(get-model)`` when anything is
    declared.  The layout text of the last encoded config is reused."""
    layout = _last_layout
    if (layout is not None and cs.declarations is layout.declarations
            and cs.assertions is layout.assertions):
        text = layout.text
    else:
        text = _render_layout(cs.declarations, cs.assertions)
    tail = (f"(check-sat-assuming ({' '.join(cs.assumptions)}))\n"
            if cs.assumptions else "(check-sat)\n")
    if cs.declarations:
        tail += "(get-model)\n"
    return text + tail

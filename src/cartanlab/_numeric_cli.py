"""The numeric commands of ``cartanlab``: represent, oracle, spectral, msd
and mtr.  ``cli.main`` builds the document's extension and calls the
command's handler with (S, ext, names, args); each returns (exit code,
text lines, JSON payload).  Only these commands execute this module, and
it binds the numeric modules lazily, as ``cli`` does: ``represent``
executes ``kernel_rep`` alone.
"""

from __future__ import annotations

from ._lazy import _lazy_import
from .errors import SPECTRAL_GUARD, InvariantViolation

kernel_rep = _lazy_import("cartanlab.kernel_rep")
vn_oracle = _lazy_import("cartanlab.vn_oracle")
spectral_bimodule = _lazy_import("cartanlab.spectral_bimodule")


def _cmd_represent(S, ext, names, args):
    rs = kernel_rep.RepSpace(ext, tol=args.tol)
    inv = {v: n for n, v in names.items()}
    chunks = []
    for s in S:
        label = inv.get(s, repr(s))
        chunks.append(f"# section {label}")
        chunks.append(kernel_rep.dump_matrix(rs.rbasis, ext.k, rs.monomial(rs.j[s])).rstrip("\n"))
    text = "\n".join(chunks) + "\n"
    payload = {"dim": len(rs.rbasis), "k": ext.k, "dump": text}
    return 0, [text.rstrip("\n")], payload


def _cmd_oracle(S, ext, names, args):
    rep = vn_oracle.cartan_report(ext, tol=args.tol)
    lines = rep.to_lines()
    payload = {
        "passed": rep.passed,
        "dim_M": rep.dim_M,
        "dim_D": rep.dim_D,
        "dim_R": rep.dim_R,
        "masa": rep.masa.is_masa,
        "center_dimension": rep.masa.center_dimension,
        "recovered_size": rep.recovered_size,
        "recovery_isomorphism": list(rep.recovery_iso) if rep.recovery_iso else None,
    }
    return (0 if rep.passed else 1), lines, payload


def _cmd_spectral(S, ext, names, args):
    """Round-trips every mask when there are at most 64, in ``masks`` order,
    and otherwise 64 distinct masks drawn with seed 0, in increasing order."""
    from random import Random  # here, so that represent does not load random

    guard = SPECTRAL_GUARD if args.guard is None else args.guard
    idx = spectral_bimodule._trace_index(S)
    count = 1 << idx._guarded_count(guard)
    sample = list(idx.masks(guard)) if count <= 64 else sorted(Random(0).sample(range(count), 64))
    rs = kernel_rep.RepSpace(ext, tol=args.tol)
    psi, theta = spectral_bimodule.psi, spectral_bimodule.theta
    witness = None
    for X in sample:
        A = idx.members(X)
        try:
            if theta(rs, psi(rs, A)) != A:
                witness = f"spectral set of mask {X:#x}: theta(psi(A)) != A"
        except InvariantViolation as exc:  # a tol past the matrices' norms splits the two readings
            witness = f"spectral set of mask {X:#x}: {exc}"
        if witness:
            break
    ok = witness is None
    lines = [
        f"spectral_sets: {count}",
        f"round_trip_checked: {len(sample)}",
        f"round_trip: {'pass' if ok else 'FAIL'}",
    ]
    payload = {"count": count, "round_trip": ok, "checked": len(sample)}
    if witness:
        lines.append(f"  witness: {witness}")
        payload["witness"] = witness
    return (0 if ok else 1), lines, payload


def _cmd_msd(S, ext, names, args):
    """``msd``, and ``mtr`` (the maximal triangular members) under that name."""
    triangular = args.command == "mtr"
    search = spectral_bimodule.mtr if triangular else spectral_bimodule.msd
    guard = SPECTRAL_GUARD if args.guard is None else args.guard
    members = search(S, guard=guard)
    rs = kernel_rep.RepSpace(ext, tol=args.tol)
    inv = {v: n for n, v in names.items()}
    lines = [f"{'mtr' if triangular else 'msd'}_count: {len(members)}"]
    all_ok = True
    payload_members = []
    for A in members:
        try:
            rep = spectral_bimodule.verify_subdiagonal(rs, A, guard=guard)
            ok, detail, report = rep.passed, rep.to_lines(), vars(rep)
        except InvariantViolation as exc:  # a tol below rounding splits a span from the diagonal's
            ok, detail, report = False, [f"witness: {exc}"], {"witness": str(exc)}
        all_ok &= ok
        labels = sorted(inv.get(s, repr(s)) for s in A)
        lines.append(f"member ({len(A)} elements): {'pass' if ok else 'FAIL'}")
        lines += ["  " + ln for ln in detail]
        payload_members.append({"elements": labels, "passed": ok, **report})
    payload = {"count": len(members), "members": payload_members, "passed": all_ok}
    return (0 if all_ok else 1), lines, payload


_cmd_mtr = _cmd_msd

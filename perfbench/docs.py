"""Seeded document builder.

The base documents come from ``cartanlab gen``; everything else is built
here from the seed with plain dictionary arithmetic, so the benchmark never
asks the code under test to produce its own inputs:

- ``twist``: a point-coboundary cocycle table c(s,t)(y) = b(st(y), t(y)) +
  b(t(y), y) - b(st(y), y) mod k, for a random phase function b on related
  atom pairs that vanishes on the diagonal.  Every such table is a valid,
  normalized, cohomologically trivial cocycle.
- ``relabel``: the conjugate of every element by a random atom permutation.
- ``tamper``: one cocycle entry at a pair of non-idempotents bumped by 1,
  on a point y with |dom(st)| >= 2.  With e the identity on {y}, the
  cocycle identity at (s, t, e) forces c(s,t)(y) = c(s,te)(y), and te != t,
  so the tampered table must fail the identity check.
"""

from __future__ import annotations

import json
import random


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def maps(doc):
    """(name, {src: dst}) for every element of a document."""
    return [(e["name"], {int(a): b for a, b in e["map"].items()}) for e in doc["elements"]]


def _compose(s, t):
    return {y: s[x] for y, x in t.items() if x in s}


def _is_idempotent(m):
    return all(a == b for a, b in m.items())


def twist(doc, k, rng):
    """A copy of ``doc`` at phase order k with a random point-coboundary table."""
    elems = maps(doc)
    pairs = sorted({(x, y) for _, m in elems for y, x in m.items()})
    b = {(x, y): (rng.randrange(k) if x != y else 0) for x, y in pairs}
    cocycle = []
    for s_name, s in elems:
        for t_name, t in elems:
            st = _compose(s, t)
            if not st:
                continue
            phase = [(b[(st[y], t[y])] + b[(t[y], y)] - b[(st[y], y)]) % k for y in sorted(st)]
            cocycle.append({"s": s_name, "t": t_name, "phase": phase})
    out = dict(doc, k=k, cocycle=cocycle)
    out["metadata"] = dict(doc.get("metadata", {}), twisted=f"point coboundary mod {k}")
    return out


def relabel(doc, rng):
    """The conjugate of ``doc`` by a random atom permutation, untwisted."""
    perm = list(range(doc["atoms"]))
    rng.shuffle(perm)
    elements = [
        {"name": f"r{i:03d}", "map": {str(perm[y]): perm[x] for y, x in sorted(m.items())}}
        for i, (_, m) in enumerate(maps(doc))
    ]
    meta = dict(doc.get("metadata", {}), relabeled=perm)
    return {"atoms": doc["atoms"], "k": doc["k"], "elements": elements, "metadata": meta}


def tamper(doc, rng):
    """A copy of a twisted ``doc`` with one non-idempotent entry bumped by 1."""
    by_name = dict(maps(doc))
    candidates = [
        i
        for i, e in enumerate(doc["cocycle"])
        if len(e["phase"]) >= 2
        and not _is_idempotent(by_name[e["s"]])
        and not _is_idempotent(by_name[e["t"]])
    ]
    i = rng.choice(candidates)
    entry = doc["cocycle"][i]
    phase = list(entry["phase"])
    p = rng.randrange(len(phase))
    phase[p] = (phase[p] + 1) % doc["k"]
    cocycle = list(doc["cocycle"])
    cocycle[i] = dict(entry, phase=phase)
    out = dict(doc, cocycle=cocycle)
    out["metadata"] = dict(doc.get("metadata", {}), tampered=[entry["s"], entry["t"], p])
    return out


def rng_for(seed, stream):
    """Independent generator per (seed, stream): the second seed of a twin
    is the same workload seed on another stream."""
    return random.Random(f"{seed}:{stream}")

"""``run.py compare A.json B.json``: did B get worse than A?

Both files are suite results of the same seed and scale.  One verdict
per (workload, end-to-end metric), against the metric's ``same_seed``
bound (``metrics.py``):

``better`` / ``worse``
    the metric moved by more than the bound, and the move is resolved;
``same``
    it stayed within the bound;
``unresolved``
    the reps' min-max ranges overlap and are wider than the bound, so
    the runs cannot tell a move of that size from noise -- reported as
    unresolved, never as unchanged.

Exact metrics carry no noise on one seed, so only the first three apply
to them; any drop of ``completed_share`` is ``worse``, and so is a
higher ``failed`` count.  The digest, the event count and the RPC tally
of every workload must be identical (``differs`` otherwise): that is
what "the same program on the same inputs" means, and what a speed-only
change must keep.  A change that declares a digest epoch (ROADMAP 2(c))
passes ``--digest-epoch``, which reports those three as ``epoch`` and
lets them pass.  A workload of A that B does not have is ``missing``.
Exit code 1 on any ``worse``, ``differs`` or ``missing``.
"""

from __future__ import annotations

import argparse
import json

from metrics import END_TO_END, Metric

FAILING = ("worse", "differs", "missing")
#: what, besides the metrics, repeats bit for bit on one seed and scale
IDENTITY = ("digest", "events", "rpcs")


def _disjoint(a: dict, b: dict) -> bool:
    return a["max"] < b["min"] or b["max"] < a["min"]


def verdict(metric: Metric, a: dict, b: dict) -> tuple:
    """``(verdict, worsening)`` for one metric between two results.

    `a` and `b` are ``{"value": median, "min": ..., "max": ...}`` over
    the timing reps of each side.
    """
    worsening = metric.worsening(a["value"], b["value"])
    bound = metric.same_seed
    if not metric.exact:
        spread = max(((side["max"] - side["min"]) / abs(side["value"])
                      for side in (a, b) if side["value"]), default=0.0)
        if spread > bound and not _disjoint(a, b):
            return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def _shown(key: str, value) -> object:
    """An identity value as one table cell."""
    if key == "digest":
        return value[:12]
    return sum(value.values()) if key == "rpcs" else value


def compare(a: dict, b: dict, digest_epoch: bool = False) -> list:
    """Rows ``(workload, what, verdict, worsening, a, b)``."""
    for key in ("seed", "scale"):
        if a["environment"][key] != b["environment"][key]:
            raise ValueError(
                f"results differ in {key} ({a['environment'][key]} vs "
                f"{b['environment'][key]}): exact metrics only compare "
                "on the same inputs")
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append((name, "(workload)", "missing", 0.0, "present", "-"))
            continue
        for metric in END_TO_END:
            ma, mb = wa["end_to_end"][metric.name], \
                wb["end_to_end"][metric.name]
            rows.append((name, metric.name, *verdict(metric, ma, mb),
                         ma["value"], mb["value"]))
        rows.append((name, "failed",
                     "worse" if wb["failed"] > wa["failed"] else "same", 0.0,
                     wa["failed"], wb["failed"]))
        for key in IDENTITY:
            if wa[key] != wb[key]:
                rows.append((name, key,
                             "epoch" if digest_epoch else "differs", 0.0,
                             _shown(key, wa[key]), _shown(key, wb[key])))
    return rows


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    parser.add_argument("--digest-epoch", action="store_true",
                        help="B declares a digest epoch: digest, event "
                             "count and RPC tally may differ")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        rows = compare(json.load(fa), json.load(fb), args.digest_epoch)
    print(f"{'workload':<16} {'metric':<18} {'verdict':<11} "
          f"{'worse by':>9}  {'A':>14} {'B':>14}")
    for name, metric, what, worsening, va, vb in rows:
        fmt = "{:>14.4f}" if isinstance(va, float) else "{:>14}"
        print(f"{name:<16} {metric:<18} {what:<11} {worsening:>+9.2%}  "
              + fmt.format(va) + " " + fmt.format(vb))
    counts = {what: sum(r[2] == what for r in rows)
              for what in FAILING + ("unresolved", "better")}
    print("\n" + ", ".join(f"{n} {what}" for what, n in counts.items()))
    return 1 if any(counts[what] for what in FAILING) else 0

"""Correctness gate applied to every repeat.

A repeat attempts one certification per norm order of its workload. A
certification fails when it is not satisfied, when the loop is not stable,
when its p = 2 ratio leaves the workload's band, or when the repeat as a
whole is wrong: the child crashed, the CLI exit code is not 0, or the
certification rows and tail norms differ from the first repeat of the
same seed.
"""

from __future__ import annotations

import hashlib
import json


def rows_and_digest(w, record: dict, stdout: bytes):
    """Certification rows of a repeat and a digest of what must repeat exactly.

    For the CLI the digest covers the whole report except the manifest
    timestamp; for the API it covers the certification rows and the tail
    norms. Raises ValueError when the CLI report is not JSON.
    """
    if w.kind == "cli":
        report = json.loads(stdout.decode("utf-8"))
        report.get("manifest", {}).pop("timestamp", None)
        rows = report.get("results", [])
        body = report
        stable = bool(report.get("stable"))
    else:
        rows = record["rows"]
        body = {
            "rows": rows,
            "tails": record["tails"],
            "stable": record["stable"],
            "diverged": record["diverged"],
        }
        stable = record["stable"]
    text = json.dumps(body, sort_keys=True, allow_nan=True)
    return rows, stable, hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(w, record: dict | None, stdout: bytes, reference: str | None):
    """Return (failed certifications, problems, digest, rows) for one repeat.

    ``reference`` is the digest of the first good repeat of this seed, or
    None for the first repeat.
    """
    attempted = len(w.p_list)
    if record is None:
        return attempted, ["child process failed"], None, []
    if w.kind == "cli" and record.get("exit_code") != 0:
        return attempted, [f"CLI exit code {record.get('exit_code')}"], None, []
    try:
        rows, stable, digest = rows_and_digest(w, record, stdout)
    except (ValueError, KeyError) as exc:
        return attempted, [f"unreadable result: {exc}"], None, []

    problems = []
    if reference is not None and digest != reference:
        problems.append("certification rows or tail norms differ from the first repeat")
    if not stable:
        problems.append("loop not stable")
    if len(rows) != attempted:
        problems.append(f"{len(rows)} certifications, expected {attempted}")
    if problems:
        return attempted, problems, digest, rows

    failed = 0
    for row in rows:
        bad = not row["satisfied"]
        if bad:
            problems.append(f"p={row['p']}: not satisfied (ratio {row['ratio']})")
        if row["p"] == 2.0 and w.p2_band is not None:
            lo, hi = w.p2_band
            if not lo <= row["ratio"] <= hi:
                bad = True
                problems.append(f"p=2 ratio {row['ratio']} outside [{lo:.4f}, {hi:.4f}]")
        failed += bad
    return failed, problems, digest, rows

"""Correctness verdict for every op, against reference.json and cheap oracles.

A verdict is ``ok``, ``known-defect`` (the op fails in the way recorded in
KNOWN_DEFECTS) or ``fail`` (anything else).  Known defects count as failed
ops but do not make the run incorrect; a fixed defect simply turns ``ok``.

Exact counts must match the reference.  A cell certified in the reference
must stay certified with the same threshold; an uncertified cell may become
certified, at or below the reference's upper bound.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

KNOWN_DEFECTS = {
    "torus-entropy": "entropy --in count.csv exits 2: first column must be t",
    "torus-report": "flat report fits an exponential to a quadratic count: h_est > 0.05, 'inconsistent'",
    "billiard-recursion": "recursion-check exits 3: a wall blocking point becomes the next endpoint",
}


class Verdict:
    def __init__(self) -> None:
        self.status = "ok"
        self.detail: list[str] = []
        self.certified = 0
        self.cells = 0

    def fail(self, msg: str) -> None:
        self.status = "fail"
        self.detail.append(msg)

    def defect(self, msg: str) -> None:
        if self.status == "ok":
            self.status = "known-defect"
        self.detail.append(msg)

    def cell(self, certified: bool) -> None:
        self.cells += 1
        self.certified += int(certified)


def _t(value) -> str:
    return format(float(value), "g")


def parse_count(out: Path) -> dict[str, list]:
    with open(out / "count.csv", newline="") as fh:
        return {f'{r["x"]}|{r["y"]}|{_t(r["t"])}': [int(r["n"]), int(r["m"]), r["status"]]
                for r in csv.DictReader(fh)}


def parse_block(out: Path) -> dict[str, list]:
    """cell -> [s, certified, midpoint_upper]"""
    with open(out / "block.csv", newline="") as fh:
        return {f'{r["x"]}|{r["y"]}|{_t(r["t"])}': [int(r["s"]), r["optimal"] == "1", r["midpoint_upper"]]
                for r in csv.DictReader(fh)}


def parse_verify(out: Path) -> dict[str, list]:
    """cell -> [n, m, s, certified] from the chain rows of verify.json"""
    cells: dict[str, list] = {}
    for row in json.loads((out / "verify.json").read_text())["checks"]:
        ctx = row["context"]
        if row["name"] not in ("chain-lower", "chain-upper"):
            continue
        cell = cells.setdefault(f'{ctx["x"]}|{ctx["y"]}|{_t(ctx["t"])}', [None, None, None, None])
        if row["name"] == "chain-lower":
            cell[2], cell[1], cell[3] = int(row["lhs"]), int(row["rhs"]), row["caveat"] is None
        else:
            cell[1], cell[0] = int(row["lhs"]), int(row["rhs"])
    return cells


def parse_octagon(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    return {
        "counts": [e["count"] for e in report["series"]],
        "certified": [e["certified"] for e in report["series"]],
        "rate_of_counts": report["rate_of_counts"],
        "verdict": report["verdict"],
    }


def _thresholds(v: Verdict, got: dict[str, list], ref: dict[str, list], s_at: int, cert_at: int,
                cells: int) -> None:
    if len(got) != cells:
        v.fail(f"{len(got)} result cells, expected {cells}")
    for key, row in got.items():
        want = ref.get(key)
        if want is None:
            v.fail(f"{key}: no reference value")
            continue
        s, cert = row[s_at], row[cert_at]
        v.cell(cert)
        if want[cert_at] and not (cert and s == want[s_at]):
            v.fail(f"{key}: reference s={want[s_at]} certified, got s={s} certified={cert}")
        elif cert and s > want[s_at]:
            v.fail(f"{key}: certified s={s} above the reference upper bound {want[s_at]}")


def check_op(op: dict, res: dict, reference: dict) -> Verdict:
    v = Verdict()
    name, kind, chk = op["name"], op["kind"], op["check"]
    out = Path(op["out"])
    code, stderr = res["code"], res["stderr"]
    if res["error"]:
        v.fail("raised: " + res["error"].strip().splitlines()[-1])
        return v
    try:
        if kind == "entropy":
            if code == 2 and "first column must be t" in stderr:
                v.defect(KNOWN_DEFECTS[name])
            elif code != 0:
                v.fail(f"exit {code}: {stderr.strip()}")
            else:
                fit = json.loads((out / "entropy.json").read_text())
                # n_t ~ pi t^2 / covolume on a flat torus
                if fit["kind"] != "polynomial" or abs(fit["parameter"] - 2) > 0.1:
                    v.fail(f"polynomial exponent {fit['parameter']} is not within 0.1 of 2")
            return v
        if kind == "recursion":
            if code == 3 and "billiard endpoints must be interior" in stderr:
                v.defect(KNOWN_DEFECTS[name])
            elif code not in (0, 1):
                v.fail(f"exit {code}: {stderr.strip()}")
            else:
                reports = json.loads((out / "recursion.json").read_text())["reports"]
                for rep in reports:
                    v.cell(rep["report"]["certified"])
                    bad = [c["name"] for c in rep["report"]["checks"] if not c["pass"]]
                    if any(b.startswith("terminal-uniqueness") for b in bad):
                        v.defect(f'{KNOWN_DEFECTS[name]} (t={rep["t"]}: terminal-uniqueness fails)')
                    elif bad:
                        v.fail(f'pair {rep["pair"]} t={rep["t"]}: {bad}')
            return v
        if code != 0:
            v.fail(f"exit {code}: {stderr.strip()}")
            return v
        ref = reference.get(chk.get("ref"))
        if kind == "flat-report":
            report = json.loads((out / "report.json").read_text())
            if report["threshold_max"] != 0:
                v.fail(f"threshold_max {report['threshold_max']} but no t is under threshold_t_max")
            if report["verdict"].startswith("inconsistent with zero entropy") and report["h_est"] > 0.05:
                v.defect(f"{KNOWN_DEFECTS[name]} (h_est={report['h_est']})")
            elif not report["verdict"].startswith("consistent with zero entropy"):
                v.fail(f"verdict {report['verdict']!r}")
        elif kind == "count":
            got = parse_count(out)
            if got.keys() != ref.keys():
                v.fail("count.csv cells differ from the reference")
            for key, (n, m, status) in got.items():
                v.cell(status == "exact")
                if key in ref and [n, m] != ref[key][:2]:
                    v.fail(f"{key}: (n, m) = ({n}, {m}), reference {tuple(ref[key][:2])}")
        elif kind == "octagon-report":
            got = parse_octagon(out)
            for cert in got["certified"]:
                v.cell(cert)
            if got["counts"] != ref["counts"]:
                v.fail(f"orbit counts {got['counts']} differ from the reference {ref['counts']}")
            if any(r and not g for r, g in zip(ref["certified"], got["certified"])):
                v.fail("a cell certified in the reference is no longer certified")
            # entropy of a closed hyperbolic surface of curvature -1 is 1
            if got["rate_of_counts"] is None or abs(got["rate_of_counts"] - 1) > 0.1:
                v.fail(f"rate_of_counts {got['rate_of_counts']} is not within 0.1 of 1")
            if not got["verdict"].startswith("consistent"):
                v.fail(f"verdict {got['verdict']!r}")
        elif kind == "verify":
            got = parse_verify(out)
            for key, row in got.items():
                if key in ref and row[:2] != ref[key][:2]:
                    v.fail(f"{key}: (n, m) = {tuple(row[:2])}, reference {tuple(ref[key][:2])}")
            _thresholds(v, got, ref, 2, 3, chk["cells"])
        elif kind == "block":
            got = parse_block(out)
            _thresholds(v, got, ref, 0, 1, chk["cells"])
            for key, row in got.items():
                if key in ref and row[2] != ref[key][2]:
                    v.fail(f"{key}: midpoint_upper {row[2]!r}, reference {ref[key][2]!r}")
                if "anchor" in chk and row[:2] != [chk["anchor"], True]:
                    v.fail(f"{key}: anchor s={chk['anchor']} certified, got s={row[0]} certified={row[1]}")
        else:
            v.fail(f"unknown op kind {kind!r}")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        v.fail(f"unreadable output: {exc!r}")
    return v

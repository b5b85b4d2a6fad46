"""Regenerate EXPERIMENTS.md: ``python -m repro.experiments [--quick] [ids]``."""

from __future__ import annotations

import sys
import time

from .runners import REGISTRY, ExperimentResult, run_all


def render_markdown(results: list) -> str:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.experiments`.  Each experiment",
        "regenerates one artifact of *Nearest-Neighbor Searching Under*",
        "*Uncertainty II* (PODS 2013); each runner's docstring in",
        "`repro.experiments.runners` names its paper artifact.  Timings",
        "are from the machine that produced this file and matter only for",
        "growth trends, not absolute values.",
        "",
    ]
    for res in results:
        status = "PASS" if res.passed else "CHECK"
        lines.append(f"## {res.exp_id} — {res.title}  [{status}]")
        lines.append("")
        lines.append(f"**Paper claim.** {res.paper_claim}")
        lines.append("")
        if res.rows:
            headers = list(res.rows[0].keys())
            lines.append("| " + " | ".join(str(h) for h in headers) + " |")
            lines.append("|" + "|".join("---" for _ in headers) + "|")
            for row in res.rows:
                lines.append("| " + " | ".join(
                    str(row.get(h, "")) for h in headers) + " |")
            lines.append("")
        lines.append(f"**Measured.** {res.conclusion}")
        lines.append("")
    return "\n".join(lines)


def main(argv: list) -> int:
    quick = "--quick" in argv
    ids = [a for a in argv if a.startswith("E")]
    results: list = []
    t_start = time.time()
    if ids:
        for exp_id in ids:
            print(f"running {exp_id} ...", flush=True)
            results.append(REGISTRY[exp_id](quick))
    else:
        for exp_id, runner in sorted(REGISTRY.items(),
                                     key=lambda kv: int(kv[0][1:])):
            print(f"running {exp_id} ...", flush=True)
            results.append(runner(quick))
    out = render_markdown(results)
    if ids:
        print(out)
    else:
        with open("EXPERIMENTS.md", "w", encoding="utf-8") as handle:
            handle.write(out)
        print(f"wrote EXPERIMENTS.md ({len(results)} experiments, "
              f"{time.time() - t_start:.1f}s)")
    failed = [r.exp_id for r in results if not r.passed]
    if failed:
        print(f"experiments needing attention: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

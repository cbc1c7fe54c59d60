"""Report files: results.json, summary.csv and areagraph.csv.

All three files are deterministic functions of the results (fixed key order,
repr float formatting, no timestamps), so a rerun with the same master seed
reproduces them byte for byte.

summary.csv columns: estimator, test, mc_bar (the estimator's MC averaged
over its tests), mc, iac_nr, iac_ar, iec_nr, iec_ar.

areagraph.csv holds the 2-D vertices of the per-cell consistency polygon:
noise-resilience criteria on the positive axes (iac_nr -> +x, iec_nr -> +y)
and adversary-reactivity criteria on the negative axes (iac_ar -> -x,
iec_ar -> -y).
"""
import json
import os
from dataclasses import asdict

SUMMARY_COLUMNS = ("estimator", "test", "mc_bar", "mc", "iac_nr", "iac_ar", "iec_nr", "iec_ar")
AREA_VERTICES = (
    ("iac_nr", lambda v: (v, 0.0)),
    ("iec_nr", lambda v: (0.0, v)),
    ("iac_ar", lambda v: (-v, 0.0)),
    ("iec_ar", lambda v: (0.0, -v)),
)


def results_payload(results: dict, config_echo: dict, master_seed: int) -> dict:
    """The full JSON payload: per-cell means, stds, iterations, diagnostics."""
    cells = []
    for estimator_id, test in sorted(results):
        cell = results[(estimator_id, test)]
        cells.append(
            {
                "estimator": estimator_id,
                "test": test,
                "mean": asdict(cell.mean),
                "std": cell.std,
                "iterations": [asdict(v) for v in cell.per_iteration],
                "diagnostics": {
                    "dropped_samples": cell.diagnostics["dropped"],
                    "undefined_estimates": cell.diagnostics["undefined"],
                    "total_estimates": cell.diagnostics["total"],
                    "mean_perturbation_attempts": cell.diagnostics["mean_attempts"],
                },
            }
        )
    return {"master_seed": master_seed, "config": config_echo, "cells": cells}


def mc_bar(results: dict, estimator_id: str) -> float:
    mcs = [cell.mean.mc for (e, _), cell in sorted(results.items()) if e == estimator_id]
    return sum(mcs) / len(mcs)


def summary_rows(results: dict) -> list:
    rows = []
    for estimator_id, test in sorted(results):
        mean = results[(estimator_id, test)].mean
        rows.append(
            (
                estimator_id,
                test,
                mc_bar(results, estimator_id),
                mean.mc,
                mean.iac_nr,
                mean.iac_ar,
                mean.iec_nr,
                mean.iec_ar,
            )
        )
    return rows


def write_report(results: dict, config_echo: dict, master_seed: int, out_dir) -> dict:
    """Write the three report files; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "results": os.path.join(out_dir, "results.json"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "areagraph": os.path.join(out_dir, "areagraph.csv"),
    }

    payload = results_payload(results, config_echo, master_seed)
    with open(paths["results"], "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lines = [",".join(SUMMARY_COLUMNS)]
    for row in summary_rows(results):
        lines.append(",".join(part if isinstance(part, str) else repr(part) for part in row))
    with open(paths["summary"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    lines = ["estimator,test,criterion,x,y"]
    for estimator_id, test in sorted(results):
        vector = results[(estimator_id, test)].mean
        for criterion, place in AREA_VERTICES:
            x, y = place(getattr(vector, criterion))
            lines.append(f"{estimator_id},{test},{criterion},{x!r},{y!r}")
    with open(paths["areagraph"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return paths

"""Assemble EXPERIMENTS.md from the benchmark result files.

Every bench in ``benchmarks/`` writes its reproduction table to
``benchmarks/results/<id>.txt``. This module stitches those tables
together with the paper's reference findings into a single
paper-vs-measured document, so the record always reflects the latest
bench run:

    python -m repro.experiments.report [results_dir] [output_md]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper, reproduced by
`pytest benchmarks/ --benchmark-only`. Each bench asserts the paper's
qualitative *shape* (who wins, by roughly what factor, where crossovers
fall); absolute numbers differ because the substrate is a numpy + DES
simulation rather than a P100 testbed (see DESIGN.md for the
substitution map). Measured tables below are the verbatim output of the
latest bench run (`benchmarks/results/`).
"""


@dataclass(frozen=True)
class ExperimentEntry:
    """One paper artefact: reference claim + result files + notes."""

    artefact: str
    result_ids: Sequence[str]
    paper_claim: str
    reproduction_notes: str = ""


REGISTRY: List[ExperimentEntry] = [
    ExperimentEntry(
        "Fig. 1a — one-day traffic vs deadline miss rate",
        ["fig1a"],
        "The Original ensemble's DMR strongly correlates with the query "
        "load and reaches ~45% during the burst.",
        "Reproduced: DMR/load correlation > 0.5 and peak-hour DMR in the "
        "paper's range; night hours barely miss.",
    ),
    ExperimentEntry(
        "Fig. 1b — ensemble vs base models",
        ["fig1b"],
        "The ensemble improves accuracy over every base model but is as "
        "slow as its slowest member; 78.3% of samples are solved by any "
        "single model and <11% need all three.",
        "Reproduced, including the redundancy fractions (any-single "
        "> 0.6, needs-all < 0.15 on the synthetic substrate).",
    ),
    ExperimentEntry(
        "Fig. 4 — discrepancy score analysis",
        ["fig4a", "fig4b"],
        "Scores are heavily skewed toward easy; every combination is "
        ">90% accurate on easy bins while small combinations degrade "
        "sharply on hard bins.",
        "Per-bin degradation reproduced (monotone trend asserted). The "
        "paper's spike at exactly zero softens here: numpy MLPs never "
        "agree bit-for-bit, so the mass sits at the low end rather than "
        "at 0.",
    ),
    ExperimentEntry(
        "Fig. 5 — preference variance",
        ["fig5"],
        "Model preferences correlate weakly across architectures and "
        "random seeds; the discrepancy score stays stable across seeds.",
        "Reproduced: discrepancy cross-seed correlation exceeds every "
        "preference correlation.",
    ),
    ExperimentEntry(
        "Figs. 6-8 + Table I — overall accuracy & DMR",
        ["fig6", "fig7", "fig8", "table1"],
        "Schemble achieves the best accuracy on all tasks (TM 91.2, VC "
        "80.4, IR mAP 78.4), ~5x lower DMR than Original on TM, beats "
        "the Schemble(ea) ablation, and gets the second-lowest DMR on "
        "IR where static's single replicated model is the DMR lower "
        "bound.",
        "All orderings reproduced: Schemble leads accuracy everywhere, "
        "Original trails, DMR reduction vs Original exceeds 2x on every "
        "task (>5x on TM), and the IR static/schemble DMR ordering "
        "matches the paper's remark.",
    ),
    ExperimentEntry(
        "Table II + Figs. 11/15 — forced processing latency",
        ["table2_text_matching", "table2_vehicle_counting",
         "table2_image_retrieval"],
        "With rejection disabled, Original's mean latency explodes "
        "(50.5s on TM) while Schemble keeps ~0.1s at >97% relative "
        "accuracy and wins the trade-off objective over a wide weight "
        "window.",
        "Reproduced: Schemble's mean latency is >20x below Original's "
        "with high relative accuracy and a non-trivial trade-off "
        "window; Gating is fastest but least accurate, DES slowest "
        "among selectors — the paper's ordering.",
    ),
    ExperimentEntry(
        "Figs. 9/14 — one-day trace behaviour",
        ["fig9_fig14"],
        "Schemble/Static/Gating eliminate the latency burst; Schemble "
        "adapts by scheduling fewer models during the burst and misses "
        "the least.",
        "Reproduced: burst-hour DMR under half of Original's, burst "
        "latency lower, night-hour misses near zero.",
    ),
    ExperimentEntry(
        "Fig. 10 — difficulty-distribution shift (Exp-3)",
        ["fig10_normal", "fig10_gamma"],
        "Accuracy decreases as the pool's mean difficulty grows; "
        "Schemble stays on top; Schemble(t) is only competitive at the "
        "extremes where queries are indistinguishable.",
        "Reproduced, including the Schemble vs Schemble(t) crossover "
        "structure (ties on easy pools, Schemble ahead at mid/high "
        "means). Target distributions are rescaled to this substrate's "
        "[0,1] score range.",
    ),
    ExperimentEntry(
        "Figs. 12/17/18/19 — task scheduler ablation (Exp-4)",
        ["fig12", "fig17", "fig18", "fig19"],
        "DP beats greedy selection under EDF/FIFO/SJF orders, with the "
        "gap growing as deadlines loosen; δ=0.01 is the practical sweet "
        "spot and δ=0.001's table pays for itself in overhead.",
        "DP > greedy and the growing-gap trend reproduce under queue "
        "pressure. One deviation: under extreme load our δ=0.1 can edge "
        "out δ=0.01 — coarse quantisation ties many masks and the "
        "Pareto tie-break then prefers faster subsets, which acts as a "
        "load regulariser the paper's testbed did not exhibit.",
    ),
    ExperimentEntry(
        "Fig. 13 — computational overhead (Exp-5)",
        ["fig13"],
        "The discrepancy predictor costs ~6.5% of ensemble runtime and "
        "0.4-2% of its memory.",
        "The simulator charges exactly the published ratios (cost-model "
        "view). Measured on the numpy substrate the predictor costs "
        "~16% of the members' wall-clock; its parameter share looks "
        "large (~70%) only because the substitute base models are "
        "deliberately tiny MLPs rather than transformers.",
    ),
    ExperimentEntry(
        "Fig. 16 — offline budgeted selection",
        ["fig16_text_matching", "fig16_vehicle_counting"],
        "Under cumulative-runtime budgets, Schemble* clearly beats "
        "Random/Static/Gating and closely tracks its oracle variant.",
        "Reproduced: Schemble* dominates Random at every budget and the "
        "oracle upper-bounds it tightly.",
    ),
    ExperimentEntry(
        "Fig. 20 — Eq. 3 estimation + KNN robustness (Exp-7)",
        ["fig20a", "fig20b"],
        "Marginal-utility estimation MSE < 1.6e-4; stacking accuracy "
        "is flat for k in 10..100 with a minor loss at k=1.",
        "Both reproduced (estimation MSE < 5e-3 on the noisier "
        "substrate; KNN curve flat within 3 points for k >= 10).",
    ),
    ExperimentEntry(
        "Fig. 21 — quantisation step δ (Exp-8)",
        ["fig21"],
        "Smaller δ approaches the optimal plan but its DP table (and "
        "scheduling delay) grows as 1/δ; δ=0.01 balances the two.",
        "DP work per invocation grows as δ shrinks as predicted. At the "
        "moderate load of this sweep accuracy is flat across δ (buffers "
        "are small, so quantisation barely bites); the overhead-driven "
        "collapse of δ=0.001 appears under the heavy load of "
        "Figs. 12/17, where its accuracy drops by up to 19 points at "
        "loose deadlines.",
    ),
    ExperimentEntry(
        "Scheduler throughput — one DP, two forms (this repo)",
        ["sched_throughput"],
        "— (not in the paper; engineering guard for the Alg. 1 "
        "implementation the serving loop runs on every buffer tick).",
        "`scheduling/dp.py` holds Alg. 1 in two bit-exact forms and "
        "`DPScheduler.schedule` picks one per call from the instance's "
        "size `n_queries * 2**n_models`: a plain-Python loop form up to "
        "`LOOP_FORM_MAX_SIZE` (48), where numpy's per-call overhead "
        "would dominate, and above it a numpy kernel over flat "
        "cell-contiguous table arrays (broadcast candidate extension, "
        "one lexsort into cell buckets, all-cell simultaneous Pareto "
        "prune, parent-pointer plan reconstruction). Plans are "
        "*bit-exact* between the two — identical decisions, total "
        "utility, (unified, skip-free) work units and frontier stats "
        "on every randomized parity instance — so every Exp-4/Exp-8 "
        "number is unchanged by the choice of form, while large "
        "buffers schedule 3-4x faster in the kernel and the paper's "
        "one-to-five-query buffers 2-7x faster in the loop form. The "
        "table times the kernel against the loop form directly. The "
        "crossover table is the synthetic half of the evidence for the "
        "constant: its instances carry larger frontiers than the "
        "paper's, so their crossover sits lower (see the comment on "
        "`LOOP_FORM_MAX_SIZE`). Re-run with "
        "`PYTHONPATH=src python benchmarks/bench_sched_throughput.py` "
        "(BENCH_sched.json holds the committed baseline; CI's "
        "perf-smoke job fails any grid point whose kernel speedup "
        "halves).",
    ),
    ExperimentEntry(
        "Learned fast-path scheduler — distilled policy vs exact DP "
        "(this repo)",
        ["policy_distill"],
        "— (not in the paper; makes the Alg. 1 hot path affordable at "
        "serving-scale buffers by imitating it).",
        "`repro.scheduling.distill` turns a DP serving run's "
        "`DecisionLog` into a teacher-forced feature matrix and fits "
        "two students on it — per-bit gradient-boosted trees "
        "(`repro.trees`) and a multi-output MLP (`repro.nn`) — keeping "
        "whichever validates better; `LearnedScheduler` rolls the bit "
        "heads out in `O(buffer x models)` per step and a "
        "predicted-regret gate sends hard instances back to the exact "
        "DP (threshold 0 reproduces the all-DP run bit-exactly, "
        "verified every bench run). On the text-matching task the "
        "distilled policy serves the same trace within 1% accuracy of "
        "all-DP while a buffer-64 x 6-model step drops from seconds to "
        "milliseconds (>=10x gated, orders of magnitude measured). "
        "Re-run with `PYTHONPATH=src python "
        "benchmarks/bench_policy_distill.py` (`--quick` for the CI "
        "smoke); regression-gated vs the committed `BENCH_policy.json` "
        "step-speedup floor, artifact frozen alongside as "
        "`policy_text_matching.json`.",
    ),
    ExperimentEntry(
        "SLO burst detection — online overload episodes (this repo)",
        ["slo_burst"],
        "— (not in the paper; validates the online SLO monitor the "
        "serving loop can optionally stream spans into).",
        "A diurnal trace with a 10x arrival burst over its middle third "
        "overloads a single worker; the burn-rate monitor watching the "
        "live span stream localises the overload to exactly one episode "
        "whose start and end both land within one 5s alert window of "
        "the true burst boundaries. Re-run with `PYTHONPATH=src:. "
        "python -m pytest benchmarks/test_slo_burst.py`; the same "
        "detector is replayable offline from any exported span file "
        "via `python -m repro slo --spans <spans.jsonl>`.",
    ),
    ExperimentEntry(
        "Latency attribution under burst — phase breakdown (this repo)",
        ["profile_burst"],
        "— (not in the paper; validates the per-query latency "
        "attribution engine and the DP step profiler).",
        "The same 10x mid-trace burst, attributed: every completed "
        "query's latency decomposes exactly (residual <= 1e-9) into "
        "admission/buffer/sched/queue/retry/exec phases, and the burst "
        "shows up as waiting time — the buffer+queue+sched share of "
        "latency is several times higher for in-burst queries than "
        "off-burst — rather than slower execution. Re-run with "
        "`PYTHONPATH=src:. python -m pytest "
        "benchmarks/test_profile_burst.py`; the same attribution runs "
        "offline on any span dump via `python -m repro profile --spans "
        "<spans.jsonl>`, and `python -m repro diff` compares two runs' "
        "profile artifacts with noise-floored thresholds.",
    ),
    ExperimentEntry(
        "Fleet serving — routers & admission on a 1M-query diurnal day "
        "(this repo)",
        ["fleet_routing"],
        "— (not in the paper; scales the serving layer to a "
        "multi-replica fleet, grounded in the Pochelu et al. "
        "router/worker split from PAPERS.md).",
        "A 1,063,435-query diurnal day (~30x swing between quietest "
        "and busiest hour) served by a 4-shard fleet — each shard the "
        "unmodified `EnsembleServer` loop — against a single server "
        "with identical total capacity (4x replicated workers, one "
        "buffer, one scheduler). Two regimes. *Routing* (ample "
        "admission queue, 60ms deadline): backlog-aware placement "
        "beats static consistent hashing on deadline misses by 16x "
        "(power-of-two, DMR 0.0012 vs 0.0195) at *higher* accuracy — "
        "hashing ignores load, so its unlucky shards miss while its "
        "lucky ones idle. *Admission* (queue limit 64, 150ms "
        "deadline): the single server absorbs the peak by queueing "
        "everything to the deadline edge (p50 = 144ms of a 150ms "
        "budget), while fleet admission sheds the peak-hour excess "
        "(57%, priced at full-quality work) and serves what it admits "
        "fast — served p50 20–39ms (4–7x below single) and p99 "
        "strictly under the single server's pinned 150.0ms tail. The "
        "quality cost of refusing rather than degrading is explicit "
        "in the accuracy column: the single server degrades subsets "
        "to keep everything, the fleet protects latency for what it "
        "keeps. Determinism: same seed + trace replays to "
        "byte-identical assignments and records (tested for all three "
        "routers). Re-run with `PYTHONPATH=src python "
        "benchmarks/bench_fleet_routing.py` (~20 min; `--quick` for "
        "the CI smoke); regression-gated vs the committed "
        "`BENCH_fleet.json` routing separation.",
    ),
    ExperimentEntry(
        "Design-choice ablations (this repo)",
        ["ablation_distance", "ablation_monotone", "ablation_fast_path"],
        "— (not in the paper; quantifies DESIGN.md's substrate "
        "decisions).",
        "TV-vs-JS distance, the isotonic utility repair, and the Exp-5 "
        "fast path each measurably earn their place.",
    ),
]


def render(results_dir: Path) -> str:
    """Render the full EXPERIMENTS.md text from a results directory."""
    parts = [HEADER]
    missing: List[str] = []
    for entry in REGISTRY:
        parts.append(f"\n## {entry.artefact}\n")
        parts.append(f"**Paper:** {entry.paper_claim}\n")
        if entry.reproduction_notes:
            parts.append(f"**Reproduction:** {entry.reproduction_notes}\n")
        for result_id in entry.result_ids:
            path = results_dir / f"{result_id}.txt"
            if not path.exists():
                missing.append(result_id)
                parts.append(f"*(no result file `{result_id}.txt` — run the "
                             "bench suite)*\n")
                continue
            parts.append("```")
            parts.append(path.read_text().rstrip())
            parts.append("```\n")
    if missing:
        parts.append(
            "\n---\nMissing results: " + ", ".join(sorted(set(missing)))
        )
    return "\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    """Write EXPERIMENTS.md (args: [results_dir] [output_md])."""
    argv = list(sys.argv[1:] if argv is None else argv)
    results_dir = Path(argv[0]) if argv else Path("benchmarks/results")
    output = Path(argv[1]) if len(argv) > 1 else Path("EXPERIMENTS.md")
    output.write_text(render(results_dir))
    print(f"wrote {output} from {results_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

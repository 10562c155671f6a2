(** Bench-regression gate: diff a fresh [BENCH_qsel.json] against the
    committed [bench/baseline.json].

    What is gated is one table of (section path, point key, field, rule)
    rows; {!check} walks it for verdicts and {!derive_baseline} walks it to
    decide which fields a baseline carries. Sections are lists of points
    matched by key — [scaling]/[n], [commission]/[stack], [churn]/[n],
    [explore.points]/[jobs], [policy.points]/[policy] — or single objects —
    [explore.exhaustive], [policy.intersection], [runtime.component],
    [runtime.cluster]. The rules, on properties of the code, not the
    runner:
    - pinned: equal to the baseline (conviction, churn, policy, visited-
      state and runtime-component counters);
    - capped: at most baseline × a tolerance (gossip bytes) or at most a
      tolerance (per-packet idle allocation), the tolerances stored in the
      baseline;
    - from the current run alone: booleans that must hold (agreement,
      determinism, consistency), constants ([delta_idle_bytes = 0],
      [violations = 0], churn [availability = 1.0]), positive counts (the
      intersection pairs) and [committed = requests];
    - report-only: explore speedup below 2.5× at [jobs >= 4].

    A section is gated exactly when the baseline carries it, and every
    baseline point must then be present in the current run. Beside the
    table, the cross-size select-throughput ratio is gated hard (machine
    speed cancels out of the quotient; a 2× slowdown at the largest n
    doubles it), and the seventh section, the absolute wall-clock ns/run
    [results] rows, is report-only: a >1.5× drift prints a warning, never a
    failure.

    Improvements pass silently; ratchet the baseline forward with
    [derive_baseline] (the CLI's [--update-baseline]). *)

exception Malformed of string
(** A field the gate needs is missing or mis-typed in either file, or the
    baseline has no [tolerances] — never a silent pass. *)

type verdict = { name : string; ok : bool; detail : string; hard : bool }

val check : current:Json.t -> baseline:Json.t -> verdict list

val passed : verdict list -> bool
(** [true] iff every {e hard} verdict is ok. *)

val render : verdict list -> string

val derive_baseline : Json.t -> Json.t
(** Extract the gated metrics (plus default tolerances) from a bench file
    into a fresh baseline document. *)

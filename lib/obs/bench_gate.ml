(* Bench-regression gate: diff a fresh BENCH_qsel.json against a committed
   baseline. What is gated, and how, is the one [table] below: [check]
   walks it for verdicts and [derive_baseline] for the fields a baseline
   carries. The rule kinds and sections are documented in the .mli. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let bench_schema = "qsel-bench/1"

let baseline_schema = "qsel-baseline/1"

type verdict = { name : string; ok : bool; detail : string; hard : bool }

let hard name ok detail = { name; ok; detail; hard = true }

let soft name ok detail = { name; ok; detail; hard = false }

let passed vs = List.for_all (fun v -> v.ok || not v.hard) vs

let render vs =
  let b = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  [%s] %-58s %s\n"
           (if v.ok then "ok" else if v.hard then "FAIL" else "warn")
           v.name v.detail))
    vs;
  Buffer.add_string b
    (if passed vs then "bench gate: PASS\n" else "bench gate: FAIL\n");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON plumbing — missing fields in either file are [Malformed], not
   silently-passing checks. *)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> malformed "missing field %S" name

let items what = function
  | Json.List l -> l
  | _ -> malformed "field %S is not a list" what

let float_f name j =
  match field name j with
  | Json.Int i -> float_of_int i
  | Json.Float x -> x
  | _ -> malformed "field %S is not a number" name

let string_f name j = Json.to_string_exn (field name j)

let bool_f name j =
  match field name j with
  | Json.Bool v -> v
  | _ -> malformed "field %S is not a bool" name

(* An absent list reads as empty: a section the file does not carry. *)
let rows name j =
  match Json.member name j with Some l -> items name l | None -> []

(* Numbers compare by value, so [1] and [1.0] are the same pin. *)
let same a b =
  match (a, b) with
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
    Json.to_float_exn a = Json.to_float_exn b
  | _ -> a = b

let show = function
  | Json.Float x -> Printf.sprintf "%g" x
  | Json.String s -> s
  | j -> Json.render j

(* ------------------------------------------------------------------ *)
(* The rule table. Tolerances are named fields of the baseline's
   [tolerances] object, so a deliberate loosening is a reviewed diff. *)

type rule =
  | Pin  (** equal to the baseline *)
  | Cap of string  (** at most baseline × the named tolerance *)
  | Max of string  (** at most the named tolerance *)
  | Holds  (** a bool that must be true *)
  | Is of Json.t  (** equal to a constant *)
  | Positive
  | Same_as of string  (** equal to another field of the same point *)
  | Warn_below of float * int
      (** report-only: below the floor at points keyed at least the int *)
  | Ratio  (** carried for [ratio_check]; no verdict of its own *)

let default_tolerances =
  Json.Obj
    [
      ("bytes", Json.Float 1.25);
      ("select_ratio", Json.Float 1.75);
      ("alloc_abs", Json.Float 128.0);
    ]

(* (section path, point key, field, rule). A keyed section is a list of
   points matched by the key field; an unkeyed one is a single object. *)
let table =
  [
    (* E15: gossip bytes, the zero-byte steady-state delta tick, per-packet
       idle allocation, incremental-vs-scratch agreement. *)
    ("scaling", Some "n", "full_push_bytes", Cap "bytes");
    ("scaling", Some "n", "delta_sync_bytes", Cap "bytes");
    ("scaling", Some "n", "delta_idle_bytes", Is (Json.Int 0));
    ("scaling", Some "n", "idle_alloc_per_packet", Max "alloc_abs");
    ("scaling", Some "n", "lex_agrees", Holds);
    ("scaling", Some "n", "mis_agrees", Holds);
    ("scaling", Some "n", "peer_converged", Holds);
    ("scaling", Some "n", "select_ops_per_sec", Ratio);
    (* Seeded commission faults: the simulation is deterministic. *)
    ("commission", Some "stack", "proofs", Pin);
    ("commission", Some "stack", "forgeries", Pin);
    ("commission", Some "stack", "violations", Is (Json.Int 0));
    (* E16: deterministic apart from the reconfig throughput. *)
    ("churn", Some "n", "joins", Pin);
    ("churn", Some "n", "leaves", Pin);
    ("churn", Some "n", "ejects", Pin);
    ("churn", Some "n", "quorum_changes", Pin);
    ("churn", Some "n", "availability", Is (Json.Float 1.0));
    ("churn", Some "n", "remap_consistent", Holds);
    ("churn", Some "n", "departed_clean", Holds);
    (* E17: every worker count reproduces the jobs=1 report and state set;
       speedup is the runner's — a single-core box honestly reports 1.0×. *)
    ("explore.points", Some "jobs", "identical_report", Holds);
    ("explore.points", Some "jobs", "same_states", Holds);
    ("explore.points", Some "jobs", "speedup", Warn_below (2.5, 4));
    ("explore.exhaustive", None, "sets_agree", Holds);
    ("explore.exhaustive", None, "sym_collapses", Holds);
    ("explore.exhaustive", None, "seq_visited", Pin);
    ("explore.exhaustive", None, "sym_visited", Pin);
    (* E18: fully deterministic; the intersection verdicts gate from the
       current run alone and must be non-vacuous. *)
    ("policy.points", Some "policy", "max_exposure", Pin);
    ("policy.points", Some "policy", "outages", Pin);
    ("policy.points", Some "policy", "availability", Pin);
    ("policy.points", Some "policy", "quorum_changes", Pin);
    ("policy.points", Some "policy", "repairs_clean", Holds);
    ("policy.points", Some "policy", "agreement", Holds);
    ("policy.points", Some "policy", "t3_ok", Holds);
    ("policy.intersection", None, "ok", Holds);
    ("policy.intersection", None, "pairs", Positive);
    ("policy.intersection", None, "sampled_ok", Holds);
    ("policy.intersection", None, "sampled_pairs", Positive);
    (* Real runtime: the scripted component counters are pinned; the
       cluster run's safety bits gate from the current run alone, and its
       commit latency is the runner's wall clock. *)
    ("runtime.component", None, "mailbox_shed", Pin);
    ("runtime.component", None, "dedup_dropped", Pin);
    ("runtime.component", None, "corrupt_rejected", Pin);
    ("runtime.component", None, "reconnected", Holds);
    ("runtime.cluster", None, "committed", Same_as "requests");
    ("runtime.cluster", None, "prefix_agreement", Holds);
    ("runtime.cluster", None, "violations", Is (Json.Int 0));
    ("runtime.cluster", None, "nemesis_unsupported", Is (Json.Int 0));
  ]

(* The table's sections in order, each with its (field, rule) rows. *)
let sections =
  List.fold_right
    (fun (path, key, f, r) -> function
      | (p, k, rules) :: rest when p = path && k = key ->
        (p, k, (f, r) :: rules) :: rest
      | acc -> (path, key, [ (f, r) ]) :: acc)
    table []

(* ------------------------------------------------------------------ *)

(* The verdicts of one rule at one point. [base] is forced only by the
   rules that compare against the baseline, so a section such as
   [policy.intersection] needs no baseline counterpart. *)
let apply ~tol ~tag ~at ~cur ~base (name, rule) =
  let v = field name cur in
  let baseline () = field name (Lazy.force base) in
  let label what = Printf.sprintf "%s: %s" tag what in
  let gate what ok detail = [ hard (label what) ok detail ] in
  match rule with
  | Pin ->
    gate name (same v (baseline ())) (show v ^ " vs baseline " ^ show (baseline ()))
  | Cap t ->
    let cap = float_f name (Lazy.force base) *. float_f t tol in
    gate name (float_f name cur <= cap)
      (Printf.sprintf "%s vs baseline %s (cap %.0f)" (show v) (show (baseline ())) cap)
  | Max t ->
    let cap = float_f t tol in
    gate (name ^ " within cap") (float_f name cur <= cap)
      (Printf.sprintf "%s (cap %.0f)" (show v) cap)
  | Holds -> gate name (bool_f name cur) (show v)
  | Is c -> gate (name ^ " = " ^ show c) (same v c) (show v)
  | Positive -> gate (name ^ " > 0") (float_f name cur > 0.0) (show v)
  | Same_as other ->
    let o = field other cur in
    gate (name ^ " = " ^ other) (same v o) (show v ^ " of " ^ show o)
  | Warn_below (floor, from)
    when Option.fold ~none:true ~some:(fun k -> Json.to_int_exn k >= from) at ->
    [
      soft
        (label (Printf.sprintf "%s >= %g" name floor))
        (float_f name cur >= floor)
        (show v ^ " (report-only: the runner's core count)");
    ]
  | Warn_below _ | Ratio -> []

(* A section is gated exactly when the baseline carries its top-level
   field; every baseline point must then be present in the current run. *)
let check_section ~tol ~current ~baseline (path, key, rules) =
  let steps = String.split_on_char '.' path in
  let at_path j = List.fold_left (fun j k -> field k j) j steps in
  let run ~tag ~at ~cur ~base =
    List.concat_map (apply ~tol ~tag ~at ~cur ~base) rules
  in
  if Json.member (List.hd steps) baseline = None then []
  else
    match key with
    | None ->
      run ~tag:path ~at:None ~cur:(at_path current) ~base:(lazy (at_path baseline))
    | Some k ->
      List.concat_map
        (fun base ->
          let id = field k base in
          let tag = Printf.sprintf "%s %s=%s" path k (show id) in
          match
            List.find_opt (fun c -> same (field k c) id) (items path (at_path current))
          with
          | None -> [ hard (tag ^ ": present in current run") false "point missing" ]
          | Some cur -> run ~tag ~at:(Some id) ~cur ~base:(Lazy.from_val base))
        (items path (at_path baseline))

(* The cross-size degradation factor: select throughput at the smallest n
   over the largest. Machine speed cancels out of the quotient. *)
let select_ratio scaling =
  match scaling with
  | [] | [ _ ] -> None
  | points ->
    let by_n = List.map (fun p -> (Json.to_int_exn (field "n" p), p)) points in
    let smallest = List.fold_left min max_int (List.map fst by_n) in
    let largest = List.fold_left max 0 (List.map fst by_n) in
    let ops n = float_f "select_ops_per_sec" (List.assoc n by_n) in
    let lo = ops largest in
    if lo <= 0.0 then None else Some (ops smallest /. lo)

let ratio_check ~tol ~current ~baseline =
  let ratio j = select_ratio (rows "scaling" j) in
  match (ratio baseline, ratio current) with
  | None, _ -> []
  | Some b, Some c ->
    let cap = b *. float_f "select_ratio" tol in
    [
      hard "select throughput ratio (smallest n / largest n)" (c <= cap)
        (Printf.sprintf "%.1f vs baseline %.1f (cap %.1f)" c b cap);
    ]
  | Some _, None ->
    [ hard "select throughput ratio computable" false "missing in current" ]

(* Wall-clock drift, report-only: flag anything 1.5× slower than baseline
   but fail nothing — absolute ns are the runner's, not the code's. *)
let ns_drift ~current ~baseline =
  let ns r =
    match field "ns_per_run" r with Json.Null -> None | _ -> Some (float_f "ns_per_run" r)
  in
  let by_name name =
    List.find_opt (fun c -> string_f "name" c = name) (rows "results" current)
  in
  List.filter_map
    (fun b ->
      let name = string_f "name" b in
      match (ns b, Option.bind (by_name name) ns) with
      | Some bns, Some cns when bns > 0.0 && cns > bns *. 1.5 ->
        Some
          (soft ("ns " ^ name) false
             (Printf.sprintf "%.0f ns vs baseline %.0f ns (%.1fx)" cns bns (cns /. bns)))
      | _ -> None)
    (rows "results" baseline)

let check ~current ~baseline =
  let cs = string_f "schema" current in
  let bs = string_f "schema" baseline in
  let schema_ok =
    [
      hard "current schema" (cs = bench_schema) cs;
      hard "baseline schema" (bs = baseline_schema) bs;
    ]
  in
  if not (passed schema_ok) then schema_ok
  else begin
    let tol = field "tolerances" baseline in
    let quick_ok =
      let bq = bool_f "quick" baseline and cq = bool_f "quick" current in
      hard "quick flag matches baseline" (bq = cq)
        (Printf.sprintf "current %b, baseline %b" cq bq)
    in
    let experiments_ok =
      match field "experiments_ok" current with
      | Json.Null -> soft "experiments_ok" true "not run (micro-only)"
      | Json.Bool b -> hard "experiments_ok" b (string_of_bool b)
      | _ -> malformed "experiments_ok is neither null nor bool"
    in
    (quick_ok :: experiments_ok
    :: List.concat_map (check_section ~tol ~current ~baseline) sections)
    @ ratio_check ~tol ~current ~baseline
    @ ns_drift ~current ~baseline
  end

(* ------------------------------------------------------------------ *)

(* Dotted paths a baseline carries: the quick flag, the ns rows, and from
   the table every point key plus each field a rule compares against the
   baseline. *)
let carried =
  [ "quick"; "results.group"; "results.name"; "results.ns_per_run" ]
  @ List.concat_map
      (fun (path, key, f, rule) ->
        List.map
          (fun f -> path ^ "." ^ f)
          (Option.to_list key @ match rule with Pin | Cap _ | Ratio -> [ f ] | _ -> []))
      table

(* Keep the carried leaves of an object's fields and the objects and lists
   on the way to them; list elements share their list's path. *)
let rec prune path fields =
  List.filter_map
    (fun (k, v) ->
      let p = if path = "" then k else path ^ "." ^ k in
      if List.mem p carried then Some (k, v)
      else if List.exists (String.starts_with ~prefix:(p ^ ".")) carried then
        Some (k, prune_value p v)
      else None)
    fields

and prune_value path = function
  | Json.Obj fields -> Json.Obj (prune path fields)
  | Json.List l -> Json.List (List.map (prune_value path) l)
  | j -> j

let derive_baseline bench =
  if string_f "schema" bench <> bench_schema then
    malformed "derive_baseline: not a %s file" bench_schema;
  match prune_value "" bench with
  | Json.Obj fields ->
    Json.Obj
      (("schema", Json.String baseline_schema)
      :: ("tolerances", default_tolerances)
      :: fields)
  | _ -> malformed "derive_baseline: not an object"

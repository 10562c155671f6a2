(* Shared helpers for the traffic benchmark: wall clock, percentiles, the
   metric sink, and the correctness checks every workload runs. *)

module Xmsg = Qs_xpaxos.Xmsg
module Auth = Qs_crypto.Auth

let now = Unix.gettimeofday

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 100]. *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 50.0 (Array.of_list xs)

let per count total = if count = 0 then 0.0 else float_of_int total /. float_of_int count

(* ------------------------------------------------------------------ *)
(* Metric sink: every workload reports every metric (see BENCHMARK.json);
   [Traffic] picks the end-to-end or per-layer set for output. *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

let emit name unit_ value = metrics := { name; value; unit_ } :: !metrics

(* ------------------------------------------------------------------ *)
(* Correctness. A failed check fails the run (non-zero exit). *)

let failures : string list ref = ref []

let check ok what = if not ok then failures := what :: !failures

let key (r : Xmsg.request) = (r.Xmsg.client lsl 24) lor r.Xmsg.rid

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> key x = key y && x.Xmsg.op = y.Xmsg.op && is_prefix xs ys

(* The three checks of every run, over the replicas' executed histories:
   pairwise prefix agreement, exactly-once execution of each (client, rid)
   per replica, and every counted commit executed by at least [quorum]
   replicas. *)
let check_histories ~label ~quorum (histories : Xmsg.request list array)
    (counted : int list) =
  let n = Array.length histories in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = histories.(i) and b = histories.(j) in
      let ok =
        if List.compare_lengths a b <= 0 then is_prefix a b else is_prefix b a
      in
      check ok (Printf.sprintf "%s: replicas %d and %d disagree on a prefix" label i j)
    done
  done;
  let seen = Array.init n (fun _ -> Hashtbl.create 1024) in
  Array.iteri
    (fun i h ->
      List.iter
        (fun r ->
          let k = key r in
          check
            (not (Hashtbl.mem seen.(i) k))
            (Printf.sprintf "%s: replica %d executed (%d,%d) twice" label i
               r.Xmsg.client r.Xmsg.rid);
          Hashtbl.replace seen.(i) k ())
        h)
    histories;
  List.iter
    (fun k ->
      let by = Array.fold_left (fun acc tbl -> if Hashtbl.mem tbl k then acc + 1 else acc) 0 seen in
      check (by >= quorum)
        (Printf.sprintf "%s: counted commit %d executed by %d < %d replicas" label k by
           quorum))
    counted

(* ------------------------------------------------------------------ *)
(* Signatures carried by a message body: the envelope's own plus every
   embedded prepare signature (a COMMIT carries 2, a view change one per
   log entry, a quorum-selection UPDATE its row signature). *)
let sigs_of (m : Xmsg.t) =
  1
  +
  match m.Xmsg.body with
  | Xmsg.Prepare _ | Xmsg.Commit _ | Xmsg.Qsel _ -> 1
  | Xmsg.Suspect _ -> 0
  | Xmsg.View_change { vlog = es; _ } | Xmsg.New_view { nlog = es; _ } -> List.length es

let is_view_change (m : Xmsg.t) =
  match m.Xmsg.body with Xmsg.View_change _ | Xmsg.New_view _ -> true | _ -> false

let is_qsel (m : Xmsg.t) = match m.Xmsg.body with Xmsg.Qsel _ -> true | _ -> false

(* Microseconds per operation of [pass], which does [ops] operations, run
   repeatedly until at least [replay_s] seconds have been timed. *)
let replay_s = 0.05

let us_per_op ~ops pass =
  if ops = 0 then 0.0
  else begin
    let total = ref 0 and t0 = now () in
    while now () -. t0 < replay_s do
      pass ();
      total := !total + ops
    done;
    (now () -. t0) *. 1e6 /. float_of_int !total
  end

(* Replay captured (signer, payload, tag) triples through [Auth.verify] and
   [Auth.sign]: per-op microseconds and minor words per verify. *)
let crypto_replay auth (sample : (int * string * string) array) =
  if Array.length sample = 0 then (0.0, 0.0, 0.0)
  else begin
    let ops = Array.length sample in
    let ok = ref true in
    let verify_us =
      us_per_op ~ops (fun () ->
          Array.iter
            (fun (s, p, g) -> if not (Auth.verify auth ~signer:s p g) then ok := false)
            sample)
    in
    check !ok "crypto replay: a captured signature failed to verify";
    let sign_us =
      us_per_op ~ops (fun () ->
          Array.iter (fun (s, p, _) -> ignore (Auth.sign auth ~signer:s p : string)) sample)
    in
    let w0 = Gc.minor_words () in
    Array.iter (fun (s, p, g) -> ignore (Auth.verify auth ~signer:s p g : bool)) sample;
    let words = (Gc.minor_words () -. w0) /. float_of_int ops in
    (verify_us, sign_us, words)
  end

(* Per-entry minimum of series that measure the same work entry by entry,
   one series per round. Other tenants of the machine slow stretches of
   seconds by up to 2x (README, "Measurement noise"); the fastest
   observation of an entry is what that work costs when they do not get in
   the way, and it needs only that entry, not a whole round, to have run
   once uncontended. *)
let fastest ~label (series : float array list) =
  match series with
  | [] -> [||]
  | first :: rest ->
    List.fold_left
      (fun acc a ->
        check (Array.length a = Array.length acc) (label ^ ": rounds differ in length");
        Array.mapi (fun k x -> if k < Array.length a then Float.min x a.(k) else x) acc)
      first rest

(* [round i] for i = 0, 1, ... until [seconds] of wall time are spent (at
   least one round); a round is not started if half of the previous one
   would overrun. *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go acc i last =
    if acc <> [] && now () -. t0 +. (last /. 2.0) > seconds then List.rev acc
    else begin
      let s = now () in
      let r = round i in
      go (r :: acc) (i + 1) (now () -. s)
    end
  in
  go [] 0 0.0

(* Detector and selector counters from the default metrics registry,
   summed over the [n] processes: expectations, expectation timeouts, false
   suspicions, quorums issued, updates merged. *)
let layer_counters n =
  let sum name =
    let s = ref 0 in
    for p = 0 to n - 1 do
      match Qs_obs.Metrics.find_counter ~labels:[ ("p", string_of_int p) ] name with
      | Some v -> s := !s + v
      | None -> ()
    done;
    !s
  in
  Array.map sum
    [|
      "fd_expectations_total";
      "fd_expectation_timeouts_total";
      "fd_false_suspicions_total";
      "qs_quorums_issued_total";
      "qs_updates_merged_total";
    |]

(* Top of the major heap so far, in MiB. Workloads read it at the end of
   a run's first round: later rounds repeat the same work on fresh
   clusters, and what they would add is the run's own records of them,
   which grow with the number of rounds that fit in the time budget. *)
let heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

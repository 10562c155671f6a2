(* The simulator workload: XPaxos in quorum-selection mode on the
   discrete-event simulator, driven by closed-loop clients through the
   public Replica/Network/Sim API, under a scripted fault sequence.

   A run repeats one round (fresh cluster, same seed, compacted heap)
   until the time budget is spent, so every count a round produces is a
   pure function of the seed; timings are aggregated over the identical
   rounds (see [Common.fastest]).

   Timings read the process CPU clock: the simulator is one CPU-bound
   thread, so its CPU seconds are the work it did, while wall seconds
   would also count whatever other tenants of the machine took. *)

let cpu = Sys.time

module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Stime = Qs_sim.Stime
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Detector = Qs_fd.Detector
module Metrics = Qs_obs.Metrics
open Common

type fault = Mute of int | Heal of int | Omit of int * int | Restore of int * int

type spec = {
  n : int;
  f : int;
  delay : Network.delay_model;
  clients : int;
  warmup : int;  (** commits before the measured phase starts *)
  horizon_ms : int;  (** sim time at which the measured phase ends *)
  script : (int * fault) list;  (** (sim ms, fault step) *)
}

(* Faults start after warm-up, and every phase outlasts detection (the
   initial timeout is 150 ms, prepare expectations wait 4x) so each one
   ends in a settled quorum. Links are a fixed 2 ms: with Uniform 1-3 ms
   draws the view-change traffic of a round varied 3x between seeds
   (README, P7), so the seed would change the work being timed. *)
let failover =
  {
    n = 5;
    f = 2;
    delay = Network.Fixed (Stime.of_ms 2);
    clients = 16;
    warmup = 200;
    horizon_ms = 2700;
    script =
      [
        (100, Mute 1);
        (600, Heal 1);
        (700, Mute 0);
        (1900, Heal 0);
        (2000, Omit (2, 1));
        (2500, Restore (2, 1));
      ];
  }

let resubmit_every = Stime.of_ms 100

(* Cluster builds per round. A single build (~0.1 ms, straight after the
   compaction) spread by 0.3-0.4 of its median across runs, so each round
   times several and keeps the fastest; all but the last are discarded. *)
let setup_builds = 5

(* Measured commits per timing chunk: 10-30 ms of CPU. *)
let chunk = 32

let deadline = Stime.of_ms 1000

let config spec =
  {
    Replica.n = spec.n;
    f = spec.f;
    mode = Replica.Quorum_selection;
    initial_timeout = Stime.of_ms 150;
    timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 2000 };
  }

(* What one round measured. Counts cover the measured phase unless noted. *)
type round = {
  setup_s : float;
      (** building the cluster (simulator, network, key directory, replicas
          with their detectors and selectors): everything between process
          start and the first request. The fastest of [setup_builds]. *)
  cpu_s : float;
  commits : int;
  chunks : float array;  (** CPU seconds of each [chunk] measured commits, in order *)
  lat_ms : float array;  (** per measured commit, in commit order *)
  lat_sim_ms : float array;
  attempted : int;  (** whole round *)
  failed : int;  (** whole round: requests past their deadline *)
  msgs : int;
  events : int;
  minor_words : float;
  majors : int;
  views : int;  (** highest view reached + 1 *)
  unavail_ms : float;
  fd_expectations : int;
  fd_timeouts : int;
  fd_false : int;
  quorums : int;
  merged : int;
  (* traced rounds only *)
  receive_s : float;
  receives : int;
  open_sum : int;
  open_max : int;
  sigs : int;
  bytes : int;
  vc_bytes : int;
  qsel_msgs : int;
  sample : (int * string * string) array;
  peak_mb : float;  (** [heap_mb] at round end *)
}

type cluster = {
  sim : Sim.t;
  net : Xmsg.t Network.t;
  replicas : Replica.t array;
}

(* Per-replica execution callbacks are bound after construction. *)
let build spec ~seed ~on_execute =
  let sim = Sim.create ~seed () in
  let net = Network.create ~sim ~n:spec.n ~delay:spec.delay ~fifo:true () in
  let auth = Qs_crypto.Auth.create spec.n in
  let cfg = config spec in
  let replicas =
    Array.init spec.n (fun me ->
        Replica.create cfg ~me ~auth ~sim
          ~net_send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
          ~on_execute:(fun ~slot:_ r -> on_execute me r)
          ())
  in
  Array.iteri (fun i r -> Network.set_handler net i (fun ~src m -> Replica.receive r ~src m)) replicas;
  { sim; net; replicas }

(* One round. [traced] adds the per-layer hooks: a wrapped handler timing
   [Replica.receive] and sampling open expectations before each delivery,
   and a network tracer sizing bodies and capturing signed payloads. *)
let round spec ~seed ~traced =
  Gc.compact ();
  let spare_setups =
    List.init (setup_builds - 1) (fun _ ->
        let t0 = cpu () in
        ignore (build spec ~seed ~on_execute:(fun _ _ -> ()) : cluster);
        cpu () -. t0)
  in
  Metrics.reset ();
  let n = spec.n and quorum = spec.n - spec.f in
  let c = spec.clients in
  let rid = Array.make c (-1)
  and active = Array.make c false
  and votes = Array.make c 0
  and mask = Array.make c 0
  and sub_sim = Array.make c 0
  and sub_cpu = Array.make c 0.0
  and next_resub = Array.make c 0 in
  let attempted = ref 0 and failed = ref 0 and committed = ref 0 and in_flight = ref 0 in
  let submitting = ref true and measuring = ref false and finished = ref false in
  let lat = ref [] and lat_sim = ref [] and counted = ref [] in
  let measured = ref 0 and stamps = ref [] in
  let max_gap = ref 0 and last_commit = ref 0 in
  (* Unavailability counts from the first fault. *)
  let gap_origin = Stime.of_ms (fst (List.hd spec.script)) in
  let receive_s = ref 0.0 and receives = ref 0 and open_sum = ref 0 and open_max = ref 0 in
  let sigs = ref 0 and bytes = ref 0 and vc_bytes = ref 0 and qsel_msgs = ref 0 in
  let sample = ref [] and sampled = ref 0 and delivered = ref 0 in
  let cl = ref None in
  let cluster () = Option.get !cl in
  (* Hand client [i]'s current request to every replica (an XPaxos client
     broadcasts); non-members ignore it. *)
  let broadcast i =
    let r = { Xmsg.client = i; rid = rid.(i); op = Printf.sprintf "set k%d %d" i rid.(i) } in
    Array.iter (fun rep -> Replica.submit rep r) (cluster ()).replicas
  in
  let submit i =
    rid.(i) <- rid.(i) + 1;
    active.(i) <- true;
    votes.(i) <- 0;
    mask.(i) <- 0;
    incr attempted;
    incr in_flight;
    let now = Sim.now (cluster ()).sim in
    sub_sim.(i) <- now;
    sub_cpu.(i) <- cpu ();
    next_resub.(i) <- now + resubmit_every;
    broadcast i
  in
  let retire i =
    active.(i) <- false;
    decr in_flight;
    if !submitting then Sim.schedule (cluster ()).sim ~delay:0 (fun () -> submit i)
    else if !in_flight = 0 then finished := true
  in
  let phase_start = ref (0.0, 0, 0, 0.0, 0, [||]) in
  let phase = ref None in
  let start_phase () =
    let cl = cluster () in
    measuring := true;
    stamps := [ cpu () ];
    phase_start :=
      ( cpu (),
        Sim.events_executed cl.sim,
        Network.sent_count cl.net,
        Gc.minor_words (),
        (Gc.quick_stat ()).Gc.major_collections,
        layer_counters n )
  in
  let end_phase () =
    let cl = cluster () in
    let t0, e0, m0, w0, g0, c0 = !phase_start in
    stamps := cpu () :: !stamps;
    let busy = cpu () -. t0 in
    let c1 = layer_counters n in
    phase :=
      Some
        ( busy,
          Sim.events_executed cl.sim - e0,
          Network.sent_count cl.net - m0,
          Gc.minor_words () -. w0,
          (Gc.quick_stat ()).Gc.major_collections - g0,
          Array.mapi (fun i v -> v - c0.(i)) c1 );
    measuring := false;
    submitting := false;
    if !in_flight = 0 then finished := true
  in
  let on_execute me (r : Xmsg.request) =
    let i = r.Xmsg.client in
    if i < c && active.(i) && r.Xmsg.rid = rid.(i) && mask.(i) land (1 lsl me) = 0 then begin
      mask.(i) <- mask.(i) lor (1 lsl me);
      votes.(i) <- votes.(i) + 1;
      if votes.(i) = quorum then begin
        let cl = cluster () in
        let now = Sim.now cl.sim in
        incr committed;
        if !measuring then begin
          lat := (cpu () -. sub_cpu.(i)) *. 1e3 :: !lat;
          lat_sim := Stime.to_ms (now - sub_sim.(i)) :: !lat_sim;
          counted := key r :: !counted;
          incr measured;
          if !measured mod chunk = 0 then stamps := cpu () :: !stamps;
          if now >= gap_origin then
            max_gap := max !max_gap (now - max !last_commit gap_origin)
        end;
        last_commit := now;
        retire i;
        if !committed = spec.warmup then start_phase ()
      end
    end
  in
  let t0 = cpu () in
  let cl0 = build spec ~seed ~on_execute in
  let setup_s = List.fold_left Float.min (cpu () -. t0) spare_setups in
  cl := Some cl0;
  let sim = cl0.sim in
  if traced then begin
    Array.iteri
      (fun i r ->
        let fd = Replica.detector r in
        Network.set_handler cl0.net i (fun ~src m ->
            if !measuring then begin
              let o = Detector.open_expectations fd in
              open_sum := !open_sum + o;
              open_max := max !open_max o;
              incr receives;
              let t0 = cpu () in
              Replica.receive r ~src m;
              receive_s := !receive_s +. (cpu () -. t0)
            end
            else Replica.receive r ~src m))
      cl0.replicas;
    Network.set_tracer cl0.net (fun ~kind ~now:_ ~src ~dst m ->
        if !measuring then
          match kind with
          | Network.Send when src <> dst ->
            let b = String.length (Xmsg.encode_body m.Xmsg.body) in
            bytes := !bytes + b;
            if is_view_change m then vc_bytes := !vc_bytes + b;
            if is_qsel m then incr qsel_msgs
          | Network.Delivered ->
            sigs := !sigs + sigs_of m;
            incr delivered;
            if !delivered land 7 = 0 && !sampled < 4096 then begin
              incr sampled;
              sample := (m.Xmsg.sender, Xmsg.encode_body m.Xmsg.body, m.Xmsg.signature) :: !sample
            end
          | _ -> ())
  end;
  (* The client tick: rebroadcast outstanding requests every 100 ms of sim
     time and give up on those past their deadline (counted as failed; the
     client continues with a fresh rid). *)
  let rec tick () =
    let now = Sim.now sim in
    for i = 0 to c - 1 do
      if active.(i) then
        if now - sub_sim.(i) >= deadline then begin
          incr failed;
          retire i
        end
        else if now >= next_resub.(i) then begin
          next_resub.(i) <- now + resubmit_every;
          broadcast i
        end
    done;
    if not !finished then Sim.schedule sim ~delay:resubmit_every tick
  in
  Sim.schedule sim ~delay:resubmit_every tick;
  let mute p on =
    Replica.set_fault cl0.replicas.(p) (if on then Replica.Mute else Replica.Honest)
  in
  let links = Hashtbl.create 4 in
  List.iter
    (fun (ms, step) ->
      Sim.schedule_at sim ~at:(Stime.of_ms ms) (fun () ->
          match step with
          | Mute p -> mute p true
          | Heal p -> mute p false
          | Omit (src, dst) ->
            Hashtbl.replace links (src, dst)
              (Network.add_filter cl0.net (fun ~now:_ ~src:s ~dst:d _ ->
                   if s = src && d = dst then Network.Drop else Network.Deliver))
          | Restore (src, dst) -> (
            match Hashtbl.find_opt links (src, dst) with
            | Some id -> Network.remove_filter cl0.net id
            | None -> ())))
    spec.script;
  Sim.schedule_at sim ~at:(Stime.of_ms spec.horizon_ms) (fun () ->
      if !measuring then end_phase ());
  for i = 0 to c - 1 do
    Sim.schedule sim ~delay:0 (fun () -> submit i)
  done;
  while (not !finished) && Sim.step sim do
    ()
  done;
  let busy, events, msgs, words, majors, fc =
    match !phase with Some p -> p | None -> failwith "round ended before its measured phase"
  in
  let histories = Array.map Replica.executed cl0.replicas in
  check_histories ~label:"sim" ~quorum histories !counted;
  {
    setup_s;
    cpu_s = busy;
    commits = !measured;
    chunks =
      (let st = Array.of_list (List.rev !stamps) in
       Array.init (Array.length st - 1) (fun k -> st.(k + 1) -. st.(k)));
    lat_ms = Array.of_list (List.rev !lat);
    lat_sim_ms = Array.of_list (List.rev !lat_sim);
    attempted = !attempted;
    failed = !failed;
    msgs;
    events;
    minor_words = words;
    majors;
    views = 1 + Array.fold_left (fun acc r -> max acc (Replica.view r)) 0 cl0.replicas;
    unavail_ms = Stime.to_ms !max_gap;
    fd_expectations = fc.(0);
    fd_timeouts = fc.(1);
    fd_false = fc.(2);
    quorums = fc.(3);
    merged = fc.(4);
    receive_s = !receive_s;
    receives = !receives;
    open_sum = !open_sum;
    open_max = !open_max;
    sigs = !sigs;
    bytes = !bytes;
    vc_bytes = !vc_bytes;
    qsel_msgs = !qsel_msgs;
    sample = Array.of_list (List.rev !sample);
    peak_mb = heap_mb ();
  }

let rounds spec ~seed ~traced ~seconds =
  Common.rounds ~seconds (fun _ -> round spec ~seed:(Int64.of_int seed) ~traced)

(* Rounds are the same work: same seed, same commit order and, from the
   compacted heap each starts with, the same collections at the same
   points. So the k-th chunk time, or the k-th measured request's latency,
   measures the same work in every round. *)
let fastest series rs = Common.fastest ~label:"sim" (List.map series rs)

let commits_per_s rs =
  float_of_int (List.hd rs).commits /. Array.fold_left ( +. ) 0.0 (fastest (fun r -> r.chunks) rs)

let latency p rs = percentile p (fastest (fun r -> r.lat_ms) rs)

let run spec ~seed ~seconds ~trace =
  let base = rounds spec ~seed ~traced:false ~seconds:(if trace then seconds /. 2.0 else seconds) in
  let r0 = List.hd base in
  let commits = r0.commits in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 base in
  (* End to end (untraced rounds). *)
  emit "commits_per_s" "1/s" (commits_per_s base);
  emit "commit_p50_ms" "ms" (latency 50.0 base);
  emit "committed_frac" "frac"
    (1.0 -. (float_of_int (sum (fun r -> r.failed)) /. float_of_int (sum (fun r -> r.attempted))));
  emit "msgs_per_commit" "count" (per commits r0.msgs);
  emit "setup_s" "s" (median (List.map (fun r -> r.setup_s) base));
  emit "peak_heap_mb" "MB" r0.peak_mb;
  (* Per layer: counts from the first untraced round (every round has the
     same), hook figures from the traced rounds. *)
  if trace then begin
    let tr = rounds spec ~seed ~traced:true ~seconds:(seconds /. 2.0) in
    let t0 = List.hd tr in
    let tcommits = t0.commits in
    let tmed f = median (List.map f tr) in
    let vus, sus, wpv = crypto_replay (Qs_crypto.Auth.create spec.n) t0.sample in
    emit "crypto.sigs_per_commit" "count" (per tcommits t0.sigs);
    emit "crypto.verify_us" "us" vus;
    emit "crypto.sign_us" "us" sus;
    emit "crypto.alloc_words_per_verify" "words" wpv;
    emit "fd.open_expect_mean" "count" (per t0.receives t0.open_sum);
    emit "fd.open_expect_max" "count" (float_of_int t0.open_max);
    emit "fd.expectations_per_commit" "count" (per commits r0.fd_expectations);
    emit "fd.timeouts" "count" (float_of_int r0.fd_timeouts);
    emit "fd.false_suspicions" "count" (float_of_int r0.fd_false);
    emit "core.quorums_issued" "count" (float_of_int r0.quorums);
    emit "core.updates_merged" "count" (float_of_int r0.merged);
    emit "core.qsel_msgs_per_commit" "count" (per tcommits t0.qsel_msgs);
    emit "xpaxos.receive_us" "us" (tmed (fun r -> r.receive_s *. 1e6 /. float_of_int r.receives));
    emit "xpaxos.msg_bytes_per_commit" "bytes" (per tcommits t0.bytes);
    emit "xpaxos.view_change_bytes" "bytes" (float_of_int t0.vc_bytes);
    emit "xpaxos.views" "count" (float_of_int r0.views);
    emit "sim.events_per_commit" "count" (per commits r0.events);
    emit "sim.self_us_per_commit" "us"
      (tmed (fun r -> (r.cpu_s -. r.receive_s) *. 1e6 /. float_of_int r.commits));
    emit "sim.commit_p50_ms" "sim-ms" (percentile 50.0 r0.lat_sim_ms);
    emit "sim.commit_p99_ms" "sim-ms" (percentile 99.0 r0.lat_sim_ms);
    emit "sim.unavail_ms" "sim-ms" r0.unavail_ms;
    emit "gc.minor_words_per_commit" "words" (r0.minor_words /. float_of_int commits);
    emit "gc.major_per_1k_commits" "count" (1000.0 *. float_of_int r0.majors /. float_of_int commits);
    emit "client.latency_samples" "count" (float_of_int commits);
    emit "client.commit_p90_ms" "ms" (latency 90.0 base);
    emit "client.commit_p99_ms" "ms" (latency 99.0 base);
    emit "trace.overhead_frac" "frac" (1.0 -. (commits_per_s tr /. commits_per_s base));
    (* No sockets, stores or arrival generator on the simulator's path. *)
    List.iter
      (fun (name, u) -> emit name u 0.0)
      [
        ("runtime.frames_per_commit", "count");
        ("runtime.shed", "count");
        ("runtime.dup_dropped", "count");
        ("runtime.lock_wait_us_p50", "us");
        ("runtime.lock_wait_us_p99", "us");
        ("runtime.submit_us", "us");
        ("runtime.codec_us", "us");
        ("runtime.wire_bytes_per_commit", "bytes");
        ("recovery.puts_per_commit", "count");
        ("recovery.fsyncs_per_commit", "count");
        ("recovery.log_bytes", "bytes");
        ("recovery.persist_us", "us");
        ("gen.late_max_ms", "ms");
      ]
  end;
  (sum (fun r -> r.attempted), sum (fun r -> r.failed))

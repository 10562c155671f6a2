(* tcp-open: XPaxos (quorum-selection mode, n=4 f=1) on real loopback TCP
   with the node setup of [Qs_runtime.Cluster.run], loaded by one generator
   thread sending open-loop Poisson arrivals. The arrival schedule is drawn
   from the seed before the load starts; latency is timed from each
   request's due time, so generator lateness and backlog both count.

   A run is a sequence of rounds, each a fresh cluster serving the same
   arrival window, so every round starts from an empty log: the
   per-execute persist and the 1 s anti-entropy push both carry the whole
   committed log, and a cluster left running at this rate degrades into
   view-change storms (see README.md, "Probe findings"). *)

module Stime = Qs_sim.Stime
module Sim = Qs_sim.Sim
module Replica = Qs_xpaxos.Replica
module Xmsg = Qs_xpaxos.Xmsg
module Xdurable = Qs_xpaxos.Xdurable
module Detector = Qs_fd.Detector
module Store = Qs_recovery.Store
module Prng = Qs_stdx.Prng
module Cluster = Qs_runtime.Cluster
module Corelock = Qs_runtime.Corelock
module Wallclock = Qs_runtime.Wallclock
module Envelope = Qs_runtime.Envelope
module Frame = Qs_runtime.Frame
module Tcp = Qs_runtime.Tcp
open Common

let n = 4

let f = 1

let rate = 40.0 (* req/s: below the knee where overload starts to look Byzantine *)

let window_s = 3.0

let resubmit_every = Stime.of_ms 200

let deadline = Stime.of_ms 5000

(* Traced-run hooks, set only for the traced phase. *)
type tap = {
  mutable on_send : int -> int -> Envelope.t -> unit;
  mutable on_receive : int -> Envelope.t -> (unit -> unit) -> unit;
}

let tap = { on_send = (fun _ _ _ -> ()); on_receive = (fun _ _ k -> k ()) }

(* [Cluster.T] with a pass-through tap on [send] and the installed handler,
   so the traced run sees every protocol message without touching lib/. *)
module Tap = struct
  include Cluster.T

  let send t ~src ~dst m =
    tap.on_send src dst m;
    Cluster.T.send t ~src ~dst m

  let set_handler t i h = Cluster.T.set_handler t i (fun ~src m -> tap.on_receive i m (fun () -> h ~src m))
end

module N = Qs_runtime.Node.Make (Tap)

(* The configuration [Cluster.run] uses. *)
let config =
  {
    Replica.n;
    f;
    mode = Replica.Quorum_selection;
    initial_timeout = Stime.of_ms 150;
    timeout_strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 2000 };
  }

type cluster = {
  fabric : Tap.t;
  clock : Wallclock.t;
  nodes : N.t array;
  stores : Store.t array;
  commit_at : (int, Stime.t) Hashtbl.t;
      (** per (client, rid) key: when the (n-f)-th replica executed it;
          written by the drivers under the core lock *)
}

let build ~seed =
  let addrs = Cluster.loopback_addrs ~n () in
  let fabric =
    Tap.create ~addrs ~seed ~keepalive_every:(Stime.of_ms 50) ~reconnect_initial:(Stime.of_ms 5)
      ~reconnect_strategy:(Qs_fd.Timeout.Exponential { factor = 2.0; max = Stime.of_ms 500 })
      ~reconnect_jitter:0.2 ()
  in
  let clock = Tap.clock fabric in
  let auth = Qs_crypto.Auth.create n in
  for i = 0 to n - 1 do
    Tap.start fabric ~me:i
  done;
  let stores = Array.init n (fun _ -> Store.create ()) in
  (* replicas that executed each key, as a bitmask *)
  let masks = Hashtbl.create 4096 and commit_at = Hashtbl.create 4096 in
  let on_execute me (r : Xmsg.request) =
    let k = key r in
    let m = Option.value ~default:0 (Hashtbl.find_opt masks k) lor (1 lsl me) in
    Hashtbl.replace masks k m;
    let votes = ref 0 in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then incr votes
    done;
    if !votes = n - f && not (Hashtbl.mem commit_at k) then
      Hashtbl.replace commit_at k (Wallclock.now clock)
  in
  (* Node creation runs protocol code and schedules gossip timers on the
     endpoints' wheels, so it takes the core lock the drivers run under. *)
  let nodes =
    Corelock.with_lock (fun () ->
        let nodes =
          Array.init n (fun me ->
              N.create ~config ~me ~auth ~transport:fabric ~store:stores.(me)
                ~on_execute:(fun ~slot:_ r -> on_execute me r)
                ())
        in
        Array.iter N.start_gossip nodes;
        nodes)
  in
  { fabric; clock; nodes; stores; commit_at }

(* [Tcp.stop] closes the inbound sockets while their receiver threads are
   still blocked on them; each thread closes its socket again when it wakes
   up, and by then a new cluster may have reused the descriptor (README,
   P8). Give the old threads time to finish before anything allocates new
   descriptors. *)
let stop cl =
  for i = 0 to n - 1 do
    Tap.stop cl.fabric ~me:i
  done;
  Thread.delay 0.25

let committed cl k = Corelock.with_lock (fun () -> Hashtbl.mem cl.commit_at k)

let request client rid = { Xmsg.client; rid; op = Printf.sprintf "set k%d %d" client rid }

let submit_all cl r = Array.iter (fun node -> N.submit node r) cl.nodes

(* Set-up: sockets, nodes and gossip up, then one probe request committed
   by n-f replicas — the cluster is then able to serve. *)
let setup ~seed =
  let t0 = Common.now () in
  let cl = build ~seed in
  let probe = request 1 0 in
  submit_all cl probe;
  let k = key probe in
  let start = Wallclock.now cl.clock in
  let last = ref start in
  while not (committed cl k) do
    if Wallclock.now cl.clock - start > deadline then failwith "tcp-open: set-up probe never committed";
    if Wallclock.now cl.clock - !last >= resubmit_every then begin
      last := Wallclock.now cl.clock;
      submit_all cl probe
    end;
    Thread.delay 0.001
  done;
  (cl, Common.now () -. t0)

type phase = {
  wall_s : float;
  lat_ms : float array;  (** per request of the schedule; infinity if it failed *)
  attempted : int;
  failed : int;
  frames : int;
  shed : int;
  dup : int;
  views : int;
  events : int;
  minor_words : float;
  majors : int;
  late_max_ms : float;
  submit_us : float;
  max_gap_ms : float;
  fd : int array;
  puts : int;
  fsyncs : int;
  counted : int list;
}

let stats_sum cl =
  let s = Array.init n (fun me -> Tap.stats cl.fabric ~me) in
  Array.fold_left
    (fun (a, b, c) (x : Tcp.stats) -> (a + x.Tcp.sent, b + x.Tcp.shed, c + x.Tcp.dup_dropped))
    (0, 0, 0) s

let layer_counters () = Corelock.with_lock (fun () -> Common.layer_counters n)

(* One open-loop window on a running cluster. The arrivals are those of a
   Poisson process of [rate] conditioned on its expected count for the
   window (given the count, Poisson arrival times are independent uniform),
   so every window offers the same load. *)
let load cl ~seed =
  let prng = Prng.create (Int64.of_int seed) in
  let due = Array.init (int_of_float (rate *. window_s)) (fun _ -> Prng.float prng window_s) in
  Array.sort compare due;
  let total = Array.length due in
  let reqs = Array.init total (fun k -> request 0 k) in
  let keys = Array.map key reqs in
  let start = Wallclock.now cl.clock + Stime.of_ms 20 in
  let due_tick = Array.map (fun d -> start + int_of_float (d *. 1e6)) due in
  let sent_at = Array.make total 0 in
  let released = Atomic.make 0 in
  let late_max = ref 0 and submit_s = ref 0.0 in
  let frames0, shed0, dup0 = stats_sum cl in
  let fd0 = layer_counters () in
  let puts0 = Array.fold_left (fun a s -> a + Store.puts s) 0 cl.stores in
  let fsyncs0 = Array.fold_left (fun a s -> a + Store.fsyncs s) 0 cl.stores in
  let events () =
    Corelock.with_lock (fun () ->
        let e = ref 0 in
        for me = 0 to n - 1 do
          e := !e + Sim.events_executed (Tap.sim cl.fabric ~me)
        done;
        !e)
  in
  let events0 = events () in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let generator () =
    for k = 0 to total - 1 do
      let wait = due_tick.(k) - Wallclock.now cl.clock in
      if wait > 0 then Thread.delay (Wallclock.to_seconds wait);
      let now = Wallclock.now cl.clock in
      late_max := max !late_max (now - due_tick.(k));
      sent_at.(k) <- now;
      let t0 = Common.now () in
      submit_all cl reqs.(k);
      submit_s := !submit_s +. (Common.now () -. t0);
      Atomic.set released (k + 1)
    done
  in
  let gen = Thread.create generator () in
  (* Client side: rebroadcast released, uncommitted requests every 200 ms
     until each commits or passes its deadline; stop once the schedule is
     done and nothing is outstanding. *)
  let lo = ref 0 and finished = ref false in
  while not !finished do
    Thread.delay 0.01;
    let upto = Atomic.get released in
    let resend =
      Corelock.with_lock (fun () ->
          let now = Wallclock.now cl.clock in
          let resolved k = Hashtbl.mem cl.commit_at keys.(k) || now - due_tick.(k) >= deadline in
          while !lo < upto && resolved !lo do
            incr lo
          done;
          let acc = ref [] in
          for k = !lo to upto - 1 do
            if (not (resolved k)) && now - sent_at.(k) >= resubmit_every then begin
              sent_at.(k) <- now;
              acc := k :: !acc
            end
          done;
          !acc)
    in
    List.iter (fun k -> submit_all cl reqs.(k)) resend;
    finished := upto = total && !lo = total
  done;
  Thread.join gen;
  let frames1, shed1, dup1 = stats_sum cl in
  let fd1 = layer_counters () in
  let events1 = events () in
  let w1 = Gc.minor_words () and g1 = (Gc.quick_stat ()).Gc.major_collections in
  Corelock.with_lock (fun () ->
      let counted = ref [] and failed = ref 0 and commit_ticks = ref [] in
      let lat =
        Array.mapi
          (fun k key ->
            match Hashtbl.find_opt cl.commit_at key with
            | Some at when at - due_tick.(k) <= deadline ->
              counted := key :: !counted;
              commit_ticks := at :: !commit_ticks;
              Stime.to_ms (at - due_tick.(k))
            | _ ->
              incr failed;
              infinity)
          keys
      in
      let ticks = List.sort compare !commit_ticks in
      let max_gap, last =
        List.fold_left (fun (g, prev) t -> (max g (t - prev), t)) (0, start) ticks
      in
      {
        wall_s = Float.max window_s (Wallclock.to_seconds (last - start));
        lat_ms = lat;
        attempted = total;
        failed = !failed;
        frames = frames1 - frames0;
        shed = shed1 - shed0;
        dup = dup1 - dup0;
        views = 1 + Array.fold_left (fun a node -> max a (Replica.view (N.replica node))) 0 cl.nodes;
        events = events1 - events0;
        minor_words = w1 -. w0;
        majors = g1 - g0;
        late_max_ms = Stime.to_ms !late_max;
        submit_us = !submit_s *. 1e6 /. float_of_int (max 1 total);
        max_gap_ms = Stime.to_ms max_gap;
        fd = Array.mapi (fun i v -> v - fd0.(i)) fd1;
        puts = Array.fold_left (fun a s -> a + Store.puts s) 0 cl.stores - puts0;
        fsyncs = Array.fold_left (fun a s -> a + Store.fsyncs s) 0 cl.stores - fsyncs0;
        counted = !counted;
      })

let check_cluster cl (p : phase) =
  Corelock.with_lock (fun () ->
      let histories = Array.map (fun node -> Replica.executed (N.replica node)) cl.nodes in
      check_histories ~label:"tcp" ~quorum:(n - f) histories p.counted)

(* Traced-round accumulators, filled by the tap hooks and the lock probe. *)
type trace_acc = {
  mutable replicas : Replica.t array;
  mutable receive_s : float;
  mutable receives : int;
  mutable open_sum : int;
  mutable open_max : int;
  mutable sigs : int;
  mutable bytes : int;
  mutable vc_bytes : int;
  mutable qsel : int;
  mutable sample : (int * string * string) list;
  mutable envs : (int * Envelope.t) list;
  mutable sampled : int;
  mutable seen : int;
  mutable waits : float list;
}

let acc =
  {
    replicas = [||];
    receive_s = 0.0;
    receives = 0;
    open_sum = 0;
    open_max = 0;
    sigs = 0;
    bytes = 0;
    vc_bytes = 0;
    qsel = 0;
    sample = [];
    envs = [];
    sampled = 0;
    seen = 0;
    waits = [];
  }

let arm () =
  tap.on_receive <-
    (fun i env k ->
      match env with
      | Envelope.Proto m ->
        let o = Detector.open_expectations (Replica.detector acc.replicas.(i)) in
        acc.open_sum <- acc.open_sum + o;
        acc.open_max <- max acc.open_max o;
        acc.sigs <- acc.sigs + sigs_of m;
        acc.receives <- acc.receives + 1;
        let t0 = Common.now () in
        k ();
        acc.receive_s <- acc.receive_s +. (Common.now () -. t0)
      | Envelope.Rejoin _ -> k ());
  tap.on_send <-
    (fun src dst env ->
      if src <> dst then begin
        (match env with
         | Envelope.Proto m ->
           let b = String.length (Xmsg.encode_body m.Xmsg.body) in
           acc.bytes <- acc.bytes + b;
           if is_view_change m then acc.vc_bytes <- acc.vc_bytes + b;
           if is_qsel m then acc.qsel <- acc.qsel + 1;
           if acc.sampled < 4096 then
             acc.sample <- (m.Xmsg.sender, Xmsg.encode_body m.Xmsg.body, m.Xmsg.signature) :: acc.sample
         | Envelope.Rejoin _ -> ());
        acc.seen <- acc.seen + 1;
        if acc.sampled < 4096 then begin
          acc.sampled <- acc.sampled + 1;
          acc.envs <- (src, env) :: acc.envs
        end
      end)

let disarm () =
  tap.on_send <- (fun _ _ _ -> ());
  tap.on_receive <- (fun _ _ k -> k ())

type round = {
  ph : phase;
  setup : float;
  log_bytes : int;  (** size of the durable "log" binding at round end *)
  persist_us : float;  (** [Xdurable.persist] of the final replica, traced rounds *)
  peak_mb : float;  (** [heap_mb] at round end *)
}

let time_persist cl =
  Corelock.with_lock (fun () ->
      let r = N.replica cl.nodes.(0) in
      us_per_op ~ops:1 (fun () -> Xdurable.persist r (Store.create ())))

let round ~seed ~traced =
  let cl, setup = setup ~seed:(Int64.of_int seed) in
  let probing = Atomic.make traced in
  let prober =
    if not traced then None
    else begin
      acc.replicas <- Array.map N.replica cl.nodes;
      arm ();
      (* Lock probe: how long a thread waits for the core lock the drivers
         hold while they run protocol code. *)
      Some
        (Thread.create
           (fun () ->
             while Atomic.get probing do
               let t0 = Common.now () in
               Corelock.with_lock (fun () -> ());
               acc.waits <- ((Common.now () -. t0) *. 1e6) :: acc.waits;
               Thread.delay 0.001
             done)
           ())
    end
  in
  let ph = load cl ~seed in
  Atomic.set probing false;
  Option.iter Thread.join prober;
  disarm ();
  check_cluster cl ph;
  let log_bytes =
    match Corelock.with_lock (fun () -> Store.get cl.stores.(0) "log") with
    | Some s -> String.length s
    | None -> 0
  in
  let persist_us = if traced then time_persist cl else 0.0 in
  stop cl;
  { ph; setup; log_bytes; persist_us; peak_mb = heap_mb () }

let rounds ~seed ~traced ~seconds = Common.rounds ~seconds (fun _ -> round ~seed ~traced)

let sum f rs = List.fold_left (fun a r -> a + f r.ph) 0 rs

let finite a = Array.of_seq (Seq.filter Float.is_finite (Array.to_seq a))

let latencies rs = finite (Array.concat (List.map (fun r -> r.ph.lat_ms) rs))

(* Every round serves the same arrival schedule, so the k-th request of
   each round is the same request. *)
let fastest_latency p rs =
  percentile p (finite (fastest ~label:"tcp" (List.map (fun r -> r.ph.lat_ms) rs)))

let cps rs =
  float_of_int (Array.length (latencies rs))
  /. List.fold_left (fun a r -> a +. r.ph.wall_s) 0.0 rs

let run ~seed ~seconds ~trace =
  let base = rounds ~seed ~traced:false ~seconds:(if trace then seconds /. 2.0 else seconds) in
  let lat = latencies base in
  let commits = Array.length lat in
  let attempted = sum (fun p -> p.attempted) base and failed = sum (fun p -> p.failed) base in
  emit "commits_per_s" "1/s" (cps base);
  emit "commit_p50_ms" "ms" (fastest_latency 50.0 base);
  emit "committed_frac" "frac" (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
  emit "msgs_per_commit" "count" (per commits (sum (fun p -> p.frames) base));
  emit "setup_s" "s" (median (List.map (fun r -> r.setup) base));
  emit "peak_heap_mb" "MB" (List.hd base).peak_mb;
  if not trace then (attempted, failed)
  else begin
    let tr = rounds ~seed ~traced:true ~seconds:(seconds /. 2.0) in
    let tlat = latencies tr in
    let tcommits = max 1 (Array.length tlat) in
    let tsum f = sum f tr in
    let vus, sus, wpv = crypto_replay (Qs_crypto.Auth.create n) (Array.of_list acc.sample) in
    (* Wire codec replay: envelope + frame encode and decode of the
       captured messages. *)
    let envs = Array.of_list (List.rev acc.envs) in
    let frame (src, env) =
      Frame.encode { Frame.kind = Frame.Data; src; incarnation = 1; seq = 1; payload = Envelope.encode env }
    in
    let wire = Array.fold_left (fun a e -> a + String.length (frame e)) 0 envs in
    let codec_us =
      us_per_op ~ops:(Array.length envs) (fun () ->
          Array.iter
            (fun e ->
              let s = frame e in
              let fr = Frame.decode_body (String.sub s 4 (String.length s - 4)) in
              ignore (Envelope.decode fr.Frame.payload : Envelope.t))
            envs)
    in
    let waits = Array.of_list acc.waits in
    let fd i = tsum (fun p -> p.fd.(i)) in
    emit "crypto.sigs_per_commit" "count" (per tcommits acc.sigs);
    emit "crypto.verify_us" "us" vus;
    emit "crypto.sign_us" "us" sus;
    emit "crypto.alloc_words_per_verify" "words" wpv;
    emit "fd.open_expect_mean" "count" (per acc.receives acc.open_sum);
    emit "fd.open_expect_max" "count" (float_of_int acc.open_max);
    emit "fd.expectations_per_commit" "count" (per tcommits (fd 0));
    emit "fd.timeouts" "count" (float_of_int (fd 1));
    emit "fd.false_suspicions" "count" (float_of_int (fd 2));
    emit "core.quorums_issued" "count" (float_of_int (fd 3));
    emit "core.updates_merged" "count" (float_of_int (fd 4));
    emit "core.qsel_msgs_per_commit" "count" (per tcommits acc.qsel);
    emit "xpaxos.receive_us" "us" (acc.receive_s *. 1e6 /. float_of_int (max 1 acc.receives));
    emit "xpaxos.msg_bytes_per_commit" "bytes" (per tcommits acc.bytes);
    emit "xpaxos.view_change_bytes" "bytes" (float_of_int acc.vc_bytes);
    emit "xpaxos.views" "count" (float_of_int (List.fold_left (fun a r -> max a r.ph.views) 0 tr));
    emit "sim.events_per_commit" "count" (per tcommits (tsum (fun p -> p.events)));
    (* The node wheels only fire timers here: no simulator loop runs and
       there is no simulated clock. *)
    List.iter
      (fun (name, u) -> emit name u 0.0)
      [
        ("sim.self_us_per_commit", "us");
        ("sim.commit_p50_ms", "sim-ms");
        ("sim.commit_p99_ms", "sim-ms");
        ("sim.unavail_ms", "sim-ms");
      ];
    emit "runtime.frames_per_commit" "count" (per tcommits (tsum (fun p -> p.frames)));
    emit "runtime.shed" "count" (float_of_int (tsum (fun p -> p.shed)));
    emit "runtime.dup_dropped" "count" (float_of_int (tsum (fun p -> p.dup)));
    emit "runtime.lock_wait_us_p50" "us" (percentile 50.0 waits);
    emit "runtime.lock_wait_us_p99" "us" (percentile 99.0 waits);
    emit "runtime.submit_us" "us" (median (List.map (fun r -> r.ph.submit_us) tr));
    emit "runtime.codec_us" "us" codec_us;
    emit "runtime.wire_bytes_per_commit" "bytes"
      (float_of_int wire *. float_of_int acc.seen
      /. float_of_int (max 1 (Array.length envs))
      /. float_of_int tcommits);
    emit "recovery.puts_per_commit" "count" (per tcommits (tsum (fun p -> p.puts)));
    emit "recovery.fsyncs_per_commit" "count" (per tcommits (tsum (fun p -> p.fsyncs)));
    emit "recovery.log_bytes" "bytes" (float_of_int (List.hd (List.rev tr)).log_bytes);
    emit "recovery.persist_us" "us" (median (List.map (fun r -> r.persist_us) tr));
    emit "gen.late_max_ms" "ms" (List.fold_left (fun a r -> Float.max a r.ph.late_max_ms) 0.0 tr);
    emit "gc.minor_words_per_commit" "words"
      (List.fold_left (fun a r -> a +. r.ph.minor_words) 0.0 base /. float_of_int (max 1 commits));
    emit "gc.major_per_1k_commits" "count"
      (1000.0 *. float_of_int (sum (fun p -> p.majors) base) /. float_of_int (max 1 commits));
    emit "client.latency_samples" "count" (float_of_int commits);
    emit "client.commit_p90_ms" "ms" (fastest_latency 90.0 base);
    emit "client.commit_p99_ms" "ms" (percentile 99.0 lat);
    emit "trace.overhead_frac" "frac" (1.0 -. (cps tr /. cps base));
    (attempted + tsum (fun p -> p.attempted), failed + tsum (fun p -> p.failed))
  end

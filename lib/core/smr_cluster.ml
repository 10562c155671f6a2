(** A replicated-state-machine cluster in the discrete-event simulator, for
    any protocol stack.

    Wires [n] nodes over a FIFO {!Qs_sim.Network} with one shared
    {!Qs_crypto.Auth} key directory, plays a simulated client (a request is
    handed to every node, as a client broadcasts after a timeout), and
    keeps the commit census: which nodes executed which request, and when
    the request first reached the stack's commit quorum.

    A stack plugs in through {!STACK}, which carries only what differs
    between protocols: how to build and drive one node, and what
    "committed" means. {!Qs_xpaxos.Xcluster}, {!Qs_pbft.Pcluster},
    {!Qs_minbft.Mcluster}, {!Qs_bchain.Chain_cluster} and
    {!Qs_star.Star_cluster} are instances of {!Make}. *)

module Sim = Qs_sim.Sim
module Network = Qs_sim.Network
module Stime = Qs_sim.Stime

module type STACK = sig
  type config

  type node

  type msg

  type fault

  val n : config -> int

  val create :
    config ->
    sim:Sim.t ->
    auth:Qs_crypto.Auth.t ->
    me:Pid.t ->
    net_send:(dst:Pid.t -> msg -> unit) ->
    on_execute:(Request.t -> unit) ->
    node
  (** The cluster applies [create config ~sim ~auth] once and the result
      once per node, so per-cluster set-up (MinBFT's trusted counters) can
      run between the two. *)

  val receive : node -> src:Pid.t -> msg -> unit

  val submit : node -> Request.t -> unit

  val executed : node -> Request.t list
  (** The node's executed history, oldest first. *)

  val set_fault : node -> fault -> unit

  val mute : fault

  val honest : fault

  val commit_quorum : config -> int
  (** How many nodes must have executed a request for its commit to be
      timed ({!S.commit_latency}). *)

  val committed : config -> node array -> Pid.t list -> bool
  (** The stack's commit rule, given the sorted nodes that executed a
      request. The client keeps resubmitting until it holds. *)
end

module type S = sig
  type config

  type node

  type msg

  type fault

  type t

  val create : ?seed:int64 -> ?delay:Network.delay_model -> config -> t
  (** Default seed [1L], default delay [Fixed 1ms]. *)

  val sim : t -> Sim.t

  val net : t -> msg Network.t

  val node : t -> Pid.t -> node

  val nodes : t -> node array

  val set_fault : t -> Pid.t -> fault -> unit

  val set_mute : t -> Pid.t -> bool -> unit
  (** [set_fault] to the stack's mute fault, or back to honest. *)

  val submit : t -> ?client:int -> ?resubmit_every:Stime.t -> string -> Request.t
  (** Schedule a client request, handed to every node at the current
      simulation time and, when [resubmit_every] is given, redelivered at
      that period until the request is committed. *)

  val run : ?until:Stime.t -> ?max_events:int -> t -> unit

  val executed : t -> Pid.t -> Request.t list
  (** One node's executed history, oldest first. *)

  val executed_by : t -> Request.t -> Pid.t list
  (** Nodes that executed the request, sorted. *)

  val is_committed : t -> Request.t -> bool
  (** The stack's commit rule ({!STACK.committed}). *)

  val commit_latency : t -> Request.t -> Stime.t option
  (** Time from submission until {!STACK.commit_quorum} nodes executed
      the request. *)

  val consistent : t -> correct:Pid.t list -> bool
  (** Pairwise prefix-consistency of the given nodes' executed histories:
      the safety invariant of state machine replication. *)

  val message_count : t -> int
  (** Inter-node messages sent (excludes self-deliveries). *)
end

module Make (St : STACK) : sig
  include
    S
      with type config = St.config
       and type node = St.node
       and type msg = St.msg
       and type fault = St.fault

  val create_observed :
    ?seed:int64 -> ?delay:Network.delay_model -> on_execute:(Pid.t -> unit) -> config -> t
  (** {!S.create}, with [on_execute p] run after the census recorded an
      execution at node [p]. The stack's cluster module uses it for
      per-node work on execute (XPaxos's persist hook); it is not part of
      {!S}. *)
end = struct
  type config = St.config

  type node = St.node

  type msg = St.msg

  type fault = St.fault

  type t = {
    sim : Sim.t;
    net : St.msg Network.t;
    nodes : St.node array;
    config : St.config;
    mutable next_rid : int;
    (* (client, rid) -> nodes that executed it *)
    executions : (int * int, Pid.t list ref) Hashtbl.t;
    submit_times : (int * int, Stime.t) Hashtbl.t;
    commit_times : (int * int, Stime.t) Hashtbl.t;
  }

  let create_observed ?(seed = 1L) ?(delay = Network.Fixed (Stime.of_ms 1)) ~on_execute
      config =
    let n = St.n config in
    let sim = Sim.create ~seed () in
    let net = Network.create ~sim ~n ~delay ~fifo:true () in
    let auth = Qs_crypto.Auth.create n in
    let make = St.create config ~sim ~auth in
    let executions = Hashtbl.create 64 in
    let commit_times = Hashtbl.create 64 in
    let quorum = St.commit_quorum config in
    let nodes =
      Array.init n (fun me ->
          make ~me
            ~net_send:(fun ~dst msg -> Network.send net ~src:me ~dst msg)
            ~on_execute:(fun (request : Request.t) ->
              let key = (request.client, request.rid) in
              let cell =
                match Hashtbl.find_opt executions key with
                | Some c -> c
                | None ->
                  let c = ref [] in
                  Hashtbl.replace executions key c;
                  c
              in
              if not (List.mem me !cell) then begin
                cell := me :: !cell;
                if List.length !cell = quorum && not (Hashtbl.mem commit_times key) then
                  Hashtbl.replace commit_times key (Sim.now sim)
              end;
              on_execute me))
    in
    Array.iteri
      (fun i node -> Network.set_handler net i (fun ~src msg -> St.receive node ~src msg))
      nodes;
    {
      sim;
      net;
      nodes;
      config;
      next_rid = 0;
      executions;
      submit_times = Hashtbl.create 64;
      commit_times;
    }

  let create ?seed ?delay config = create_observed ?seed ?delay ~on_execute:ignore config

  let sim t = t.sim

  let net t = t.net

  let node t i = t.nodes.(i)

  let nodes t = t.nodes

  let set_fault t i fault = St.set_fault t.nodes.(i) fault

  let set_mute t i m = set_fault t i (if m then St.mute else St.honest)

  let executed t i = St.executed t.nodes.(i)

  let executed_by t (request : Request.t) =
    match Hashtbl.find_opt t.executions (request.client, request.rid) with
    | Some cell -> List.sort compare !cell
    | None -> []

  let is_committed t request = St.committed t.config t.nodes (executed_by t request)

  let submit t ?(client = 0) ?resubmit_every op =
    let rid = t.next_rid in
    t.next_rid <- t.next_rid + 1;
    let request = { Request.client; rid; op } in
    Hashtbl.replace t.submit_times (client, rid) (Sim.now t.sim);
    let deliver () = Array.iter (fun node -> St.submit node request) t.nodes in
    Sim.schedule t.sim ~delay:0 deliver;
    (match resubmit_every with
     | None -> ()
     | Some period ->
       let rec again () =
         if not (is_committed t request) then begin
           deliver ();
           Sim.schedule t.sim ~delay:period again
         end
       in
       Sim.schedule t.sim ~delay:period again);
    request

  let run ?until ?max_events t = Sim.run ?until ?max_events t.sim

  let commit_latency t (request : Request.t) =
    let key = (request.client, request.rid) in
    match (Hashtbl.find_opt t.submit_times key, Hashtbl.find_opt t.commit_times key) with
    | Some s, Some c -> Some (Stime.( - ) c s)
    | _ -> None

  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && is_prefix a' b'

  let consistent t ~correct =
    let histories = List.map (executed t) correct in
    List.for_all
      (fun h1 -> List.for_all (fun h2 -> is_prefix h1 h2 || is_prefix h2 h1) histories)
      histories

  let message_count t = Network.sent_count t.net
end

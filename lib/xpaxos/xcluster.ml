module Network = Qs_sim.Network
module Pid = Qs_core.Pid
module Store = Qs_recovery.Store

module C = Qs_core.Smr_cluster.Make (struct
  type config = Replica.config

  type node = Replica.t

  type msg = Xmsg.t

  type fault = Replica.fault

  let n (c : config) = c.n

  let create config ~sim ~auth ~me ~net_send ~on_execute =
    Replica.create config ~me ~auth ~sim ~net_send
      ~on_execute:(fun ~slot:_ request -> on_execute request)
      ()

  let receive = Replica.receive

  let submit = Replica.submit

  let executed = Replica.executed

  let set_fault = Replica.set_fault

  let mute = Replica.Mute

  let honest = Replica.Honest

  (* The XFT commit condition. *)
  let commit_quorum (c : config) = c.n - c.f

  let committed c _ executed = List.length executed >= commit_quorum c
end)

type config = Replica.config

type node = Replica.t

type msg = Xmsg.t

type fault = Replica.fault

type t = {
  c : C.t;
  omitted : (Pid.t * Pid.t, unit) Hashtbl.t;
  delayed : (Pid.t * Pid.t, Qs_sim.Stime.t) Hashtbl.t;
  mutable stores : Store.t array option; (* set by attach_durability *)
}

(* ------------------------------------------------------------------ *)
(* The durable-state layout, rejoin payloads and amnesia restore live in
   {!Xdurable}, shared with the real-transport runtime node. The cluster
   only supplies the per-pid replica and store. *)

let persist t p =
  match t.stores with
  | None -> ()
  | Some stores -> Xdurable.persist (C.node t.c p) stores.(p)

let create ?seed ?delay config =
  (* The persist-on-execute hook outlives this function and needs the
     cluster record that is only built below — forward reference. *)
  let self = ref None in
  let c =
    C.create_observed ?seed ?delay config ~on_execute:(fun p ->
        Option.iter (fun t -> persist t p) !self)
  in
  let t =
    { c; omitted = Hashtbl.create 16; delayed = Hashtbl.create 16; stores = None }
  in
  self := Some t;
  ignore
    (Network.add_filter (C.net c) (fun ~now:_ ~src ~dst _ ->
         if Hashtbl.mem t.omitted (src, dst) then Network.Drop
         else
           match Hashtbl.find_opt t.delayed (src, dst) with
           | Some d -> Network.Delay d
           | None -> Network.Deliver)
      : Network.filter_id);
  t

let sim t = C.sim t.c

let net t = C.net t.c

let node t = C.node t.c

let nodes t = C.nodes t.c

let set_fault t = C.set_fault t.c

let set_mute t = C.set_mute t.c

let submit t = C.submit t.c

let run ?until ?max_events t = C.run ?until ?max_events t.c

let executed t = C.executed t.c

let executed_by t = C.executed_by t.c

let is_committed t = C.is_committed t.c

let commit_latency t = C.commit_latency t.c

let consistent t = C.consistent t.c

let message_count t = C.message_count t.c

let omit_link t ~src ~dst = Hashtbl.replace t.omitted (src, dst) ()

let delay_link t ~src ~dst ~by = Hashtbl.replace t.delayed (src, dst) by

let heal_link t ~src ~dst =
  Hashtbl.remove t.omitted (src, dst);
  Hashtbl.remove t.delayed (src, dst)

let max_view t = Array.fold_left (fun acc r -> max acc (Replica.view r)) 0 (nodes t)

(* ------------------------------------------------------------------ *)
(* Durability and amnesia crashes *)

let attach_durability ?fsync_every t =
  match t.stores with
  | Some _ -> ()
  | None ->
    let stores = Array.map (fun _ -> Store.create ?fsync_every ()) (nodes t) in
    t.stores <- Some stores;
    (* Baseline snapshot: the pre-run state is durable by definition. *)
    Array.iteri
      (fun p store ->
        persist t p;
        Store.fsync store)
      stores

let n t = Array.length (nodes t)

let collect_payload t p = Xdurable.collect_payload ~n:(n t) (node t p)

let adopt_payload t p ~matrix ~epoch ~extra =
  Xdurable.adopt_payload (node t p) ~matrix ~epoch ~extra

let amnesia t p =
  let store = Option.map (fun stores -> stores.(p)) t.stores in
  Xdurable.amnesia ~n:(n t) (node t p) store

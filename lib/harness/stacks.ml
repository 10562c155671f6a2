module Stime = Qs_sim.Stime
module Pid = Qs_core.Pid
module QS = Qs_core.Quorum_select
module FS = Qs_follower.Follower_select
module Suspicion_matrix = Qs_core.Suspicion_matrix
module Msg = Qs_core.Msg
module Fmsg = Qs_follower.Fmsg
module Auth = Qs_crypto.Auth
module Rejoin = Qs_recovery.Rejoin

let ms = Stime.of_ms

let initial_timeout = ms 25

let strategy = Qs_fd.Timeout.Exponential { factor = 2.0; max = ms 2000 }

type selector = {
  matrix : unit -> Suspicion_matrix.t;
  epoch : unit -> int;
  absorb : matrix:Suspicion_matrix.t -> epoch:int -> unit;
  amnesia : unit -> unit;
  reevaluate : unit -> unit;
  exclude : Pid.t -> unit;
  reconfigure : QS.config -> me:Pid.t -> cepoch:int -> unit;
  set_policy : Qs_core.Selection_policy.t -> unit;
}

let of_qs s =
  {
    matrix = (fun () -> QS.matrix s);
    epoch = (fun () -> QS.epoch s);
    absorb = QS.absorb s;
    amnesia = (fun () -> QS.amnesia s);
    reevaluate = (fun () -> QS.reevaluate s);
    exclude = QS.exclude s;
    reconfigure = (fun c ~me ~cepoch -> QS.reconfigure s c ~me ~cepoch ~of_new:Fun.id);
    set_policy = QS.set_policy s;
  }

let of_fs s =
  {
    matrix = (fun () -> FS.matrix s);
    epoch = (fun () -> FS.epoch s);
    absorb = FS.absorb s;
    amnesia = (fun () -> FS.amnesia s);
    reevaluate = (fun () -> FS.reevaluate s);
    exclude = FS.exclude s;
    reconfigure = (fun c ~me ~cepoch -> FS.reconfigure s c ~me ~cepoch ~of_new:Fun.id);
    set_policy = FS.set_policy s;
  }

type 'm hooks = {
  equivocate : src:Pid.t -> dst:Pid.t -> 'm -> 'm option;
  slander : src:Pid.t -> victim:Pid.t -> 'm option;
  tamper : 'm -> 'm;
}

type recovery = {
  collect : Pid.t -> Rejoin.payload;
  adopt : Pid.t -> matrix:Suspicion_matrix.t -> epoch:int -> extra:string -> unit;
  wipe : Pid.t -> Rejoin.payload option;
}

module type S = sig
  include Qs_core.Smr_cluster.S

  val label : string

  val n_for : f:int -> int

  val config : n:int -> f:int -> config

  val describe : t -> string

  val selector : node -> selector option

  val detector : node -> msg Qs_fd.Detector.t

  val rows : auth:Auth.t -> msg -> Msg.t option

  val hooks : n:int -> auth:Auth.t -> msg hooks

  val durability : t -> recovery option

  val churn_floor : n:int -> f:int -> int option
end

(* ------------------------------------------------------------------ *)
(* The four quorum-selection stacks carry suspicion rows as a [Qsel of
   Msg.t] body inside a sealed (sender, body, signature) envelope; they
   differ only in the envelope type. *)

module type ENVELOPE = sig
  type node

  type msg

  val quorum_selector : node -> QS.t option

  val detector : node -> msg Qs_fd.Detector.t

  val row : msg -> Msg.t option
  (** The signed UPDATE a frame carries, if any. *)

  val wrap : Auth.t -> sender:Pid.t -> Msg.t -> msg
  (** Seal a fresh envelope around one UPDATE. *)

  val sender : msg -> Pid.t

  val unsigned : msg -> msg
  (** The envelope with its own tag invalidated. *)
end

module Qsel (E : ENVELOPE) = struct
  let selector node = Option.map of_qs (E.quorum_selector node)

  let detector = E.detector

  let rows ~auth:_ = E.row

  let hooks ~n ~auth =
    (* Equivocation: replace src's own row with a destination-specific
       variant re-signed under its own key. Bumping coordinate [dst] makes
       any two variants for different destinations pointwise incomparable,
       so a store holding one variant convicts on the first forwarded copy
       of another. *)
    let equivocate ~src ~dst m =
      match E.row m with
      | Some qm when qm.Msg.update.Msg.owner = src ->
        let u = qm.Msg.update in
        let row = Array.copy u.Msg.row in
        row.(dst) <- row.(dst) + 1;
        Some (E.wrap auth ~sender:src (Msg.seal auth { u with Msg.row = row }))
      | _ -> None
    in
    (* Slander: a frame claiming [victim] signed a row it never produced.
       The tag cannot be forged (Section IV), so receivers reject it and
       blame the channel — the victim stays clean. *)
    let slander ~src ~victim =
      let row = Array.init n (fun k -> if k = src then 999 else 0) in
      let u = { Msg.owner = victim; row } in
      let forged = Auth.forge auth ~claimed:victim (Msg.encode u) in
      Some (E.wrap auth ~sender:src { Msg.update = u; signature = forged.Auth.signature })
    in
    (* Tampering: flip a row entry and leave the owner's tag stale —
       receivers verify and drop, the evidence store quarantines the channel
       and leaves the claimed owner unblamed. Frames without a row get their
       envelope tag corrupted instead (rejected wholesale on receipt). *)
    let tamper m =
      match E.row m with
      | Some qm ->
        let u = qm.Msg.update in
        let row = Array.copy u.Msg.row in
        row.(0) <- row.(0) + 1;
        E.wrap auth ~sender:(E.sender m) { qm with Msg.update = { u with Msg.row = row } }
      | None -> E.unsigned m
    in
    { equivocate; slander; tamper }

  let durability _ = None

  let churn_floor ~n:_ ~f:_ = None
end

(* ------------------------------------------------------------------ *)
(* Happy-run measurements *)

let messages_per_request (type c) (module C : Qs_core.Smr_cluster.S with type config = c)
    (config : c) =
  let c = C.create config in
  let requests = List.init 5 (fun i -> C.submit c (Printf.sprintf "op%d" i)) in
  C.run c;
  if not (List.for_all (C.is_committed c) requests) then
    invalid_arg "messages_per_request: happy run failed";
  C.message_count c / List.length requests

let one_commit_latency (type c) (module C : Qs_core.Smr_cluster.S with type config = c)
    (config : c) =
  let c = C.create config in
  let r = C.submit c "lat" in
  C.run c;
  Option.get (C.commit_latency c r)

let pids = Pid.set_to_string

(* Reports describe the highest-numbered node. *)
let last nodes = nodes.(Array.length nodes - 1)

(* ------------------------------------------------------------------ *)
(* XPaxos *)

let xpaxos mode : (module S) =
  (module struct
    module X = Qs_xpaxos.Xcluster
    module R = Qs_xpaxos.Replica
    module M = Qs_xpaxos.Xmsg
    include X

    include Qsel (struct
      type nonrec node = node

      type nonrec msg = msg

      let quorum_selector = R.quorum_selector

      let detector = R.detector

      let row (m : msg) = match m.M.body with M.Qsel qm -> Some qm | _ -> None

      let wrap auth ~sender qm = M.seal auth ~sender (M.Qsel qm)

      let sender (m : msg) = m.M.sender

      let unsigned (m : msg) = { m with M.signature = "" }
    end)

    let label = "xpaxos"

    let n_for ~f = (2 * f) + 1

    let config ~n ~f = { R.n; f; mode; initial_timeout; timeout_strategy = strategy }

    let describe c =
      Printf.sprintf ", max view %d, final group %s" (max_view c)
        (pids (R.group (last (nodes c))))

    (* Deep durability: view, committed log prefix, selection state and
       adapted timeouts persist (fsynced at execute) and survive amnesia. *)
    let durability c =
      X.attach_durability c;
      Some
        {
          collect = X.collect_payload c;
          adopt = X.adopt_payload c;
          wipe = (fun p -> Some (X.amnesia c p));
        }
  end)

(* ------------------------------------------------------------------ *)
(* PBFT *)

let pbft participation : (module S) =
  (module struct
    module R = Qs_pbft.Preplica
    module M = Qs_pbft.Pmsg
    include Qs_pbft.Pcluster

    include Qsel (struct
      type nonrec node = node

      type nonrec msg = msg

      let quorum_selector = R.quorum_selector

      let detector = R.detector

      let row (m : msg) = match m.M.body with M.Qsel qm -> Some qm | _ -> None

      let wrap auth ~sender qm = M.seal auth ~sender (M.Qsel qm)

      let sender (m : msg) = m.M.sender

      let unsigned (m : msg) = { m with M.signature = "" }
    end)

    let label = "pbft"

    let n_for ~f = (3 * f) + 1

    let config ~n ~f =
      { R.n; f; participation; initial_timeout; timeout_strategy = strategy }

    let describe c = Printf.sprintf ", active %s" (pids (R.participants (last (nodes c))))
  end)

(* ------------------------------------------------------------------ *)
(* MinBFT *)

let minbft participation : (module S) =
  (module struct
    module R = Qs_minbft.Mreplica
    module M = Qs_minbft.Mmsg
    include Qs_minbft.Mcluster

    include Qsel (struct
      type nonrec node = node

      type nonrec msg = msg

      let quorum_selector = R.quorum_selector

      let detector = R.detector

      let row (m : msg) = match m.M.body with M.Qsel qm -> Some qm | _ -> None

      let wrap auth ~sender qm = M.seal auth ~sender (M.Qsel qm)

      let sender (m : msg) = m.M.sender

      let unsigned (m : msg) = { m with M.signature = "" }
    end)

    let label = "minbft"

    let n_for ~f = (2 * f) + 1

    let config ~n ~f =
      { R.n; f; participation; initial_timeout; timeout_strategy = strategy }

    let describe c = Printf.sprintf ", active %s" (pids (R.active (last (nodes c))))

    (* n = 2f+1 here, so the generic 2f+1 membership floor would freeze
       churn; the binding bound is the slot-filling one. *)
    let churn_floor ~n ~f = Some (n - f)
  end)

(* ------------------------------------------------------------------ *)
(* Chain *)

let chain : (module S) =
  (module struct
    module N = Qs_bchain.Chain_node
    module M = Qs_bchain.Chain_msg
    include Qs_bchain.Chain_cluster

    include Qsel (struct
      type nonrec node = node

      type nonrec msg = msg

      let quorum_selector node = Some (N.quorum_selector node)

      let detector = N.detector

      let row (m : msg) = match m.M.body with M.Qsel qm -> Some qm | _ -> None

      let wrap auth ~sender qm = M.seal auth ~sender (M.Qsel qm)

      let sender (m : msg) = m.M.sender

      let unsigned (m : msg) = { m with M.signature = "" }
    end)

    let label = "chain"

    let n_for ~f = (3 * f) + 1

    let config ~n ~f = { N.n; f; initial_timeout; timeout_strategy = strategy }

    let describe c = Printf.sprintf ", chain %s" (pids (current_chain c))
  end)

(* ------------------------------------------------------------------ *)
(* Star *)

let star : (module S) =
  (module struct
    module N = Qs_star.Star_node
    module M = Qs_star.Star_msg
    include Qs_star.Star_cluster

    let label = "star"

    let n_for ~f = (3 * f) + 1

    let config ~n ~f = { N.n; f; initial_timeout; timeout_strategy = strategy }

    let describe c =
      let node = last (nodes c) in
      Printf.sprintf ", leader %s quorum %s"
        (Pid.to_string (N.leader node))
        (pids (N.quorum node))

    let selector node = Some (of_fs (N.selector node))

    let detector = N.detector

    (* Rows travel as [Fsel (Update _)] sealed at the Fmsg layer, so the
       extractor transcodes. A row whose Fmsg tag verifies really was
       vouched for by its owner, so re-sealing it as a [Msg.t] attestation
       (same key directory, same signer) loses nothing and lets one
       evidence-store currency serve all five stacks; a row whose Fmsg tag
       fails is forwarded with a broken [Msg.t] tag so the store's forgery
       path fires. *)
    let rows ~auth (m : msg) =
      match m.M.body with
      | M.Fsel ({ Fmsg.payload = Fmsg.Update u; _ } as fm) ->
        if Fmsg.verify auth fm then Some (Msg.seal auth u)
        else Some { Msg.update = u; signature = "" }
      | _ -> None

    (* The same three commission hooks as {!Qsel}, speaking Fmsg. *)
    let hooks ~n ~auth =
      let wrap ~sender fm = M.seal auth ~sender (M.Fsel fm) in
      let equivocate ~src ~dst (m : msg) =
        match m.M.body with
        | M.Fsel { Fmsg.payload = Fmsg.Update u; _ } when u.Msg.owner = src ->
          let row = Array.copy u.Msg.row in
          row.(dst) <- row.(dst) + 1;
          Some (wrap ~sender:src (Fmsg.seal auth (Fmsg.Update { u with Msg.row = row })))
        | _ -> None
      in
      let slander ~src ~victim =
        let row = Array.init n (fun k -> if k = src then 999 else 0) in
      let u = { Msg.owner = victim; row } in
        let payload = Fmsg.Update u in
        let forged = Auth.forge auth ~claimed:victim (Fmsg.encode payload) in
        Some (wrap ~sender:src { Fmsg.payload; signature = forged.Auth.signature })
      in
      let tamper (m : msg) =
        match m.M.body with
        | M.Fsel ({ Fmsg.payload = Fmsg.Update u; _ } as fm) ->
          let row = Array.copy u.Msg.row in
          row.(0) <- row.(0) + 1;
          wrap ~sender:m.M.sender
            { fm with Fmsg.payload = Fmsg.Update { u with Msg.row = row } }
        | _ -> { m with M.signature = "" }
      in
      { equivocate; slander; tamper }

    let durability _ = None

    let churn_floor ~n:_ ~f:_ = None
  end)

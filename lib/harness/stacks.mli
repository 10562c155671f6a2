(** The five protocol stacks, bound once for every simulator harness.

    Each binding is a {!Qs_core.Smr_cluster} instance plus the few things
    that really differ between stacks: how to configure it, how to read
    its selection plane (quorum selection for XPaxos, PBFT, MinBFT and
    chain; follower selection for star), how its wire format carries
    suspicion rows, and whether it models deep durability. {!Chaos},
    E12 ({!E_recovery}) and [qsel_cli simulate] are each written once
    against {!S}. Every binding uses a 25 ms initial timeout with
    exponential backoff (factor 2, capped at 2 s). *)

type selector = {
  matrix : unit -> Qs_core.Suspicion_matrix.t;
  epoch : unit -> int;
  absorb : matrix:Qs_core.Suspicion_matrix.t -> epoch:int -> unit;
  amnesia : unit -> unit;
  reevaluate : unit -> unit;
  exclude : Qs_core.Pid.t -> unit;
  reconfigure : Qs_core.Quorum_select.config -> me:Qs_core.Pid.t -> cepoch:int -> unit;
      (** Width-preserving remap ([of_new] is the identity). *)
  set_policy : Qs_core.Selection_policy.t -> unit;
}
(** One process's selector, whichever algorithm it runs. *)

type 'm hooks = {
  equivocate : src:Qs_core.Pid.t -> dst:Qs_core.Pid.t -> 'm -> 'm option;
  slander : src:Qs_core.Pid.t -> victim:Qs_core.Pid.t -> 'm option;
  tamper : 'm -> 'm;
}
(** The protocol-speaking commission hooks of {!Qs_faults.Injector.install}:
    re-signed conflicting rows, rows forged in a victim's name, and rows
    altered under a stale tag. *)

type recovery = {
  collect : Qs_core.Pid.t -> Qs_recovery.Rejoin.payload;
  adopt :
    Qs_core.Pid.t ->
    matrix:Qs_core.Suspicion_matrix.t ->
    epoch:int ->
    extra:string ->
    unit;
  wipe : Qs_core.Pid.t -> Qs_recovery.Rejoin.payload option;
      (** Amnesia: drop volatile state, return the durable snapshot. *)
}
(** A stack's own rejoin callbacks, when it persists more than its
    selection state. *)

module type S = sig
  include Qs_core.Smr_cluster.S

  val label : string
  (** Short name for reports: ["xpaxos"], ["pbft"], … *)

  val n_for : f:int -> int
  (** The smallest cluster the stack tolerates [f] faults with. *)

  val config : n:int -> f:int -> config

  val describe : t -> string
  (** The final protocol state as a report suffix (group, active set,
      chain, or leader and quorum). *)

  val selector : node -> selector option
  (** [None] when the node runs without a selector (XPaxos enumeration). *)

  val detector : node -> msg Qs_fd.Detector.t

  val rows : auth:Qs_crypto.Auth.t -> msg -> Qs_core.Msg.t option
  (** The suspicion row a delivered frame carries, as a signed
      {!Qs_core.Msg.t} for the evidence stores. *)

  val hooks : n:int -> auth:Qs_crypto.Auth.t -> msg hooks

  val durability : t -> recovery option
  (** Attach the stack's deep durability and return its rejoin callbacks;
      [None] means only the selection state is recovered (the SMR log is
      durable by default). Only XPaxos models it. *)

  val churn_floor : n:int -> f:int -> int option
  (** Override of the membership size floor under churn. *)
end

(** {2 Happy-run measurements}

    On any {!Qs_core.Smr_cluster} with a fault-free configuration, run to
    quiescence. *)

val messages_per_request :
  (module Qs_core.Smr_cluster.S with type config = 'c) -> 'c -> int
(** Messages per request over five requests. [Invalid_argument] unless all
    five commit. *)

val one_commit_latency :
  (module Qs_core.Smr_cluster.S with type config = 'c) -> 'c -> Qs_sim.Stime.t
(** Commit latency of a single request. *)

(** {2 The five stacks} *)

val xpaxos : Qs_xpaxos.Replica.mode -> (module S)

val pbft : Qs_pbft.Preplica.participation -> (module S)

val minbft : Qs_minbft.Mreplica.participation -> (module S)

val chain : (module S)

val star : (module S)

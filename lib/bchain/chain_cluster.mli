(** A chain-replication cluster in the simulator: the generic
    {!Qs_core.Smr_cluster} over {!Chain_node}. A request is committed once
    every member of some node's current chain executed it; its commit
    latency counts [n − f] executions. *)

include
  Qs_core.Smr_cluster.S
    with type config = Chain_node.config
     and type node = Chain_node.t
     and type msg = Chain_msg.t
     and type fault = Chain_node.fault

val current_chain : t -> Qs_core.Pid.t list
(** The chain at the first correct-looking node (for reporting). *)

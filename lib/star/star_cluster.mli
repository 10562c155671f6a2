(** A star-topology cluster in the simulator: the generic
    {!Qs_core.Smr_cluster} over {!Star_node}. A request is committed once
    every member of some node's current quorum executed it; its commit
    latency counts [n − f] executions. *)

include
  Qs_core.Smr_cluster.S
    with type config = Star_node.config
     and type node = Star_node.t
     and type msg = Star_msg.t
     and type fault = Star_node.fault

val max_quorum_epoch : t -> int
(** Largest number of reconfigurations any node performed — the live O(f)
    metric of Theorem 9. *)

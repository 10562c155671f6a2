(** A PBFT cluster in the simulator: the generic {!Qs_core.Smr_cluster}
    over {!Preplica}. A request is committed once [2f+1] replicas executed
    it. *)

include
  Qs_core.Smr_cluster.S
    with type config = Preplica.config
     and type node = Preplica.t
     and type msg = Pmsg.t
     and type fault = Preplica.fault

val max_view : t -> int

(** A MinBFT cluster in the simulator: the generic {!Qs_core.Smr_cluster}
    over {!Mreplica}, with one USIG per replica. A request is committed once
    [f+1] replicas executed it (the n − f = f + 1 commit rule). *)

include
  Qs_core.Smr_cluster.S
    with type config = Mreplica.config
     and type node = Mreplica.t
     and type msg = Mmsg.t
     and type fault = Mreplica.fault

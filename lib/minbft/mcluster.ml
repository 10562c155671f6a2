include Qs_core.Smr_cluster.Make (struct
  type config = Mreplica.config

  type node = Mreplica.t

  type msg = Mmsg.t

  type fault = Mreplica.fault

  let n (c : config) = c.n

  (* The trusted counters are provisioned once per cluster, after the key
     directory. *)
  let create (config : config) ~sim ~auth =
    let usig_directory, usigs = Usig.setup ~n:config.n in
    fun ~me ~net_send ~on_execute ->
      Mreplica.create config ~me ~auth ~usig:usigs.(me) ~usig_directory ~sim ~net_send
        ~on_execute ()

  let receive = Mreplica.receive

  let submit = Mreplica.submit

  let executed = Mreplica.executed

  let set_fault = Mreplica.set_fault

  let mute = Mreplica.Mute

  let honest = Mreplica.Honest

  (* The n − f = f + 1 commit rule. *)
  let commit_quorum (c : config) = c.f + 1

  let committed c _ executed = List.length executed >= commit_quorum c
end)

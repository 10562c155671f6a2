include Qs_core.Smr_cluster.Make (struct
  type config = Preplica.config

  type node = Preplica.t

  type msg = Pmsg.t

  type fault = Preplica.fault

  let n (c : config) = c.n

  let create config ~sim ~auth ~me ~net_send ~on_execute =
    Preplica.create config ~me ~auth ~sim ~net_send
      ~on_execute:(fun ~slot:_ request -> on_execute request)
      ()

  let receive = Preplica.receive

  let submit = Preplica.submit

  let executed = Preplica.executed

  let set_fault = Preplica.set_fault

  let mute = Preplica.Mute

  let honest = Preplica.Honest

  let commit_quorum (c : config) = (2 * c.f) + 1

  let committed c _ executed = List.length executed >= commit_quorum c
end)

let max_view t = Array.fold_left (fun acc r -> max acc (Preplica.view r)) 0 (nodes t)

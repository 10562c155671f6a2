include Qs_core.Smr_cluster.Make (struct
  type config = Star_node.config

  type node = Star_node.t

  type msg = Star_msg.t

  type fault = Star_node.fault

  let n (c : config) = c.n

  let create config ~sim ~auth ~me ~net_send ~on_execute =
    Star_node.create config ~me ~auth ~sim ~net_send ~on_execute ()

  let receive = Star_node.receive

  let submit = Star_node.submit

  let executed = Star_node.executed

  let set_fault = Star_node.set_fault

  let mute = Star_node.Mute

  let honest = Star_node.Honest

  let commit_quorum (c : config) = c.n - c.f

  let committed _ nodes executed =
    Array.exists
      (fun node ->
        let quorum = Star_node.quorum node in
        quorum <> [] && List.for_all (fun p -> List.mem p executed) quorum)
      nodes
end)

let max_quorum_epoch t =
  Array.fold_left (fun acc node -> max acc (Star_node.quorum_epoch node)) 0 (nodes t)

include Qs_core.Smr_cluster.Make (struct
  type config = Chain_node.config

  type node = Chain_node.t

  type msg = Chain_msg.t

  type fault = Chain_node.fault

  let n (c : config) = c.n

  let create config ~sim ~auth ~me ~net_send ~on_execute =
    Chain_node.create config ~me ~auth ~sim ~net_send ~on_execute ()

  let receive = Chain_node.receive

  let submit = Chain_node.submit

  let executed = Chain_node.executed

  let set_fault = Chain_node.set_fault

  let mute = Chain_node.Mute

  let honest = Chain_node.Honest

  let commit_quorum (c : config) = c.n - c.f

  let committed _ nodes executed =
    Array.exists
      (fun node ->
        let chain = Chain_node.chain node in
        chain <> [] && List.for_all (fun p -> List.mem p executed) chain)
      nodes
end)

let current_chain t = Chain_node.chain (node t 0)

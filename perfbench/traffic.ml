(* Entry point of the traffic benchmark: runs one workload and prints one
   JSON object with the correctness verdict, request counts and every
   metric the workload measured. run.py selects the end-to-end or the
   per-layer set from BENCHMARK.json and checks it is complete. *)

let usage = "traffic --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sim-failover|tcp-open");
      ("--seed", Arg.Int (fun s -> seed := Some s), "input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = per-layer (traced) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed, seconds =
    match (!seed, !seconds) with
    | Some seed, Some seconds -> (seed, seconds)
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 in
  let attempted, failed =
    match !workload with
    | "sim-failover" -> Simload.run Simload.failover ~seed ~seconds ~trace
    | "tcp-open" -> Tcpload.run ~seed ~seconds ~trace
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let correct = !Common.failures = [] in
  List.iter (fun f -> prerr_endline ("CHECK FAILED: " ^ f)) (List.rev !Common.failures);
  let metric (m : Common.metric) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Common.name m.Common.value
      m.Common.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.rev_map metric !Common.metrics));
  if not correct then exit 1

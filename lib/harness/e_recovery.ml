module Table = Qs_stdx.Table
module Stime = Qs_sim.Stime

let ms = Stime.of_ms

type row = {
  protocol : string;
  happy_latency : Stime.t;
  recovery_latency : Stime.t option;
}

(* Every scenario follows the same script: warm up with one request, mute an
   active non-leader member at 200ms, submit the probe at 300ms, report the
   probe's commit latency. Timeouts are 25ms with exponential backoff (the
   {!Stacks} default), links are 1ms. *)
let timeout = ms 25

let probe_at = ms 300

(* The script on one stack; returns (happy latency, recovery latency
   option). [victim] is an active non-leader member in the stack's initial
   configuration. *)
let recovery (module B : Stacks.S) ~victim =
  let c = B.create (B.config ~n:(B.n_for ~f:2) ~f:2) in
  let warm = B.submit c "warm" in
  B.run ~until:(ms 200) c;
  let happy = Option.get (B.commit_latency c warm) in
  B.set_mute c victim true;
  B.run ~until:probe_at c;
  let probe = B.submit c ~resubmit_every:(ms 100) "probe" in
  B.run ~until:(ms 20_000) c;
  (happy, B.commit_latency c probe)

(* Strategy ablation: the same mute-and-probe script on the XPaxos + QS
   stack, but with configurable link delay and timeout strategy. When links
   are slower than a timeout that never adapts, every expectation deadline
   fires a false suspicion, membership churns indefinitely and the probe
   cannot commit; any adapting strategy grows past the real delay after
   finitely many false suspicions and then recovers normally. *)
let xpaxos_recovery ?(delay = Qs_sim.Network.Fixed (ms 1)) ?(initial = timeout)
    ?(horizon = ms 20_000) strategy =
  let config =
    {
      Qs_xpaxos.Replica.n = 5;
      f = 2;
      mode = Qs_xpaxos.Replica.Quorum_selection;
      initial_timeout = initial;
      timeout_strategy = strategy;
    }
  in
  let c = Qs_xpaxos.Xcluster.create ~delay config in
  ignore (Qs_xpaxos.Xcluster.submit c "warm");
  Qs_xpaxos.Xcluster.run ~until:(ms 400) c;
  Qs_xpaxos.Xcluster.set_fault c 1 Qs_xpaxos.Replica.Mute;
  Qs_xpaxos.Xcluster.run ~until:(ms 500) c;
  let probe = Qs_xpaxos.Xcluster.submit c ~resubmit_every:(ms 100) "probe" in
  Qs_xpaxos.Xcluster.run ~until:horizon c;
  Qs_xpaxos.Xcluster.commit_latency c probe

let run () =
  let rows =
    [
      ( "XPaxos + quorum selection",
        recovery (Stacks.xpaxos Qs_xpaxos.Replica.Quorum_selection) ~victim:1 );
      ("PBFT selected", recovery (Stacks.pbft Qs_pbft.Preplica.Selected) ~victim:1);
      ( "MinBFT selected (trusted comp.)",
        recovery (Stacks.minbft Qs_minbft.Mreplica.Selected) ~victim:1 );
      ("Chain (BChain-style)", recovery Stacks.chain ~victim:2);
      ("Star + follower selection", recovery Stacks.star ~victim:2);
    ]
  in
  let t =
    Table.create
      ~title:"E12 (extension): the price of reacting - recovery latency per integration"
      ~columns:
        [
          ("protocol", Table.Left);
          ("happy-path commit", Table.Right);
          ("commit after member crash", Table.Right);
          ("reaction premium", Table.Right);
        ]
  in
  let verdicts = ref [] in
  List.iter
    (fun (name, (happy, recovery)) ->
      (match recovery with
       | Some r ->
         Table.add_row t
           [
             name;
             Format.asprintf "%a" Stime.pp happy;
             Format.asprintf "%a" Stime.pp r;
             Format.asprintf "%a" Stime.pp (Stime.( - ) r happy);
           ]
       | None ->
         Table.add_row t [ name; Format.asprintf "%a" Stime.pp happy; "NO RECOVERY"; "-" ]);
      verdicts :=
        Verdict.make (name ^ ": recovered") (recovery <> None)
        :: Verdict.make
             (name ^ ": recovery within ~20 timeouts")
             (match recovery with Some r -> r <= 20 * timeout | None -> false)
        :: !verdicts)
    rows;
  (t, List.rev !verdicts)

(* MinBFT substrate tests: the simulated trusted component (USIG) and the
   two-phase n=2f+1 protocol in both participation modes. *)

open Qs_minbft
module Stime = Qs_sim.Stime
module Timeout = Qs_fd.Timeout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

let ms = Stime.of_ms

let config ?(participation = Mreplica.Full) ?(f = 2) ?(timeout = ms 30) () =
  {
    Mreplica.n = (2 * f) + 1;
    f;
    participation;
    initial_timeout = timeout;
    timeout_strategy = Timeout.Exponential { factor = 2.0; max = ms 2000 };
  }

(* ------------------------------------------------------------------ *)
(* USIG *)

let test_usig_certify_verify () =
  let dir, usigs = Usig.setup ~n:3 in
  let ui = Usig.certify usigs.(1) ~digest:"d1" in
  check_int "origin" 1 ui.Usig.origin;
  check_int "first counter is 1" 1 ui.Usig.counter;
  check_bool "verifies" true (Usig.verify dir ~digest:"d1" ui);
  check_bool "wrong digest rejected" false (Usig.verify dir ~digest:"d2" ui)

let test_usig_counters_sequential () =
  let _, usigs = Usig.setup ~n:2 in
  let u1 = Usig.certify usigs.(0) ~digest:"a" in
  let u2 = Usig.certify usigs.(0) ~digest:"b" in
  check_int "strictly increasing" (u1.Usig.counter + 1) u2.Usig.counter;
  check_int "counter state" 2 (Usig.counter usigs.(0))

let test_usig_uniqueness_no_equivocation () =
  (* The API makes equivocation impossible: two certifications never share a
     counter, even for the same digest. *)
  let _, usigs = Usig.setup ~n:1 in
  let u1 = Usig.certify usigs.(0) ~digest:"same" in
  let u2 = Usig.certify usigs.(0) ~digest:"same" in
  check_bool "distinct counters" true (u1.Usig.counter <> u2.Usig.counter)

let test_usig_monitor_ordering () =
  let dir, usigs = Usig.setup ~n:2 in
  let m = Usig.monitor dir ~n:2 in
  let u1 = Usig.certify usigs.(0) ~digest:"a" in
  let u2 = Usig.certify usigs.(0) ~digest:"b" in
  let u3 = Usig.certify usigs.(0) ~digest:"c" in
  check_bool "in order ok" true (Usig.accept m ~digest:"a" u1 = `Ok);
  check_bool "skip is a gap" true (Usig.accept m ~digest:"c" u3 = `Gap);
  check_bool "expected unchanged by gap" true (Usig.expected_next m 0 = 2);
  check_bool "continue in order" true (Usig.accept m ~digest:"b" u2 = `Ok);
  check_bool "replay rejected" true (Usig.accept m ~digest:"b" u2 = `Replay);
  check_bool "now the skipped one fits" true (Usig.accept m ~digest:"c" u3 = `Ok)

let test_usig_monitor_bad_signature () =
  let dir, usigs = Usig.setup ~n:2 in
  let m = Usig.monitor dir ~n:2 in
  let u1 = Usig.certify usigs.(0) ~digest:"a" in
  check_bool "digest mismatch = bad signature" true
    (Usig.accept m ~digest:"tampered" u1 = `Bad_signature)

let test_usig_resync () =
  let dir, usigs = Usig.setup ~n:1 in
  let m = Usig.monitor dir ~n:1 in
  let _ = Usig.certify usigs.(0) ~digest:"lost1" in
  let _ = Usig.certify usigs.(0) ~digest:"lost2" in
  let u3 = Usig.certify usigs.(0) ~digest:"seen" in
  check_bool "gap before resync" true (Usig.accept m ~digest:"seen" u3 = `Gap);
  Usig.resync m 0 u3.Usig.counter;
  check_bool "accepted after resync" true (Usig.accept m ~digest:"seen" u3 = `Ok)

let test_usig_keys_independent_of_message_keys () =
  (* A replica's message key cannot forge USIG certificates. *)
  let dir, _ = Usig.setup ~n:2 in
  let message_auth = Qs_crypto.Auth.create 2 in
  let forged =
    {
      Usig.origin = 0;
      counter = 1;
      usig_sig = Qs_crypto.Auth.sign message_auth ~signer:0 "USIG|0|1|whatever";
    }
  in
  check_bool "forgery rejected" false (Usig.verify dir ~digest:"whatever" forged)

(* ------------------------------------------------------------------ *)
(* Protocol: Full participation (masking with 2f+1) *)

let test_full_happy_path () =
  let c = Mcluster.create (config ~f:1 ()) in
  let r = Mcluster.submit c "op" in
  Mcluster.run c;
  check_bool "committed" true (Mcluster.is_committed c r);
  check_ilist "everyone executed" [ 0; 1; 2 ] (Mcluster.executed_by c r)

let test_full_message_count () =
  (* Two phases: (n-1) prepares out + n... the primary sends n-1 PREPAREs;
     each backup sends n-1 COMMITs. *)
  let c = Mcluster.create (config ~f:1 ()) in
  let _ = Mcluster.submit c "op" in
  Mcluster.run c;
  let n = 3 in
  check_int "2-phase count" ((n - 1) + ((n - 1) * (n - 1))) (Mcluster.message_count c)

let test_full_masks_f_backups () =
  (* n = 2f+1 = 5, f = 2: commit needs f+1 = 3 contributors; two mute
     backups are masked. *)
  let c = Mcluster.create (config ~f:2 ()) in
  Mcluster.set_fault c 3 Mreplica.Mute;
  Mcluster.set_fault c 4 Mreplica.Mute;
  let r = Mcluster.submit c "masked" in
  Mcluster.run c;
  check_bool "committed with 3 of 5" true (Mcluster.is_committed c r);
  (* The mute replicas still RECEIVE and execute (Mute blocks sending only);
     what matters is that the three live ones committed without them. *)
  List.iter
    (fun p -> check_bool (Printf.sprintf "p%d executed" (p + 1)) true
        (List.mem p (Mcluster.executed_by c r)))
    [ 0; 1; 2 ]

let test_full_ordering_consistent () =
  let c = Mcluster.create (config ~f:2 ()) in
  let _ = Mcluster.submit c "a" in
  let _ = Mcluster.submit c "b" in
  Mcluster.run c;
  let log p = List.map (fun r -> r.Mmsg.op) (Mreplica.executed (Mcluster.node c p)) in
  List.iter (fun p -> Alcotest.(check (list string)) "same log" (log 0) (log p)) [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Protocol: Selected participation (the paper's active quorum of f+1) *)

let test_selected_happy_path () =
  let c = Mcluster.create (config ~participation:Mreplica.Selected ~f:2 ()) in
  let r = Mcluster.submit c "op" in
  Mcluster.run c;
  check_bool "committed" true (Mcluster.is_committed c r);
  (* Active quorum = n - f = f + 1 = 3 replicas. *)
  check_ilist "active quorum executed" [ 0; 1; 2 ] (Mcluster.executed_by c r)

let test_selected_message_count () =
  (* Active quorum q = f+1 = 3: (q-1) prepares + (q-1)^2... backups send
     commits to the other active members. *)
  let c = Mcluster.create (config ~participation:Mreplica.Selected ~f:2 ()) in
  let _ = Mcluster.submit c "op" in
  Mcluster.run c;
  let q = 3 in
  check_int "selected count" ((q - 1) + ((q - 1) * (q - 1))) (Mcluster.message_count c)

let test_selected_cheaper_than_full () =
  let count participation =
    let c = Mcluster.create (config ~participation ~f:2 ()) in
    let _ = Mcluster.submit c "op" in
    Mcluster.run c;
    Mcluster.message_count c
  in
  check_bool "selected cheaper" true
    (count Mreplica.Selected < count Mreplica.Full)

let test_selected_reacts_to_mute_backup () =
  let c = Mcluster.create (config ~participation:Mreplica.Selected ~f:2 ~timeout:(ms 20) ()) in
  Mcluster.set_fault c 1 Mreplica.Mute;
  let r = Mcluster.submit c ~resubmit_every:(ms 100) "react" in
  Mcluster.run ~until:(ms 6000) c;
  check_bool "committed on a new active set" true (Mcluster.is_committed c r);
  check_bool "mute backup excluded" false
    (List.mem 1 (Mreplica.active (Mcluster.node c 0)));
  check_bool "configuration epoch advanced" true
    (Mreplica.config_epoch (Mcluster.node c 0) >= 1)

let test_selected_mute_primary_replaced () =
  let c = Mcluster.create (config ~participation:Mreplica.Selected ~f:2 ~timeout:(ms 20) ()) in
  Mcluster.set_fault c 0 Mreplica.Mute;
  let r = Mcluster.submit c ~resubmit_every:(ms 100) "primary" in
  Mcluster.run ~until:(ms 6000) c;
  check_bool "committed" true (Mcluster.is_committed c r);
  check_bool "primary changed" true (Mreplica.primary (Mcluster.node c 1) <> 0)

let test_gap_detection_on_omitted_prepare () =
  (* The primary omits one PREPARE to one backup; the next PREPARE arrives
     with a skipped counter and is refused as a gap (omission evidence from
     the trusted component). *)
  let c = Mcluster.create (config ~participation:Mreplica.Selected ~f:2 ~timeout:(ms 500) ()) in
  Mcluster.set_fault c 0 (Mreplica.Omit_to [ 1 ]);
  let _ = Mcluster.submit c "first" in
  Mcluster.run ~until:(ms 5) c;
  Mcluster.set_fault c 0 Mreplica.Honest;
  let _ = Mcluster.submit c "second" in
  Mcluster.run ~until:(ms 10) c;
  check_bool "backup registered a counter gap" true
    (Mreplica.usig_gaps (Mcluster.node c 1) > 0)

let test_config_validation () =
  Alcotest.check_raises "n must be 2f+1" (Invalid_argument "Mreplica.create: need n = 2f+1")
    (fun () ->
      let dir, usigs = Usig.setup ~n:4 in
      ignore
        (Mreplica.create
           {
             Mreplica.n = 4;
             f = 1;
             participation = Mreplica.Full;
             initial_timeout = ms 10;
             timeout_strategy = Timeout.Fixed;
           }
           ~me:0 ~auth:(Qs_crypto.Auth.create 4) ~usig:usigs.(0) ~usig_directory:dir
           ~sim:(Qs_sim.Sim.create ())
           ~net_send:(fun ~dst:_ _ -> ())
           ()))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_usig_monitor_accepts_exactly_in_order =
  QCheck.Test.make ~name:"usig monitor accepts a stream exactly in order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) small_string)
    (fun digests ->
      let dir, usigs = Usig.setup ~n:1 in
      let m = Usig.monitor dir ~n:1 in
      let uis = List.map (fun d -> (d, Usig.certify usigs.(0) ~digest:d)) digests in
      List.for_all (fun (d, ui) -> Usig.accept m ~digest:d ui = `Ok) uis)

let prop_selected_recovers_any_single_mute =
  QCheck.Test.make ~name:"selected minbft recovers from any single mute replica" ~count:15
    QCheck.(pair (int_range 1 300) (int_bound 4))
    (fun (seed, faulty) ->
      let c =
        Mcluster.create ~seed:(Int64.of_int seed)
          (config ~participation:Mreplica.Selected ~f:2 ~timeout:(ms 20) ())
      in
      Mcluster.set_fault c faulty Mreplica.Mute;
      let r = Mcluster.submit c ~resubmit_every:(ms 100) "survive" in
      Mcluster.run ~until:(ms 8000) c;
      Mcluster.is_committed c r)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_usig_monitor_accepts_exactly_in_order; prop_selected_recovers_any_single_mute ]

let () =
  Alcotest.run "minbft"
    [
      ( "usig",
        [
          Alcotest.test_case "certify/verify" `Quick test_usig_certify_verify;
          Alcotest.test_case "sequential counters" `Quick test_usig_counters_sequential;
          Alcotest.test_case "uniqueness (no equivocation)" `Quick
            test_usig_uniqueness_no_equivocation;
          Alcotest.test_case "monitor ordering" `Quick test_usig_monitor_ordering;
          Alcotest.test_case "monitor bad signature" `Quick test_usig_monitor_bad_signature;
          Alcotest.test_case "resync" `Quick test_usig_resync;
          Alcotest.test_case "trusted keys separate" `Quick
            test_usig_keys_independent_of_message_keys;
        ] );
      ( "full",
        [
          Alcotest.test_case "happy path" `Quick test_full_happy_path;
          Alcotest.test_case "message count" `Quick test_full_message_count;
          Alcotest.test_case "masks f backups" `Quick test_full_masks_f_backups;
          Alcotest.test_case "ordering consistent" `Quick test_full_ordering_consistent;
        ] );
      ( "selected",
        [
          Alcotest.test_case "happy path" `Quick test_selected_happy_path;
          Alcotest.test_case "message count" `Quick test_selected_message_count;
          Alcotest.test_case "cheaper than full" `Quick test_selected_cheaper_than_full;
          Alcotest.test_case "reacts to mute backup" `Quick test_selected_reacts_to_mute_backup;
          Alcotest.test_case "mute primary replaced" `Quick test_selected_mute_primary_replaced;
          Alcotest.test_case "gap detection" `Quick test_gap_detection_on_omitted_prepare;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ("properties", qsuite);
    ]

(* Checkpointing tests: the wire codec's strictness, operator snapshot
   round-trips (blob → identically constructed twin → identical
   continuation), punctuation-aligned cuts bounding crash replay, kill
   storms recovering to the fault-free answer, the durable file format's
   rejection paths, resume equivalence, and the Spsc poison edges the
   supervisor leans on. *)

module Element = Streams.Element
module Punctuation = Streams.Punctuation
module Wire = Streams.Wire
module Fault_injector = Streams.Fault_injector
module Plan = Query.Plan
module Executor = Engine.Executor
module Parallel_executor = Engine.Parallel_executor
module Checkpoint = Engine.Checkpoint
module Operator = Engine.Operator
module Dedup = Engine.Dedup
module Groupby = Engine.Groupby
module Spsc = Engine.Spsc
module Metrics = Engine.Metrics
module Synth = Workload.Synth
open Fixtures

let plan3 = Plan.mjoin [ "S1"; "S2"; "S3" ]

let round_trace ?(rounds = 60) ?(punct_lag = 5) q =
  Synth.round_trace q { Synth.default_trace_config with rounds; punct_lag }

let render els = List.map (fun e -> Fmt.str "%a" Element.pp e) els

let vi i = Relational.Value.Int i
let data schema values = Element.Data (tuple schema values)

let punct schema bindings =
  Element.Punct
    (Punctuation.of_bindings schema
       (List.map (fun (a, v) -> (a, vi v)) bindings))

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_wire_roundtrip () =
  let b = Buffer.create 64 in
  Wire.W.u8 b 250;
  Wire.W.int b (-12345);
  Wire.W.int b max_int;
  Wire.W.float b 1.5;
  Wire.W.bool b true;
  Wire.W.string b "h\xc3\xa9\nllo";
  Wire.W.list Wire.W.int b [ 1; 2; 3 ];
  Wire.W.option Wire.W.string b None;
  Wire.W.option Wire.W.string b (Some "x");
  Wire.W.pair Wire.W.int Wire.W.bool b (7, false);
  let r = Wire.R.of_string (Buffer.contents b) in
  check_int "u8" 250 (Wire.R.u8 r);
  check_int "negative int" (-12345) (Wire.R.int r);
  check_int "max_int" max_int (Wire.R.int r);
  Alcotest.(check (float 0.)) "float" 1.5 (Wire.R.float r);
  check_bool "bool" true (Wire.R.bool r);
  check_string "string" "h\xc3\xa9\nllo" (Wire.R.string r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.R.list Wire.R.int r);
  check_bool "none" true (Wire.R.option Wire.R.string r = None);
  check_bool "some" true (Wire.R.option Wire.R.string r = Some "x");
  check_bool "pair" true (Wire.R.pair Wire.R.int Wire.R.bool r = (7, false));
  Wire.R.expect_end r

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Wire.Corrupt")
  | exception Wire.Corrupt _ -> ()

let test_wire_truncation_is_corrupt () =
  let b = Buffer.create 16 in
  Wire.W.string b "hello";
  let s = Buffer.contents b in
  expect_corrupt "truncated payload" (fun () ->
      Wire.R.string (Wire.R.of_string (String.sub s 0 (String.length s - 2))));
  expect_corrupt "truncated length" (fun () ->
      Wire.R.string (Wire.R.of_string (String.sub s 0 3)));
  let r = Wire.R.of_string (s ^ "!") in
  ignore (Wire.R.string r);
  expect_corrupt "trailing garbage" (fun () -> Wire.R.expect_end r);
  (* a join-state snapshot whose index is not on one in-range attribute *)
  List.iter
    (fun attrs ->
      let b = Buffer.create 16 in
      Wire.W.u8 b 1;
      Wire.W.int b 0;
      Wire.W.list Wire.W.int b [];
      Wire.W.list (Wire.W.list Wire.W.int) b [ attrs ];
      expect_corrupt
        (Fmt.str "join-state index on [%s]"
           (String.concat "; " (List.map string_of_int attrs)))
        (fun () ->
          Engine.Join_state.read_snapshot
            (Engine.Join_state.create s1)
            (Wire.R.of_string (Buffer.contents b))))
    [ [ 2 ]; [ -1 ]; [ 0; 1 ]; [] ]

(* ------------------------------------------------------------------ *)
(* Operator snapshot round-trips *)

let blob_of (op : Operator.t) =
  match op.Operator.persistence with
  | Operator.Snapshot { save; _ } -> save ()
  | _ -> Alcotest.fail (op.Operator.name ^ " is not snapshottable")

let load_into (op : Operator.t) blob =
  match op.Operator.persistence with
  | Operator.Snapshot { load; _ } -> load blob
  | _ -> Alcotest.fail (op.Operator.name ^ " is not snapshottable")

let stats_strings (op : Operator.t) =
  List.map
    (fun (k, v) -> Fmt.str "%s=%d" k v)
    (Operator.stats_to_alist (op.Operator.stats ()))

(* Feed a list element by element, as runs of one. *)
let push_each (op : Operator.t) =
  List.concat_map (fun e -> op.Operator.push [| e |])

(* The defining property of a snapshot: load the blob into a freshly
   constructed twin, feed both the same continuation, and outputs, stats
   and state must be indistinguishable. *)
let check_twin_continuation name (op : Operator.t) (twin : Operator.t) suffix =
  load_into twin (blob_of op);
  let o1 = push_each op suffix @ op.Operator.flush () in
  let o2 = push_each twin suffix @ twin.Operator.flush () in
  Alcotest.(check (list string))
    (name ^ ": continuation outputs agree")
    (render o1) (render o2);
  Alcotest.(check (list string))
    (name ^ ": stats agree")
    (stats_strings op) (stats_strings twin);
  check_int
    (name ^ ": data state agrees")
    (op.Operator.state ()).data
    (twin.Operator.state ()).data;
  check_int
    (name ^ ": punct state agrees")
    (op.Operator.state ()).puncts
    (twin.Operator.state ()).puncts;
  check_int
    (name ^ ": index state agrees")
    (op.Operator.state ()).index
    (twin.Operator.state ()).index

let test_mjoin_snapshot_continuation () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:40 q in
  let n = List.length trace in
  let prefix = List.filteri (fun i _ -> i < n / 2) trace in
  let suffix = List.filteri (fun i _ -> i >= n / 2) trace in
  let root c = List.hd (Executor.operators ~c) in
  let op = root (Executor.compile q plan3) in
  let twin = root (Executor.compile q plan3) in
  let mid_outputs = push_each op prefix in
  check_bool "prefix produced results" true
    (List.exists Element.is_data mid_outputs);
  check_bool "snapshot taken with live state" true
    ((op.Operator.state ()).data > 0);
  check_twin_continuation "mjoin" op twin suffix

let test_dedup_snapshot_continuation () =
  let mk () = Dedup.create ~input:s1 ~key:[ "B" ] () in
  let op = mk () in
  let prefix =
    [ data s1 [ 1; 7 ]; data s1 [ 2; 7 ]; data s1 [ 1; 8 ]; punct s1 [ ("B", 7) ] ]
  in
  let suffix =
    (* 7 was purged by the punctuation (re-admittable), 8 is still seen *)
    [ data s1 [ 3; 8 ]; data s1 [ 4; 9 ]; data s1 [ 5; 9 ] ]
  in
  ignore (push_each op prefix);
  check_twin_continuation "dedup" op (mk ()) suffix

let test_groupby_snapshot_continuation () =
  let mk () =
    Groupby.create ~input:s1 ~group_by:[ "A" ] ~aggregate:(Groupby.Sum "B") ()
  in
  let op = mk () in
  let prefix = [ data s1 [ 1; 10 ]; data s1 [ 2; 5 ]; data s1 [ 1; 3 ] ] in
  let suffix =
    (* closing A=1 must emit the accumulated 13 + 4 = 17 from both *)
    [ data s1 [ 1; 4 ]; punct s1 [ ("A", 1) ]; punct s1 [ ("A", 2) ] ]
  in
  ignore (push_each op prefix);
  check_twin_continuation "groupby" op (mk ()) suffix

let test_corrupt_blob_rejected () =
  let op = Dedup.create ~input:s1 ~key:[ "B" ] () in
  ignore (op.Operator.push [| data s1 [ 1; 7 ] |]);
  let blob = blob_of op in
  let twin () = Dedup.create ~input:s1 ~key:[ "B" ] () in
  expect_corrupt "wrong version byte" (fun () ->
      let bad = Bytes.of_string blob in
      Bytes.set bad 0 '\002';
      load_into (twin ()) (Bytes.to_string bad));
  expect_corrupt "truncated blob" (fun () ->
      load_into (twin ()) (String.sub blob 0 (String.length blob - 1)));
  expect_corrupt "trailing garbage" (fun () -> load_into (twin ()) (blob ^ "x"))

(* ------------------------------------------------------------------ *)
(* Punctuation-aligned cuts in the sharded executor *)

let seq_baseline q trace =
  let c = Executor.compile q plan3 in
  let r = Executor.run ~sample_every:50 c (List.to_seq trace) in
  (Executor.output_hash r.Executor.outputs, Executor.total_data_state c)

let test_checkpoint_is_transparent () =
  (* Arming checkpoints must not change outputs, state or the sampled
     series of a fault-free run. *)
  let q = fig5_query () in
  let trace = round_trace ~rounds:80 q in
  let hash, _ = seq_baseline q trace in
  let pe =
    Parallel_executor.create ~shards:3
      ~checkpoint:(Checkpoint.config ~every:2 ())
      q plan3
  in
  let pr = Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) in
  check_string "outputs unchanged" hash
    (Executor.output_hash pr.Parallel_executor.outputs);
  let plain = Parallel_executor.create ~shards:3 q plan3 in
  let plain_r = Parallel_executor.run ~sample_every:50 plain (List.to_seq trace) in
  check_bool "series unchanged" true
    (Metrics.equal plain_r.Parallel_executor.metrics
       pr.Parallel_executor.metrics);
  (* History is truncated at every cut, so what remains is only the
     post-last-cut tail — bounded by one checkpoint interval. *)
  check_bool "retained history bounded by one interval" true
    (Parallel_executor.history_elems pe <= 100)

(* The replay-log watchdog must not count a broadcast element once per
   shard: watermark punctuations broadcast, so the shards' logs summed
   exceed one checkpoint interval while every single log stays under it.
   Safe query, cuts every 4 grid points: no replay_history alarm. *)
let test_broadcast_does_not_trip_replay_watch () =
  let q =
    Query.Parser.parse
      "stream S1(A:int, B:int)\n\
       stream S2(B:int, C:int)\n\
       stream S3(C:int, A:int)\n\
       scheme S1(_, ^)\n\
       scheme S2(_, ^)\n\
       scheme S3(_, ^)\n\
       join S1.B = S2.B\n\
       join S2.C = S3.C\n\
       join S3.A = S1.A\n"
  in
  let trace =
    Synth.round_trace q
      {
        Synth.rounds = 200;
        tuples_per_round = 5;
        punct_lag = 10;
        trace_seed = 42;
      }
  in
  let pe =
    Parallel_executor.create ~shards:2 ~watchdog:(Obs.Watchdog.create ())
      ~checkpoint:(Checkpoint.config ~every:4 ())
      q
      (Plan.mjoin [ "S1"; "S2"; "S3" ])
  in
  ignore (Parallel_executor.run ~sample_every:200 pe (List.to_seq trace));
  check_bool "no replay_history alarm" false
    (List.exists
       (fun (a : Obs.Watchdog.alarm) -> a.op = "replay_history")
       (Parallel_executor.alarms pe))

let test_kill_storm_bounded_replay () =
  (* Three kills — two of them on the same shard — with checkpoints every
     2 grid points (sample 50): every restart must restore from a cut and
     replay at most one checkpoint interval of input. *)
  let q = fig5_query () in
  let trace = round_trace ~rounds:200 q in
  let hash, seq_state = seq_baseline q trace in
  let kills =
    [
      { Fault_injector.shard = 1; at_seq = 400 };
      { Fault_injector.shard = 1; at_seq = 800 };
      { Fault_injector.shard = 2; at_seq = 600 };
    ]
  in
  let pe =
    Parallel_executor.create ~shards:3 ~max_restarts:3 ~kills
      ~checkpoint:(Checkpoint.config ~every:2 ())
      q plan3
  in
  let pr = Parallel_executor.run ~sample_every:50 pe (List.to_seq trace) in
  check_int "three crashes" 3 (Parallel_executor.crash_count pe);
  let log = Parallel_executor.restarts_log pe in
  check_int "three logged restarts" 3 (List.length log);
  List.iter
    (fun (r : Parallel_executor.restart) ->
      check_bool
        (Fmt.str "restart of shard %d restored from a checkpoint" r.shard)
        true r.restored;
      check_bool
        (Fmt.str "shard %d replayed %d <= one interval (100)" r.shard
           r.replayed)
        true
        (r.replayed <= 100))
    log;
  check_string "storm recovers the fault-free output" hash
    (Executor.output_hash pr.Parallel_executor.outputs);
  check_int "final state agrees with sequential" seq_state
    (Parallel_executor.total_data_state pe)

let test_kill_schedule_is_deterministic () =
  let mk () =
    Fault_injector.kill_schedule ~seed:9 ~shards:4 ~kills:6 ~span:1000
  in
  let a = mk () and b = mk () in
  check_bool "same seed, same storm" true (a = b);
  check_int "six kills" 6 (List.length a);
  check_bool "all within bounds" true
    (List.for_all
       (fun (k : Fault_injector.kill) ->
         k.shard >= 0 && k.shard < 4 && k.at_seq >= 1 && k.at_seq <= 1000)
       a);
  check_bool "sorted by sequence" true
    (List.sort
       (fun (x : Fault_injector.kill) (y : Fault_injector.kill) ->
         compare (x.at_seq, x.shard) (y.at_seq, y.shard))
       a
    = a);
  let c = Fault_injector.kill_schedule ~seed:10 ~shards:4 ~kills:6 ~span:1000 in
  check_bool "different seed, different storm" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Durable checkpoints: save / load / reject / resume *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pstream_ckpt_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try
       Array.iter
         (fun f -> Sys.remove (Filename.concat d f))
         (Sys.readdir d)
     with Sys_error _ -> ());
    d

let test_durable_resume_reproduces_the_run () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:120 q in
  let hash, _ = seq_baseline q trace in
  let dir = fresh_dir () in
  let fingerprint = Checkpoint.fingerprint [ ("test", "durable_resume") ] in
  (* First incarnation: checkpoints durably, then a shard exhausts its
     restart budget mid-run — the crash that loses in-memory state. *)
  let pe1 =
    Parallel_executor.create ~shards:3 ~max_restarts:0
      ~kills:[ { Fault_injector.shard = 0; at_seq = 500 } ]
      ~checkpoint:(Checkpoint.config ~dir ~fingerprint ~every:2 ())
      q plan3
  in
  (match Parallel_executor.run ~sample_every:50 pe1 (List.to_seq trace) with
  | _ -> Alcotest.fail "expected Shard_failed"
  | exception Parallel_executor.Shard_failed _ -> ());
  let schema = Executor.output_schema (Executor.compile q plan3) in
  let c = Checkpoint.load_latest ~dir ~fingerprint ~schema in
  check_bool "the crash left a non-trivial durable cut" true (c.consumed > 0);
  (* Second incarnation: resume and finish; the output multiset must be
     exactly the uninterrupted run's. *)
  let pe2 = Parallel_executor.create ~shards:3 ~resume:c q plan3 in
  let pr = Parallel_executor.run ~sample_every:50 pe2 (List.to_seq trace) in
  check_string "resumed run reproduces the fault-free hash" hash
    (Executor.output_hash pr.Parallel_executor.outputs)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Checkpoint.Invalid")
  | exception Checkpoint.Invalid _ -> ()

let test_load_rejects_bad_files () =
  let q = fig5_query () in
  let trace = round_trace ~rounds:60 q in
  let dir = fresh_dir () in
  let fingerprint = Checkpoint.fingerprint [ ("test", "reject") ] in
  let pe =
    Parallel_executor.create ~shards:2
      ~checkpoint:(Checkpoint.config ~dir ~fingerprint ~every:2 ())
      q plan3
  in
  ignore (Parallel_executor.run ~sample_every:50 pe (List.to_seq trace));
  let schema = Executor.output_schema (Executor.compile q plan3) in
  let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  check_bool "at most two checkpoint files retained" true
    (List.length files <= 2 && files <> []);
  let newest = Filename.concat dir (List.nth files (List.length files - 1)) in
  let pristine =
    let ic = open_in_bin newest in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rewrite bytes =
    let oc = open_out_bin newest in
    output_string oc bytes;
    close_out oc
  in
  (* wrong fingerprint *)
  expect_invalid "fingerprint mismatch" (fun () ->
      Checkpoint.load_latest ~dir
        ~fingerprint:(Checkpoint.fingerprint [ ("test", "other") ])
        ~schema);
  (* flipped payload byte → CRC mismatch *)
  let bad = Bytes.of_string pristine in
  let mid = Bytes.length bad / 2 in
  Bytes.set bad mid (Char.chr (Char.code (Bytes.get bad mid) lxor 0xff));
  rewrite (Bytes.to_string bad);
  expect_invalid "CRC mismatch" (fun () ->
      Checkpoint.load_latest ~dir ~fingerprint ~schema);
  (* wrong version byte *)
  let bad = Bytes.of_string pristine in
  Bytes.set bad 8 '\255';
  rewrite (Bytes.to_string bad);
  expect_invalid "version mismatch" (fun () ->
      Checkpoint.load_latest ~dir ~fingerprint ~schema);
  (* truncation *)
  rewrite (String.sub pristine 0 (String.length pristine / 2));
  expect_invalid "truncated file" (fun () ->
      Checkpoint.load_latest ~dir ~fingerprint ~schema);
  (* bad magic *)
  rewrite ("XXXXXXXX" ^ String.sub pristine 8 (String.length pristine - 8));
  expect_invalid "bad magic" (fun () ->
      Checkpoint.load_latest ~dir ~fingerprint ~schema);
  rewrite pristine;
  let c = Checkpoint.load_latest ~dir ~fingerprint ~schema in
  check_bool "pristine file loads again" true (Array.length c.shards = 2);
  expect_invalid "missing dir" (fun () ->
      Checkpoint.load_latest ~dir:(dir ^ "_nope") ~fingerprint ~schema)

(* ------------------------------------------------------------------ *)
(* Spsc poison edges *)

let test_spsc_push_timeout_vs_close () =
  let q = Spsc.create ~capacity:1 in
  check_bool "first push fits" true (Spsc.push q 1 = `Ok);
  (* full, consumer alive but idle: the escape hatch must time out *)
  check_bool "push_timeout on a full open queue times out" true
    (Spsc.push_timeout q ~timeout_s:0.05 2 = `Timeout);
  (* full, consumer closes while the producer is parked: the blocked push
     must wake with `Closed, not hang *)
  let closer = Domain.spawn (fun () -> Unix.sleepf 0.05; Spsc.close q) in
  check_bool "blocked push wakes poisoned" true (Spsc.push q 3 = `Closed);
  Domain.join closer;
  check_bool "push_timeout after close is `Closed, not `Timeout" true
    (Spsc.push_timeout q ~timeout_s:5.0 4 = `Closed)

let test_spsc_pop_drains_residue_after_close () =
  let q = Spsc.create ~capacity:4 in
  check_bool "push a" true (Spsc.push q "a" = `Ok);
  check_bool "push b" true (Spsc.push q "b" = `Ok);
  Spsc.close q;
  Spsc.close q (* idempotent *);
  check_bool "closed" true (Spsc.is_closed q);
  check_bool "residue a" true (Spsc.pop_wait q = `Item "a");
  check_bool "residue b" true (Spsc.pop_wait q = `Item "b");
  check_bool "then closed" true (Spsc.pop_wait q = `Closed);
  check_bool "pop agrees" true (Spsc.pop q = `Closed);
  check_bool "push refused after close" true (Spsc.push q "c" = `Closed)

let test_spsc_pop_wait_woken_by_close () =
  let q : int Spsc.t = Spsc.create ~capacity:2 in
  let consumer = Domain.spawn (fun () -> Spsc.pop_wait q) in
  Unix.sleepf 0.05;
  Spsc.close q;
  check_bool "parked consumer wakes with `Closed" true
    (Domain.join consumer = `Closed)

let () =
  Alcotest.run "checkpoint"
    [
      ( "wire",
        [
          Alcotest.test_case "primitive round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncation is Corrupt" `Quick
            test_wire_truncation_is_corrupt;
        ] );
      ( "operator snapshots",
        [
          Alcotest.test_case "mjoin continuation" `Quick
            test_mjoin_snapshot_continuation;
          Alcotest.test_case "dedup continuation" `Quick
            test_dedup_snapshot_continuation;
          Alcotest.test_case "groupby continuation" `Quick
            test_groupby_snapshot_continuation;
          Alcotest.test_case "corrupt blob rejected" `Quick
            test_corrupt_blob_rejected;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "checkpointing is transparent" `Quick
            test_checkpoint_is_transparent;
          Alcotest.test_case "kill storm, bounded replay" `Quick
            test_kill_storm_bounded_replay;
          Alcotest.test_case "kill schedule deterministic" `Quick
            test_kill_schedule_is_deterministic;
          Alcotest.test_case "broadcast does not trip the replay watch" `Quick
            test_broadcast_does_not_trip_replay_watch;
        ] );
      ( "durable",
        [
          Alcotest.test_case "crash, resume, same answer" `Quick
            test_durable_resume_reproduces_the_run;
          Alcotest.test_case "load rejects bad files" `Quick
            test_load_rejects_bad_files;
        ] );
      ( "spsc poison",
        [
          Alcotest.test_case "push_timeout vs close" `Quick
            test_spsc_push_timeout_vs_close;
          Alcotest.test_case "residue drains after close" `Quick
            test_spsc_pop_drains_residue_after_close;
          Alcotest.test_case "pop_wait woken by close" `Quick
            test_spsc_pop_wait_woken_by_close;
        ] );
    ]

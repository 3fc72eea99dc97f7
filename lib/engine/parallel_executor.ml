module Element = Streams.Element
module Fault_injector = Streams.Fault_injector

(* Messages the driver ships to a worker domain. Elements travel in
   batches so the queue's atomics are touched once per ~batch, not once
   per element; each element carries its global sequence number for
   clock-stamping and deterministic output merging. *)
type message =
  | Batch of (int * Element.t) array
  | Barrier of int
  | Stop of int  (** final tick: the worker flushes its tree under it *)

exception Shard_failed of { shard : int; attempts : int; reason : string }

(* One supervised restart, for post-run inspection (the soak harness runs
   uninstrumented and still asserts bounded replay). [replayed] counts
   elements, not batches: with checkpointing armed it is bounded by the
   checkpoint interval. *)
type restart = {
  shard : int;
  attempt : int;
  replayed : int;
  restored : bool;  (** state came from a checkpoint, not a full replay *)
}

let queue_capacity = 64

(* The id the one query of a {!create}d fleet answers under. *)
let query_id = "query"

type shard = {
  index : int;
  (* One *incarnation* of a shard = (dag, queue, tel, contract, domain). A
     crash retires the incarnation wholesale: the replacement gets fresh
     state everywhere and rebuilds itself by replaying [history]. All
     incarnation fields are therefore mutable. *)
  mutable dag : Multi_executor.t;
  mutable queue : message Spsc.t;
  mutable tel : Telemetry.t;
  mutable events_of : unit -> Obs.Event.t list;
  mutable contract : Contract.t option;
  mutable acked : int;  (** last barrier id this worker reached; under lock *)
  (* The plain mutable fields below are written by the worker domain and
     read by the driver only inside a barrier (worker parked on the
     monitor) or after [Domain.join] — both establish happens-before. *)
  mutable emitted : int;
  mutable outputs : (int * int * string * Element.t) list;
      (** (global seq, emission rank, query id, element), newest first *)
  mutable out_rank : int;
  (* Supervision. [history] is the replay log: every Batch sent to this
     shard since the last checkpoint cut (or run start), in send order
     (barriers and Stop are control flow, not state, and are not
     replayed). A shard's state is a pure function of its batch sequence,
     so replaying [history] into a fresh incarnation — on top of the last
     checkpoint's restored state when one exists — reproduces the dead
     one's state, outputs and events exactly. A successful checkpoint
     truncates the queue, bounding both replay time and the log's
     memory. *)
  history : message Queue.t;
  mutable history_elems : int;  (** elements across the queued batches *)
  mutable history_bytes : int;  (** approximate resident bytes of the log *)
  (* Per-shard trace/metrics carried over a checkpoint restore: the fresh
     incarnation regenerates only the post-cut suffix, so the pre-cut
     events and registry live here (captured at the cut) and are merged
     back in at read time. *)
  mutable base_events : Obs.Event.t list;
  mutable base_reg : Obs.Registry.t option;
  mutable domain : unit Domain.t option;
  mutable dead : exn option;  (** the incarnation's post-mortem; under lock *)
  mutable restarts : int;
}

type t = {
  router : Shard_router.t;
  multi : bool;  (** compiled from a registry by {!create_multi} *)
  shards : shard array;
  (* Barrier monitor: workers announce arrival on [arrived] and park on
     [released] until [release] passes their barrier id. Blocking (not
     spinning) so a quiesced worker yields its core to the driver — on a
     core-constrained host a spin barrier serializes into scheduler
     timeslices. A dying worker also broadcasts [arrived] (with [dead]
     set), so the driver can never wait forever on a crashed shard. *)
  lock : Mutex.t;
  arrived : Condition.t;
  released : Condition.t;
  mutable release : int;  (** last barrier id the driver released *)
  watchdog : Obs.Watchdog.t option;
  (* Deterministic worker-kill faults: each is one-shot via its armed
     flag, so the restarted incarnation replays the same sequence number
     unharmed — but a later schedule entry can hit the same shard again
     (kill storms). *)
  kills : (Fault_injector.kill * bool Atomic.t) list;
  max_restarts : int;
  checkpoint : Checkpoint.config option;
  resume : Checkpoint.t option;
  mutable restarts_log : restart list;  (* newest first *)
  contract_config : Contract.config option;
  driver_contract : Contract.t option;
      (* stall tracking lives with the driver, which sees the whole input;
         per-shard contracts (inside [shards]) handle late data and hold
         the shedders, each under 1/n of the state budget *)
  mk_tel : unit -> Telemetry.t * (unit -> Obs.Event.t list);
  mk_contract : unit -> Contract.t option;
  compile_shard : Telemetry.t -> Contract.t option -> Multi_executor.t;
  driver : Telemetry.t;
      (* the driver's own handle, enabled under [instrument]: it records
         the grid points, checkpoints and supervision events. Shard
         registries die with their incarnation; this one spans the run and
         joins them in every merge *)
  driver_events : unit -> Obs.Event.t list;
  mutable merged : (int option * Obs.Event.t) list;
  mutable ran : bool;
}

(* --- operator snapshots -------------------------------------------------- *)

(* Capture one shard's operator state as checkpoint blobs. Only callable
   while the worker is parked (barrier) or reaped. Fails loudly on an
   operator that cannot serialize — a checkpoint with a hole is worse than
   no checkpoint. *)
let snapshot_shard (s : shard) : Checkpoint.shard =
  let ops =
    List.map
      (fun (op : Operator.t) ->
        match op.Operator.persistence with
        | Operator.Stateless -> (op.Operator.name, "")
        | Operator.Volatile reason ->
            invalid_arg
              (Printf.sprintf
                 "checkpoint: operator %s does not support snapshots (%s)"
                 op.Operator.name reason)
        | Operator.Snapshot { save; _ } -> (op.Operator.name, save ()))
      (Multi_executor.operators s.dag)
  in
  { Checkpoint.ops; emitted = s.emitted; out_rank = s.out_rank }

(* Restore a (freshly compiled, not yet spawned) incarnation's operator
   state from a checkpoint's blobs. The blobs were written by an
   identically compiled plan, so names must line up positionally. *)
let apply_snapshot (s : shard) (snap : Checkpoint.shard) =
  let ops = Multi_executor.operators s.dag in
  if List.length ops <> List.length snap.Checkpoint.ops then
    raise
      (Checkpoint.Invalid
         (Printf.sprintf "checkpoint has %d operator blobs, plan has %d"
            (List.length snap.Checkpoint.ops)
            (List.length ops)));
  List.iter2
    (fun (op : Operator.t) (name, blob) ->
      if not (String.equal op.Operator.name name) then
        raise
          (Checkpoint.Invalid
             (Printf.sprintf "checkpoint blob for %S, plan operator is %S"
                name op.Operator.name));
      match op.Operator.persistence with
      | Operator.Stateless ->
          if blob <> "" then
            raise
              (Checkpoint.Invalid
                 (Printf.sprintf "non-empty blob for stateless operator %s"
                    name))
      | Operator.Volatile reason ->
          raise
            (Checkpoint.Invalid
               (Printf.sprintf "operator %s cannot restore (%s)" name reason))
      | Operator.Snapshot { load; _ } -> (
          try load blob
          with Streams.Wire.Corrupt m ->
            raise
              (Checkpoint.Invalid
                 (Printf.sprintf "operator %s snapshot: %s" name m))))
    ops snap.Checkpoint.ops;
  s.emitted <- snap.Checkpoint.emitted;
  s.out_rank <- snap.Checkpoint.out_rank;
  s.outputs <- []

let snapshot_bytes (snap : Checkpoint.shard) =
  List.fold_left
    (fun acc (_, blob) -> acc + String.length blob)
    0 snap.Checkpoint.ops

let check_args ~who ~shards ~kills ~max_restarts =
  if shards <= 0 then invalid_arg (who ^ ": shards must be positive");
  if max_restarts < 0 then invalid_arg (who ^ ": max_restarts must be >= 0");
  List.iter
    (fun (k : Fault_injector.kill) ->
      if k.shard >= shards then
        invalid_arg
          (Printf.sprintf "%s: kill aimed at shard %d, the fleet has %d" who
             k.shard shards))
    kills

(* The fleet over [router]'s shards, each incarnation a DAG from
   [compile_shard] under its own telemetry handle and contract. *)
let fleet ~watchdog ~instrument ~contract_config ~kills ~max_restarts
    ~checkpoint ~resume ~router ~multi compile_shard =
  let n = Shard_router.shards router in
  let mk_tel () =
    if instrument then
      let sink, contents = Obs.Sink.memory () in
      (Telemetry.create ~sink (), contents)
    else (Telemetry.null, fun () -> [])
  in
  let mk_contract () =
    Option.map
      (fun (cfg : Contract.config) ->
        Contract.create
          {
            cfg with
            Contract.state_budget_bytes =
              Option.map (fun b -> max 1 (b / n)) cfg.Contract.state_budget_bytes;
          })
      contract_config
  in
  let shards =
    Array.init n (fun index ->
        let tel, events_of = mk_tel () in
        let contract = mk_contract () in
        {
          index;
          dag = compile_shard tel contract;
          queue = Spsc.create ~capacity:queue_capacity;
          tel;
          events_of;
          contract;
          acked = 0;
          emitted = 0;
          outputs = [];
          out_rank = 0;
          history = Queue.create ();
          history_elems = 0;
          history_bytes = 0;
          base_events = [];
          base_reg = None;
          domain = None;
          dead = None;
          restarts = 0;
        })
  in
  (* A durable resume restores every shard's operator state from the
     checkpoint before any domain is spawned; [run] then skips the consumed
     input prefix and continues from the cut. *)
  (match resume with
  | None -> ()
  | Some (c : Checkpoint.t) ->
      if Array.length c.Checkpoint.shards <> n then
        raise
          (Checkpoint.Invalid
             (Printf.sprintf "checkpoint has %d shards, run has %d"
                (Array.length c.Checkpoint.shards)
                n));
      Array.iteri
        (fun k s -> apply_snapshot s c.Checkpoint.shards.(k))
        shards);
  let driver_contract = Option.map Contract.create contract_config in
  let driver, driver_events = mk_tel () in
  Option.iter
    (fun ct -> Multi_executor.register_sources ct shards.(0).dag)
    driver_contract;
  {
    router;
    multi;
    shards;
    lock = Mutex.create ();
    arrived = Condition.create ();
    released = Condition.create ();
    release = 0;
    watchdog;
    kills = List.map (fun k -> (k, Atomic.make true)) kills;
    max_restarts;
    checkpoint;
    resume;
    restarts_log = [];
    contract_config;
    driver_contract;
    mk_tel;
    mk_contract;
    compile_shard;
    driver;
    driver_events;
    merged = [];
    ran = false;
  }

let create ?(config = Executor.Config.default) ?watchdog
    ?(instrument = false) ?contract_config ?(kills = []) ?(max_restarts = 2)
    ?checkpoint ?resume ~shards query plan =
  check_args ~who:"Parallel_executor.create" ~shards ~kills ~max_restarts;
  let router = Shard_router.create ~shards query in
  if not (Shard_router.sound_for router query) then
    invalid_arg
      "Parallel_executor.create: outer/anti join kinds require exact \
       partitioning";
  (* Per-shard telemetry/contract override whatever the caller's config
     carried: each incarnation owns its handles. *)
  fleet ~watchdog ~instrument ~contract_config ~kills ~max_restarts
    ~checkpoint ~resume ~router ~multi:false (fun telemetry contract ->
      Multi_executor.of_plan ~qid:query_id
        ~config:{ config with Executor.Config.telemetry; contract }
        query plan)

let create_multi ?(config = Executor.Config.default) ?(share = true)
    ?watchdog ?(instrument = false) ?(kills = []) ?(max_restarts = 2) ~shards
    registry =
  check_args ~who:"Parallel_executor.create_multi" ~shards ~kills
    ~max_restarts;
  let queries =
    List.map
      (fun (e : Query.Query_registry.entry) -> e.query)
      (Query.Query_registry.entries registry)
  in
  let router = Shard_router.create_multi ~shards queries in
  if not (Shard_router.sound_for_shared router ~subscribers:queries) then
    invalid_arg
      "Parallel_executor.create_multi: outer/anti queries require exact \
       partitioning of their streams";
  fleet ~watchdog ~instrument ~contract_config:None ~kills ~max_restarts
    ~checkpoint:None ~resume:None ~router
    ~multi:true (fun telemetry _ ->
      Multi_executor.create
        ~config:{ config with Executor.Config.telemetry }
        ~share registry)

let router t = t.router
let n_shards t = Array.length t.shards

let crash_count t =
  Array.fold_left (fun acc s -> acc + s.restarts) 0 t.shards

let restarts_log t = List.rev t.restarts_log

let history_elems t =
  Array.fold_left (fun acc s -> acc + s.history_elems) 0 t.shards

let history_bytes t =
  Array.fold_left (fun acc s -> acc + s.history_bytes) 0 t.shards

(* Minor collections are stop-the-world across every domain in OCaml 5, so
   their frequency — allocation rate over minor-arena size — is a
   per-collection synchronisation tax that sharding cannot divide. A
   larger minor arena makes the syncs rare. Each
   domain owns its arena and spawned domains do NOT inherit a [Gc.set]
   made elsewhere, so this must run inside every domain, workers
   included. The budget is split across the fleet so total arena memory
   stays flat as shards grow. Only ever raises the setting, never
   shrinks a user's. *)
let widen_minor_arena ~shards =
  let budget_words = 32 * 1024 * 1024 in
  let min_minor_words =
    max (1024 * 1024) (min (8 * 1024 * 1024) (budget_words / shards))
  in
  let gc = Gc.get () in
  if gc.Gc.minor_heap_size < min_minor_words then
    Gc.set { gc with Gc.minor_heap_size = min_minor_words }

let worker t shard =
  widen_minor_arena ~shards:(Array.length t.shards);
  let record seq per_query =
    List.iter
      (fun (qid, outs) ->
        List.iter
          (fun o ->
            if Element.is_data o then shard.emitted <- shard.emitted + 1;
            shard.outputs <- (seq, shard.out_rank, qid, o) :: shard.outputs;
            shard.out_rank <- shard.out_rank + 1)
          outs)
      per_query
  in
  let rec loop () =
    match Spsc.pop_wait shard.queue with
    | `Closed -> ()
    | `Item (Batch arr) ->
        (* Feed the whole batch to the DAG as one run. Outputs are
           recorded under the batch's last seq — the merge key stays
           deterministic (outputs of seq s still precede outputs of any
           s' > s; within-batch attribution is coarser, and cross-run
           comparisons are by output multiset/hash anyway). A pending kill
           splits the batch: the prefix strictly before the kill seq is
           fed as one run, then the kill fires exactly where runs of one
           would have raised. *)
        (* Earliest armed kill aimed at this shard that lands in this
           batch. The whole schedule is scanned: two kills of the same
           shard at different sequence points both fire (the second hits
           the recovered incarnation). *)
        let kill_at =
          List.fold_left
            (fun best (k, armed) ->
              if shard.index = k.Fault_injector.shard && Atomic.get armed then begin
                let hit = ref None in
                Array.iteri
                  (fun i (seq, _) ->
                    if !hit = None && seq >= k.Fault_injector.at_seq then
                      hit := Some i)
                  arr;
                match (!hit, best) with
                | Some i, Some (j, _, _) when i >= j -> best
                | Some i, _ -> Some (i, k, armed)
                | None, _ -> best
              end
              else best)
            None t.kills
        in
        let feed_run lo hi =
          (* [lo, hi): contiguous slice of the batch *)
          if hi > lo then begin
            let last_seq, _ = arr.(hi - 1) in
            Telemetry.set_clock shard.tel last_seq;
            let els = Array.init (hi - lo) (fun i -> snd arr.(lo + i)) in
            record last_seq (Multi_executor.feed_batch shard.dag els)
          end
        in
        (match kill_at with
        | Some (i, k, armed) ->
            feed_run 0 i;
            if Atomic.compare_and_set armed true false then
              raise (Fault_injector.Injected_kill k)
        | None -> feed_run 0 (Array.length arr));
        loop ()
    | `Item (Barrier id) ->
        (* Two-phase: announce arrival, then park until the driver has
           finished reading our state and releases the round. *)
        Mutex.lock t.lock;
        shard.acked <- id;
        Condition.broadcast t.arrived;
        while t.release < id do
          Condition.wait t.released t.lock
        done;
        Mutex.unlock t.lock;
        loop ()
    | `Item (Stop final_tick) ->
        (* Flush events are stamped at the final tick, like a sequential
           run's; flush *outputs* sort after every element's outputs. *)
        Telemetry.set_clock shard.tel final_tick;
        record (final_tick + 1) (Multi_executor.flush shard.dag)
  in
  try loop ()
  with e ->
    (* Post-mortem protocol: poison the queue first (wakes a driver parked
       on a full push), then publish the cause under the lock and wake a
       driver parked on the barrier. The driver never waits forever on a
       dead peer. *)
    Spsc.close shard.queue;
    Mutex.lock t.lock;
    shard.dead <- Some e;
    Condition.broadcast t.arrived;
    Mutex.unlock t.lock

type result = {
  outputs : Element.t list;
  per_query : (string * Element.t list) list;
  metrics : Metrics.t;
  consumed : int;
  emitted : int;
}

let shard_breakdowns t =
  Array.map (fun s -> Grid.breakdown (Multi_executor.parts s.dag)) t.shards

(* One grid part per tree of every shard: the shards repeat the DAG's
   operator names, so the grid sums each over the fleet. *)
let parts t =
  List.concat_map (fun s -> Multi_executor.parts s.dag) (Array.to_list t.shards)

let state_breakdown t = Grid.breakdown (parts t)

let sum_state t f =
  List.fold_left (fun acc b -> acc + f b) 0 (state_breakdown t)

let total_data_state t = sum_state t (fun b -> b.Grid.data)
let total_index_state t = sum_state t (fun b -> b.Grid.index)

let alarms t =
  match t.watchdog with Some w -> Obs.Watchdog.alarms w | None -> []

let events t = t.merged

(* A shard's full-run registry view: the live incarnation's registry,
   joined with the pre-checkpoint baseline when a restore cut its history
   short. The baseline's gauges were cleared at capture (gauges are
   levels, and the live side's are authoritative), so Sum-aggregated
   levels are not double-counted. *)
let shard_registry_view (s : shard) =
  let live = Telemetry.registry s.tel in
  match s.base_reg with
  | None -> live
  | Some base -> Obs.Registry.merged [ base; live ]

(* The run's registry view: every live shard's registry joined with the
   driver's own. Counters add, gauges combine under their declared
   aggregation, histograms merge — the same fold {!report} publishes. *)
let merged_registry t =
  Obs.Registry.merged
    (Telemetry.registry t.driver
    :: (Array.to_list t.shards |> List.map shard_registry_view))

let run ?(sample_every = 100) ?(label = "run") ?exporter ?on_commit t elements
    =
  if t.ran then
    invalid_arg "Parallel_executor.run: a sharded executor runs once";
  t.ran <- true;
  (match (t.checkpoint, on_commit) with
  | Some { Checkpoint.dir = Some _; _ }, Some _ ->
      invalid_arg
        "Parallel_executor.run: on_commit discards committed outputs, a \
         durable checkpoint must retain them"
  | _ -> ());
  widen_minor_arena ~shards:(Array.length t.shards);
  let n = Array.length t.shards in
  let grid =
    Grid.start ?exporter ?watchdog:t.watchdog
      ~registry:(fun () -> merged_registry t)
      ~sample_every ~label t.driver
  in
  Array.iter
    (fun s -> s.domain <- Some (Domain.spawn (fun () -> worker t s)))
    t.shards;
  let consumed = ref 0 in
  (* --- checkpoint state ----------------------------------------------- *)
  (* The last cut, for crash restore: operator blobs per shard plus the
     trace/registry baselines captured with them. [committed] owns every
     output drained at a cut (ascending merge order) — unless [on_commit]
     streams them out instead. *)
  let last_ckpt = ref None in
  let ckpt_events = Array.make n [] in
  let ckpt_reg = Array.make n None in
  let committed = ref [] in
  (* newest chunk first; each chunk ascending *)
  let commit_chunk chunk =
    match on_commit with
    | Some f -> f (List.map (fun (_, _, _, _, el) -> el) chunk)
    | None -> committed := chunk :: !committed
  in
  let elements =
    match t.resume with
    | None -> elements
    | Some (c : Checkpoint.t) ->
        (* continue the cut: counters pick up where the checkpoint left
           off, committed outputs are owned again (only a single-plan
           fleet checkpoints, so they are its one query's), and the input
           prefix the checkpoint already consumed is skipped (the caller
           passes the same deterministic trace). *)
        consumed := c.Checkpoint.consumed;
        last_ckpt := Some c;
        commit_chunk
          (List.map
             (fun (seq, h, rank, el) -> (seq, h, rank, query_id, el))
             c.Checkpoint.committed);
        Seq.drop c.Checkpoint.consumed elements
  in
  (* --- supervision --------------------------------------------------- *)
  let abort_all () =
    (* Terminal teardown: poison every queue, lift every barrier, reap
       every domain — so an exception can propagate out of [run] without
       leaving worker domains parked forever. *)
    Array.iter (fun (s : shard) -> Spsc.close s.queue) t.shards;
    Mutex.lock t.lock;
    t.release <- max_int;
    Condition.broadcast t.released;
    Mutex.unlock t.lock;
    Array.iter
      (fun (s : shard) ->
        match s.domain with
        | Some d ->
            (try Domain.join d with _ -> ());
            s.domain <- None
        | None -> ())
      t.shards
  in
  (* Restart a crashed shard: reap the dead incarnation, back off, build a
     fresh one, replay its batch history. Contract failures are poison —
     deterministic replay would only re-raise them, so they fail the run
     instead of burning retries. *)
  let rec handle_crash k =
    let s = t.shards.(k) in
    Mutex.lock t.lock;
    while s.dead = None do
      Condition.wait t.arrived t.lock
    done;
    let cause = match s.dead with Some e -> e | None -> assert false in
    Mutex.unlock t.lock;
    (match s.domain with
    | Some d ->
        (try Domain.join d with _ -> ());
        s.domain <- None
    | None -> ());
    (match cause with
    | Contract.Violation_failure _ ->
        abort_all ();
        raise cause
    | _ -> ());
    let reason = Printexc.to_string cause in
    if s.restarts >= t.max_restarts then begin
      let attempts = s.restarts in
      Telemetry.emit t.driver
        (Obs.Event.Shard_crash
           { tick = !consumed; shard = k; reason; attempt = attempts + 1 });
      abort_all ();
      raise (Shard_failed { shard = k; attempts; reason })
    end;
    s.restarts <- s.restarts + 1;
    let attempt = s.restarts in
    Telemetry.emit t.driver
      (Obs.Event.Shard_crash { tick = !consumed; shard = k; reason; attempt });
    (* bounded exponential backoff before the respawn *)
    Unix.sleepf (0.005 *. float_of_int (1 lsl min (attempt - 1) 6));
    let tel, events_of = t.mk_tel () in
    let contract = t.mk_contract () in
    s.tel <- tel;
    s.events_of <- events_of;
    s.contract <- contract;
    s.dag <- t.compile_shard tel contract;
    s.queue <- Spsc.create ~capacity:queue_capacity;
    (* The dead incarnation's post-cut outputs, counters and events are
       discarded wholesale: determinism means the replay reproduces every
       one of them, and keeping both would double-count. *)
    s.outputs <- [];
    s.out_rank <- 0;
    s.emitted <- 0;
    s.dead <- None;
    (* With a checkpoint, recovery is restore + suffix: operator state
       comes from the last cut's blobs and only the batches since then
       (the truncated history) are replayed — work bounded by the
       checkpoint interval, not the run length. *)
    (match !last_ckpt with
    | None -> ()
    | Some (c : Checkpoint.t) ->
        let t0 = Unix.gettimeofday () in
        let snap = c.Checkpoint.shards.(k) in
        apply_snapshot s snap;
        s.base_events <- ckpt_events.(k);
        s.base_reg <- ckpt_reg.(k);
        Telemetry.emit t.driver
          (Obs.Event.Restore
             {
               tick = !consumed;
               shard = k;
               bytes = snapshot_bytes snap;
               duration_ns =
                 int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
             }));
    Mutex.lock t.lock;
    s.acked <- t.release;
    Mutex.unlock t.lock;
    s.domain <- Some (Domain.spawn (fun () -> worker t s));
    let replayed = s.history_elems in
    t.restarts_log <-
      { shard = k; attempt; replayed; restored = !last_ckpt <> None }
      :: t.restarts_log;
    let rec replay = function
      | [] ->
          Telemetry.emit t.driver
            (Obs.Event.Shard_restart
               { tick = !consumed; shard = k; attempt; replayed });
          `Ok
      | msg :: rest -> (
          match Spsc.push s.queue msg with
          | `Ok -> replay rest
          | `Closed -> `Died)
    in
    match replay (List.of_seq (Queue.to_seq s.history)) with
    | `Ok -> ()
    | `Died -> handle_crash k
  in
  let rec send_ctl k msg =
    match Spsc.push t.shards.(k).queue msg with
    | `Ok -> ()
    | `Closed ->
        handle_crash k;
        send_ctl k msg
  in
  let send_batch k arr =
    let s = t.shards.(k) in
    let msg = Batch arr in
    (* Record before pushing: if the push finds the worker dead, the
       restart's replay must include this batch. The byte figure is a
       word-counting trend estimate (boxed pair + element header per
       entry), not a measurement. *)
    Queue.push msg s.history;
    s.history_elems <- s.history_elems + Array.length arr;
    s.history_bytes <- s.history_bytes + 64 + (48 * Array.length arr);
    match Spsc.push s.queue msg with
    | `Ok -> ()
    | `Closed -> handle_crash k
  in
  (* Every shard's outputs since the last drain, in merge order: sequence,
     then shard, then per-shard emission rank. *)
  let drain_outputs () =
    let chunk =
      Array.to_list t.shards
      |> List.concat_map (fun s ->
             List.rev_map
               (fun (seq, rank, qid, el) -> (seq, s.index, rank, qid, el))
               s.outputs)
      |> List.sort (fun (s1, h1, r1, _, _) (s2, h2, r2, _, _) ->
             compare (s1, h1, r1) (s2, h2, r2))
    in
    Array.iter (fun (s : shard) -> s.outputs <- []) t.shards;
    chunk
  in
  (* --- batching ------------------------------------------------------- *)
  let batch_cap = 256 in
  let bufs = Array.make n [] in
  let buf_len = Array.make n 0 in
  let flush_buf k =
    if buf_len.(k) > 0 then begin
      send_batch k (Array.of_list (List.rev bufs.(k)));
      bufs.(k) <- [];
      buf_len.(k) <- 0
    end
  in
  let send k entry =
    bufs.(k) <- entry :: bufs.(k);
    buf_len.(k) <- buf_len.(k) + 1;
    if buf_len.(k) >= batch_cap then flush_buf k
  in
  let barrier_id =
    ref
      (match t.resume with
      | Some c -> c.Checkpoint.barrier
      | None -> 0)
  in
  let grid_points = ref 0 in
  let quiesce () =
    incr barrier_id;
    let id = !barrier_id in
    for k = 0 to n - 1 do
      flush_buf k;
      send_ctl k (Barrier id)
    done;
    (* Wait until every shard is parked at the barrier — restarting any
       that die on the way. A worker that acked cannot crash while parked
       (it runs no code until released), so an ack is stable. *)
    let rec await () =
      Mutex.lock t.lock;
      while
        Array.exists
          (fun (s : shard) -> s.dead = None && s.acked < id)
          t.shards
        && Array.for_all (fun (s : shard) -> s.dead = None) t.shards
      do
        Condition.wait t.arrived t.lock
      done;
      let dead =
        Array.to_list t.shards
        |> List.filter_map (fun (s : shard) ->
               if s.dead <> None then Some s.index else None)
      in
      Mutex.unlock t.lock;
      match dead with
      | [] -> ()
      | ks ->
          List.iter
            (fun k ->
              handle_crash k;
              send_ctl k (Barrier id))
            ks;
          await ()
    in
    await ()
  in
  let release () =
    Mutex.lock t.lock;
    t.release <- !barrier_id;
    Condition.broadcast t.released;
    Mutex.unlock t.lock
  in
  (* Take a punctuation-aligned cut. Only called between [quiesce] and
     [release]: workers are parked, every queue is drained, so per-shard
     operator state is exactly the bounded live set the safety theorem is
     about. The cut owns everything before it — operator blobs, emit
     counters, drained outputs, trace/registry baselines — and the replay
     histories are then truncated, so any later crash replays at most one
     checkpoint interval of input. *)
  let take_checkpoint ~tick =
    match t.checkpoint with
    | None -> ()
    | Some cfg ->
        let t0 = Unix.gettimeofday () in
        let shards_snap = Array.map snapshot_shard t.shards in
        let chunk = drain_outputs () in
        commit_chunk chunk;
        Array.iteri
          (fun k s ->
            ckpt_events.(k) <- s.base_events @ s.events_of ();
            let copy = Obs.Registry.merged [ shard_registry_view s ] in
            Obs.Registry.clear_gauges copy;
            ckpt_reg.(k) <- Some copy)
          t.shards;
        let mk committed =
          { Checkpoint.barrier = !barrier_id; consumed = tick;
            shards = shards_snap; committed }
        in
        let bytes =
          match cfg.Checkpoint.dir with
          | None ->
              Array.fold_left
                (fun acc s -> acc + snapshot_bytes s)
                0 shards_snap
          | Some dir ->
              (* the durable image needs every committed output so a
                 resumed process reproduces the full output multiset *)
              let untag (seq, h, rank, _, el) = (seq, h, rank, el) in
              let full =
                mk (List.concat_map (List.map untag) (List.rev !committed))
              in
              let _path, bytes =
                Checkpoint.save ~dir
                  ~fingerprint:cfg.Checkpoint.fingerprint full
              in
              bytes
        in
        (* the in-memory cut used for crash restore does not need the
           committed outputs — the driver already owns them *)
        last_ckpt := Some (mk []);
        Array.iter
          (fun s ->
            Queue.clear s.history;
            s.history_elems <- 0;
            s.history_bytes <- 0)
          t.shards;
        Telemetry.set_gauge ~agg:Obs.Counters.Sum t.driver "checkpoint_bytes"
          bytes;
        Telemetry.emit t.driver
          (Obs.Event.Checkpoint
             {
               tick;
               barrier = !barrier_id;
               bytes;
               duration_ns =
                 int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
             })
  in
  let emitted_total () =
    Array.fold_left (fun acc (s : shard) -> acc + s.emitted) 0 t.shards
  in
  (* Replay-log accounting, only when checkpointing is armed (the gauges
     would otherwise break sequential/sharded metric-family parity). The
     gauges are set at every grid point, so a scrape sees the healthy
     saw-tooth: growth between cuts, back to ~zero after each one. *)
  let observe_history () =
    match t.checkpoint with
    | None -> ()
    | Some _ ->
        Telemetry.set_gauge ~agg:Obs.Counters.Sum t.driver "history_len"
          (history_elems t);
        Telemetry.set_gauge ~agg:Obs.Counters.Sum t.driver "history_bytes"
          (history_bytes t)
  in
  (* The watchdog must not see the raw saw-tooth (its slope detector
     would flag the healthy between-cut climb), so it watches the log's
     *excess over one checkpoint interval* — identically zero while cuts
     keep truncating, climbing monotonically the moment they stall. It
     watches the largest shard's log: a broadcast element sits in every
     shard's log, so only a single shard's log holds each input element at
     most once and stays under the interval. *)
  let watch_history ~interval ~tick =
    let longest =
      Array.fold_left (fun acc s -> max acc s.history_elems) 0 t.shards
    in
    Grid.watch grid ~tick ~op:"replay_history"
      ~size:(max 0 (longest - interval))
  in
  (* Contract checks on the barrier grid, mirroring Executor.run's: the
     driver (which sees the whole input) checks punctuation-progress
     stalls; each shard's contract enforces its slice of the state budget.
     Workers are parked, so reading and shedding their state is safe. *)
  let contract_checks ~tick =
    (match t.driver_contract with
    | Some ct ->
        ignore
          (Contract.check_stalls ct ~emit:(Telemetry.emit t.driver)
             ?watchdog:t.watchdog ~tick ())
    | None -> ());
    Array.iter
      (fun (s : shard) ->
        match s.contract with
        | Some ct ->
            ignore
              (Contract.enforce_budget ct ~telemetry:s.tel ~tick
                 ~bytes_now:(fun () -> Multi_executor.total_state_bytes s.dag)
                 ())
        | None -> ())
      t.shards
  in
  let body () =
    consumed :=
      Grid.feed ~start:!consumed ~sample_every ~cap:1 elements
        ~run:(fun ~base arr ->
          let seq = base + 1 and el = arr.(0) in
          (* [handle_crash] stamps its events with [consumed] *)
          consumed := seq;
          (match t.driver_contract with
          | Some ct -> Contract.note_element ct ~tick:seq el
          | None -> ());
          match Shard_router.route_element t.router el with
          | Shard_router.Local k -> send k (seq, el)
          | Shard_router.Broadcast ->
              for k = 0 to n - 1 do
                send k (seq, el)
              done)
        ~point:(fun ~tick ->
          (* Workers are parked from [quiesce] to [release], so reading
             and shedding shard state here is safe. *)
          quiesce ();
          contract_checks ~tick;
          Grid.sample grid ~tick ~emitted:(emitted_total ()) (parts t);
          incr grid_points;
          (match t.checkpoint with
          | Some cfg ->
              if !grid_points mod cfg.Checkpoint.every = 0 then
                take_checkpoint ~tick;
              watch_history ~interval:(cfg.Checkpoint.every * sample_every)
                ~tick
          | None -> ());
          observe_history ();
          Grid.publish grid ~tick;
          release ());
    for k = 0 to n - 1 do
      flush_buf k;
      send_ctl k (Stop !consumed)
    done;
    (* Reap the fleet, restarting any shard that died on (or before) its
       flush — the restart replays history, then gets Stop again. *)
    let rec reap k =
      let s = t.shards.(k) in
      match s.domain with
      | None -> ()
      | Some d ->
          Domain.join d;
          s.domain <- None;
          if s.dead <> None then begin
            handle_crash k;
            send_ctl k (Stop !consumed);
            reap k
          end
    in
    for k = 0 to n - 1 do
      reap k
    done
  in
  (try body ()
   with e ->
     (* Shard_failed / contract poison already aborted; anything else
        (e.g. a driver-contract stall under Fail) still needs the fleet
        torn down before the exception escapes. *)
     abort_all ();
     raise e);
  contract_checks ~tick:!consumed;
  observe_history ();
  Grid.finish grid ~tick:!consumed ~emitted:(emitted_total ()) (parts t);
  (* Committed chunks (one per checkpoint, ascending within and across
     chunks — every pre-cut batch was drained at its cut) precede the
     still-live tail, which holds only post-cut sequence numbers. *)
  let merged = List.concat (List.rev (drain_outputs () :: !committed)) in
  let outputs = List.map (fun (_, _, _, _, el) -> el) merged in
  let per_query =
    List.map
      (fun qid ->
        ( qid,
          List.filter_map
            (fun (_, _, _, q, el) ->
              if String.equal q qid then Some el else None)
            merged ))
      (Query.Query_registry.qids (Multi_executor.registry t.shards.(0).dag))
  in
  if Telemetry.enabled t.driver then begin
    (* Merged trace order: tick, then shard, then per-shard emission
       index; driver events sort after every worker event of their tick
       (a Sample describes the tick's *completed* state). A shard restored
       from a checkpoint contributes its pre-cut baseline first, then the
       live incarnation's regenerated suffix. *)
    let tagged =
      Array.to_list t.shards
      |> List.concat_map (fun s ->
             List.mapi
               (fun i e -> (Obs.Event.tick_of e, s.index, i, Some s.index, e))
               (s.base_events @ s.events_of ()))
    in
    let driver =
      t.driver_events ()
      |> List.mapi (fun i e -> (Obs.Event.tick_of e, max_int, i, None, e))
    in
    t.merged <-
      List.sort
        (fun (t1, s1, i1, _, _) (t2, s2, i2, _, _) ->
          compare (t1, s1, i1) (t2, s2, i2))
        (tagged @ driver)
      |> List.map (fun (_, _, _, tag, e) -> (tag, e))
  end;
  Array.iter (fun s -> Telemetry.close s.tel) t.shards;
  {
    outputs;
    per_query;
    metrics = Grid.metrics grid;
    consumed = !consumed;
    emitted = emitted_total ();
  }

let report ?(meta = []) t (r : result) =
  (* The driver's contract counts only stalls, the shards' everything
     else, so summing all of them is the fleet's summary. *)
  let contract_meta =
    match t.contract_config with
    | None -> []
    | Some _ ->
        let shards =
          List.filter_map (fun s -> s.contract) (Array.to_list t.shards)
        in
        let all = Option.to_list t.driver_contract @ shards in
        [ ("contract", Obs.Json.Obj (Contract.meta_counters all)) ]
  in
  let answers_meta =
    if not t.multi then []
    else
      Multi_executor.answers_meta t.shards.(0).dag
        (List.map
           (fun (qid, outs) -> (qid, Multi_executor.answer outs))
           r.per_query)
  in
  Grid.report
    ~meta:
      ((("shards", Obs.Json.Int (n_shards t)) :: meta)
      @ [
          ("consumed", Obs.Json.Int r.consumed);
          ("emitted", Obs.Json.Int r.emitted);
          ("shard_crashes", Obs.Json.Int (crash_count t));
        ]
      @ contract_meta @ answers_meta)
    ~registry:(merged_registry t) ~alarms:(alarms t) (parts t) r.metrics

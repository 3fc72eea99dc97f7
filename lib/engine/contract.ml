module Scheme = Streams.Scheme
module Element = Streams.Element

type action = Fail | Drop_late | Quarantine | Degrade | Count

type config = {
  action : action;
  grace : int option;
  state_budget_bytes : int option;
  quarantine_cap : int;
}

let default_config =
  { action = Count; grace = None; state_budget_bytes = None;
    quarantine_cap = 1024 }

let pp_action ppf = function
  | Fail -> Fmt.string ppf "fail"
  | Drop_late -> Fmt.string ppf "drop-late"
  | Quarantine -> Fmt.string ppf "quarantine"
  | Degrade -> Fmt.string ppf "degrade"
  | Count -> Fmt.string ppf "count"

let action_of_string = function
  | "fail" -> Ok Fail
  | "drop-late" -> Ok Drop_late
  | "quarantine" -> Ok Quarantine
  | "degrade" -> Ok Degrade
  | "count" -> Ok Count
  | s ->
      Error
        (Fmt.str
           "unknown violation action %S (expected fail | drop-late | \
            quarantine | degrade | count)"
           s)

type violation = { op : string; input : string; kind : string; tick : int }

exception Violation_failure of violation

let pp_violation ppf v =
  Fmt.pf ppf "punctuation contract violated: %s at %s/%s, tick %d" v.kind v.op
    v.input v.tick

(* One stall-tracked punctuation source. *)
type source = {
  stream : string;
  scheme : Scheme.t;
  label : string;
  mutable last_seen : int;
  mutable stalled : bool;  (* latched *)
}

type t = {
  cfg : config;
  mutable sources : source list;  (* registration order, usually short *)
  mutable shedders : (string * (unit -> int * int)) list;
  mutable late : int;
  mutable dups : int;
  mutable stalls : int;
  mutable shed : int;
  mutable quarantine : (string * string * Relational.Tuple.t) list;
      (* newest first *)
  mutable quarantine_len : int;
  mutable overflow : int;
}

let create cfg =
  {
    cfg;
    sources = [];
    shedders = [];
    late = 0;
    dups = 0;
    stalls = 0;
    shed = 0;
    quarantine = [];
    quarantine_len = 0;
    overflow = 0;
  }

let config t = t.cfg

let late_count t = t.late
let dup_count t = t.dups
let stall_count t = t.stalls
let shed_count t = t.shed
let quarantined t = List.rev t.quarantine
let quarantined_count t = t.quarantine_len
let quarantine_overflow t = t.overflow

(* --- late data -------------------------------------------------------- *)

let emit_violation ~telemetry ~op ~input ~kind ~action ~counter =
  if Telemetry.enabled telemetry then begin
    Telemetry.emit telemetry
      (Obs.Event.Violation
         { tick = Telemetry.now telemetry; op; input; kind; action });
    Telemetry.incr telemetry (op ^ "." ^ counter)
  end

let handle_late contract ~telemetry ~op ~input tup =
  match contract with
  | None ->
      (* Detection without a contract: count, admit. *)
      emit_violation ~telemetry ~op ~input ~kind:"late_data" ~action:"count"
        ~counter:"late_tuples";
      `Admit
  | Some t -> (
      t.late <- t.late + 1;
      match t.cfg.action with
      | Count ->
          emit_violation ~telemetry ~op ~input ~kind:"late_data"
            ~action:"count" ~counter:"late_tuples";
          `Admit
      | Degrade ->
          emit_violation ~telemetry ~op ~input ~kind:"late_data"
            ~action:"admit" ~counter:"late_tuples";
          `Admit
      | Drop_late ->
          emit_violation ~telemetry ~op ~input ~kind:"late_data"
            ~action:"drop" ~counter:"late_tuples";
          `Drop
      | Quarantine ->
          emit_violation ~telemetry ~op ~input ~kind:"late_data"
            ~action:"quarantine" ~counter:"late_tuples";
          if Telemetry.enabled telemetry then
            Telemetry.incr telemetry (op ^ ".quarantined_tuples");
          if t.quarantine_len < t.cfg.quarantine_cap then begin
            t.quarantine <- (op, input, tup) :: t.quarantine;
            t.quarantine_len <- t.quarantine_len + 1
          end
          else t.overflow <- t.overflow + 1;
          `Drop
      | Fail ->
          emit_violation ~telemetry ~op ~input ~kind:"late_data"
            ~action:"fail" ~counter:"late_tuples";
          raise
            (Violation_failure
               { op; input; kind = "late_data";
                 tick = Telemetry.now telemetry }))

(* --- punctuation anomalies -------------------------------------------- *)

let handle_punct_rejected contract ~telemetry ~op ~input ~ordered =
  let kind = if ordered then "punct_regression" else "dup_punct" in
  match contract with
  | None -> emit_violation ~telemetry ~op ~input ~kind ~action:"count"
              ~counter:"dup_puncts"
  | Some t ->
      t.dups <- t.dups + 1;
      if ordered && t.cfg.action = Fail then begin
        emit_violation ~telemetry ~op ~input ~kind ~action:"fail"
          ~counter:"dup_puncts";
        raise
          (Violation_failure
             { op; input; kind; tick = Telemetry.now telemetry })
      end
      else
        emit_violation ~telemetry ~op ~input ~kind ~action:"count"
          ~counter:"dup_puncts"

(* --- stall tracking --------------------------------------------------- *)

let register_source t ~stream scheme =
  let label = Scheme.to_string scheme in
  let known =
    List.exists
      (fun s -> String.equal s.stream stream && String.equal s.label label)
      t.sources
  in
  if not known then
    t.sources <-
      t.sources @ [ { stream; scheme; label; last_seen = 0; stalled = false } ]

let note_element t ~tick el =
  match el with
  | Element.Data _ -> ()
  | Element.Punct p ->
      let stream = Element.stream_name el in
      List.iter
        (fun s ->
          if String.equal s.stream stream && Scheme.instantiates s.scheme p
          then s.last_seen <- tick)
        t.sources

let check_stalls t ~emit ?watchdog ~tick () =
  match t.cfg.grace with
  | None -> []
  | Some grace ->
      let fresh = ref [] in
      List.iter
        (fun s ->
          if (not s.stalled) && tick - s.last_seen > grace then begin
            s.stalled <- true;
            t.stalls <- t.stalls + 1;
            fresh := (s.stream, s.label) :: !fresh;
            let act = if t.cfg.action = Fail then "fail" else "alarm" in
            (* Pseudo-operator "contract": Report.replay skips it, so the
               event needs no paired registry counter. *)
            emit
              (Obs.Event.Violation
                 { tick; op = "contract"; input = s.stream;
                   kind = "punct_stall"; action = act });
            (match watchdog with
            | Some w ->
                ignore
                  (Obs.Watchdog.flag w
                     ~op:(Fmt.str "contract:%s" s.stream)
                     ~tick ~size:0 ~unreachable:[ s.label ])
            | None -> ());
            if t.cfg.action = Fail then
              raise
                (Violation_failure
                   { op = "contract"; input = s.stream; kind = "punct_stall";
                     tick })
          end)
        t.sources;
      List.rev !fresh

(* --- budget enforcement ----------------------------------------------- *)

let register_shedder t ~op f = t.shedders <- t.shedders @ [ (op, f) ]

let enforce_budget t ~telemetry ~tick ~bytes_now () =
  match (t.cfg.action, t.cfg.state_budget_bytes) with
  | Degrade, Some budget when t.shedders <> [] ->
      let total = ref 0 in
      let rounds = ref 0 in
      (* Each round sheds a slice per operator; a few rounds bound the
         emergency even when one round's slice is not enough. *)
      while bytes_now () > budget && !rounds < 4 do
        incr rounds;
        List.iter
          (fun (op, f) ->
            let victims, bytes = f () in
            if victims > 0 then begin
              total := !total + victims;
              t.shed <- t.shed + victims;
              if Telemetry.enabled telemetry then begin
                Telemetry.emit telemetry
                  (Obs.Event.Load_shed { tick; op; victims; bytes });
                Telemetry.incr ~by:victims telemetry (op ^ ".shed_tuples")
              end
            end)
          t.shedders
      done;
      !total
  | _ -> 0

let meta_counters ts =
  let sum f = Obs.Json.Int (List.fold_left (fun acc t -> acc + f t) 0 ts) in
  [
    ("late_tuples", sum late_count);
    ("dup_puncts", sum dup_count);
    ("punct_stalls", sum stall_count);
    ("quarantined", sum quarantined_count);
    ("quarantine_overflow", sum quarantine_overflow);
    ("shed_tuples", sum shed_count);
  ]

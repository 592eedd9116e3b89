(* The in-process workloads: rounds of timed operations, each checked by
   the oracles once its clock has stopped. *)

module P = Foray_core.Pipeline
module Model = Foray_core.Model
module V = Foray_verify.Verify
module TF = Foray_trace.Tracefile
module Tstats = Foray_trace.Tstats

exception Op_failed of string

(* An operation runs its timed part and returns the checks to make on its
   outputs afterwards. [kind] is "extract" or "verify" and picks the rate
   the operation counts towards; [label] and the program name identify
   the samples whose median is taken. *)
type op = {
  kind : string;
  label : string;
  pre : Prep.t;
  run : unit -> unit -> unit;
}

type sample = { s_op : op; t : Prep.timing }

type outcome = {
  samples : sample list;
  attempted : int;
  failed : int;
  rounds : int;
}

let pipeline_error e = raise (Op_failed (Foray_core.Error.to_string e))

(* Every run of a program must render the same model. The first one seen
   is the reference the others are compared with. *)
let same_model models (pre : Prep.t) model =
  let text = Model.to_c model in
  match Hashtbl.find_opt models pre.prog.name with
  | None -> Hashtbl.add models pre.prog.name text
  | Some t -> Oracle.same_text ~what:(pre.prog.name ^ " model") t text

let check_result models (pre : Prep.t) (r : P.result) =
  Oracle.conservation ~name:pre.prog.name ~counted:pre.accesses
    ~tstats:(Tstats.total_accesses r.tstats)
    ~interp:r.sim.accesses;
  (match pre.prog.planted with
  | Some planted -> Oracle.planted ~name:pre.prog.name ~planted r.model
  | None -> ());
  (match pre.prog.depth with
  | Some depth -> Oracle.recursion ~name:pre.prog.name ~depth r.sim.output
  | None -> ());
  same_model models pre r.model

let check_report (pre : Prep.t) (rep : V.report) =
  Oracle.verified ~name:pre.prog.name ~counted:pre.accesses rep

(* Online extraction ([foraygen extract]) and the verify flow
   ([foraygen verify PROGRAM]) of one program. *)
let online_ops ~config models (pre : Prep.t) =
  let extract () =
    match P.run_source ~config pre.prog.source with
    | Error e -> pipeline_error e
    | Ok { result; degraded } ->
        fun () ->
          if degraded <> [] then Oracle.fail "%s: degraded" pre.prog.name;
          check_result models pre result
  in
  let verify () =
    match P.run_offline ~config (Minic.Parser.program pre.prog.source) with
    | Error e -> pipeline_error e
    | Ok (o, events) ->
        let rep = V.verify o.result.model events in
        fun () ->
          check_result models pre o.result;
          check_report pre rep
  in
  [
    { kind = "extract"; label = "extract"; pre; run = extract };
    { kind = "verify"; label = "verify"; pre; run = verify };
  ]

(* Model extraction from the recorded trace, sequentially and cut into two
   shards, then verification read back from the file. The shards are
   walked on one domain: two domains computing at once on a two-CPU
   machine moved this rate by a fifth between runs, which no bound could
   absorb, while the shard path's own work (cut, walks, merge, finalize)
   is the same either way. *)
let replay_ops models ref_models (pre : Prep.t) =
  let path = Option.get pre.trace in
  let analyze shards () =
    match P.analyze_trace ~shards ~jobs:1 path with
    | Error c -> raise (Op_failed c.TF.kind)
    | Ok ((tree, tstats), salvage) ->
        let model = Model.of_tree ~loop_kinds:pre.loop_kinds tree in
        fun () ->
          Oracle.decoded ~name:pre.prog.name ~recorded:pre.events
            ~decoded:salvage.TF.events;
          if Tstats.total_accesses tstats <> pre.accesses then
            Oracle.fail "%s: trace statistics count %d accesses, counted %d"
              pre.prog.name (Tstats.total_accesses tstats) pre.accesses;
          same_model models pre model
  in
  let verify () =
    match TF.read_events path with
    | Error c -> raise (Op_failed c.TF.kind)
    | Ok (events, _) ->
        let model = Hashtbl.find ref_models pre.prog.name in
        let sink, finish = V.sink model in
        Array.iter sink events;
        let rep = finish () in
        fun () ->
          Oracle.decoded ~name:pre.prog.name ~recorded:pre.events
            ~decoded:(Array.length events);
          check_report pre rep
  in
  [
    { kind = "extract"; label = "analyze"; pre; run = analyze 1 };
    { kind = "extract"; label = "analyze-2shards"; pre; run = analyze 2 };
    { kind = "verify"; label = "verify-file"; pre; run = verify };
  ]

(* Rounds of [ops] until [seconds] have passed, stopping at the round
   boundary nearest the deadline; at least one round. [each_round] runs
   before every round's operations (the untraced run repeats its set-up
   there); [around] wraps each operation (the traced run opens a span
   there). *)
let measure ?(each_round = ignore) ?(around = fun _ f -> f ()) ~seconds ops =
  let t_start = Prep.now () in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let rounds = ref 0 in
  let go_on () =
    !rounds = 0
    ||
    let el = Prep.now () -. t_start in
    el +. (0.5 *. el /. float_of_int !rounds) < seconds
  in
  while go_on () do
    each_round ();
    List.iter
      (fun op ->
        incr attempted;
        match around op (fun () -> Prep.timed op.run) with
        | check, t ->
            check ();
            samples := { s_op = op; t } :: !samples
        | exception Op_failed msg ->
            incr failed;
            Printf.eprintf "perfbench: %s %s failed: %s\n%!" op.label
              op.pre.prog.name msg)
      ops;
    incr rounds
  done;
  {
    samples = !samples;
    attempted = !attempted;
    failed = !failed;
    rounds = !rounds;
  }

(* Per (operation, program): the median of its passes, so one stalled pass
   cannot move a rate. Each rate is events over the summed medians. *)
let rates o =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = (s.s_op.label, s.s_op.pre.prog.name) in
      let xs = Option.fold ~none:[] ~some:snd (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (s.s_op, s.t.secs :: xs))
    o.samples;
  let ev = Hashtbl.create 2 and secs = Hashtbl.create 2 in
  let add t k v =
    Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.0)
  in
  let n_ops = ref 0 and all_secs = ref 0.0 in
  Hashtbl.iter
    (fun _ (op, xs) ->
      let m = Stat.median xs in
      add ev op.kind (float_of_int op.pre.events);
      add secs op.kind m;
      incr n_ops;
      all_secs := !all_secs +. m)
    groups;
  let rate k =
    match (Hashtbl.find_opt ev k, Hashtbl.find_opt secs k) with
    | Some e, Some s -> e /. s
    | _ -> nan
  in
  [
    ("extract_events_per_s", rate "extract", "1/s");
    ("verify_events_per_s", rate "verify", "1/s");
    ("ops_per_s", float_of_int !n_ops /. !all_secs, "1/s");
  ]

(* Set-up and operations of an in-process workload. [setup] is what
   [setup_s] times; [ops] then computes, untimed, the references the
   checks compare with. *)
let setup workload ~seed ~dir =
  let config = Inputs.config ~seed in
  let record = if workload = "trace-replay" then Some dir else None in
  List.map (Prep.prepare ~config ?record) (Inputs.programs workload ~seed)

let ops workload ~seed pres =
  let config = Inputs.config ~seed in
  let models = Hashtbl.create 16 in
  match workload with
  | "trace-replay" ->
      (* The online model is the reference the replayed ones must match. *)
      let ref_models = Hashtbl.create 16 in
      List.iter
        (fun (pre : Prep.t) ->
          match P.run_source ~config pre.prog.source with
          | Error e -> pipeline_error e
          | Ok o ->
              same_model models pre o.result.model;
              Hashtbl.add ref_models pre.prog.name o.result.model)
        pres;
      List.concat_map (replay_ops models ref_models) pres
  | _ -> List.concat_map (online_ops ~config models) pres

(* forayd driven over its Unix socket: a daemon process, requests, and the
   wire oracles. *)

module Serve = Foray_serve.Serve
module Json = Foray_serve.Json
module P = Foray_core.Pipeline
module Model = Foray_core.Model
module V = Foray_verify.Verify

(* A child [foraygen serve] process, as a user would run it, with one
   worker domain. With [--jobs 2] (the default on this two-CPU machine)
   the same one-at-a-time requests ran 1.2-3x slower and drifted from run
   to run: the idle second domain takes part in every stop-the-world minor
   collection of the busy one. *)
type t = { pid : int; socket : string }

let jobs = 1

let exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "foraygen.exe" ]

let start ~dir =
  let socket = Filename.concat dir "fd.sock" in
  let log =
    Unix.openfile (Filename.concat dir "forayd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process (exe ())
      [| "foraygen"; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs |]
      Unix.stdin log log
  in
  Unix.close log;
  let rec wait n =
    match Serve.Client.connect socket with
    | c -> Serve.Client.close c
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.sleepf 0.005;
        wait (n - 1)
  in
  (try wait 2000
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
  { pid; socket }

let stop d =
  (try Serve.Client.shutdown d.socket
   with Unix.Unix_error _ | Failure _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid)

let request op source =
  Printf.sprintf "{\"op\": \"%s\", \"source\": \"%s\"}" op
    (Foray_core.Error.json_escape source)

(* What the daemon must answer for [source], computed in this process. *)
type expected = { model : Json.t; report : Json.t; events : int }

let expected (p : Inputs.prog) =
  let config = Minic_sim.Interp.default_config in
  let pre = Prep.prepare ~config p in
  let model =
    match P.run_source ~config p.source with
    | Ok o -> Model.to_c o.result.model
    | Error e -> Oracle.fail "%s: %s" p.name (Foray_core.Error.to_string e)
  in
  let report =
    match P.run_offline ~config (Minic.Parser.program p.source) with
    | Ok (o, events) ->
        let rep = V.verify o.result.model events in
        Oracle.all_proved ~name:p.name rep;
        V.report_to_json rep
    | Error e -> Oracle.fail "%s: %s" p.name (Foray_core.Error.to_string e)
  in
  match Json.parse report with
  | Ok report -> { model = Json.Str model; report; events = pre.events }
  | Error e -> Oracle.fail "in-process verify report is not JSON: %s" e

type kind = Cold_extract | Cold_verify | Warm_extract | Warm_verify

let send c ~exp kind source =
  let op, cold, field, expected =
    match kind with
    | Cold_extract -> ("extract", true, "model", exp.model)
    | Warm_extract -> ("extract", false, "model", exp.model)
    | Cold_verify -> ("verify", true, "verify", exp.report)
    | Warm_verify -> ("verify", false, "verify", exp.report)
  in
  let t0 = Prep.now () in
  let line = Serve.Client.request c (request op source) in
  let ms = (Prep.now () -. t0) *. 1000.0 in
  let j = Oracle.wire ~what:op ~cold ~field ~expected line in
  let daemon_ms =
    match Json.member "ms" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Oracle.fail "%s: response carries no ms" op
  in
  (kind, ms, daemon_ms)

let cache_counts d =
  let c = Serve.Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      let j = Serve.Client.rpc c [ ("op", "\"metrics\"") ] in
      let counter name =
        match Json.member "metrics" j with
        | Some m -> (
            match Json.member "counters" m with
            | Some cs -> (
                match Json.member name cs with Some (Json.Int i) -> i | _ -> 0)
            | None -> 0)
        | None -> 0
      in
      (counter "serve.cache.hits", counter "serve.cache.misses"))

let of_kind k lat =
  List.filter_map (fun (k', ms, _) -> if k = k' then Some ms else None) lat

(* The untimed check that the cache served exactly the warm requests. *)
let check_cache d ~before lat =
  let h0, m0 = before in
  let h1, m1 = cache_counts d in
  let warm =
    List.length (of_kind Warm_extract lat) + List.length (of_kind Warm_verify lat)
  in
  let cold = List.length lat - warm in
  Oracle.cache_delta ~hits:(h1 - h0) ~warm ~misses:(m1 - m0) ~cold

(* Negative controls: each oracle must accept the program's real output
   and reject a deliberately wrong one. Run with [main.exe selftest] or
   [dune build @perfbench/selftest]; exits 1 if any control misbehaves. *)

module P = Foray_core.Pipeline
module Model = Foray_core.Model
module V = Foray_verify.Verify

let failures = ref 0

let expect ~accepts what f =
  let accepted = match f () with () -> true | exception Oracle.Wrong _ -> false in
  let ok = accepted = accepts in
  if not ok then incr failures;
  Printf.printf "%-4s %s %s\n%!"
    (if ok then "ok" else "FAIL")
    (if accepts then "accepts" else "rejects")
    what

let run_exn src =
  match P.run_source src with
  | Ok o -> o.result
  | Error e -> failwith (Foray_core.Error.to_string e)

(* Add [delta] to the first reference's innermost coefficient. *)
let perturb delta (m : Model.t) =
  let hit = ref false in
  let mref (r : Model.mref) =
    match r.terms with
    | (c, lid) :: rest when not !hit ->
        hit := true;
        { r with terms = (c + delta, lid) :: rest }
    | _ -> r
  in
  let rec mloop (l : Model.mloop) =
    { l with refs = List.map mref l.refs; subs = List.map mloop l.subs }
  in
  { m with loops = List.map mloop m.loops }

let verify_controls () =
  let src = (Inputs.suite "adpcm").source in
  match P.run_offline (Minic.Parser.program src) with
  | Error e -> failwith (Foray_core.Error.to_string e)
  | Ok (o, events) ->
      let model = o.result.model in
      expect ~accepts:true "adpcm model: every reference proves" (fun () ->
          Oracle.all_proved ~name:"adpcm" (V.verify model events));
      expect ~accepts:false "adpcm model with one coefficient +8" (fun () ->
          Oracle.all_proved ~name:"adpcm" (V.verify (perturb 8 model) events));
      let n = o.result.sim.accesses in
      expect ~accepts:true "verify report covers every access" (fun () ->
          Oracle.verified ~name:"adpcm" ~counted:n (V.verify model events));
      expect ~accepts:false "verify report against a count off by one"
        (fun () ->
          Oracle.verified ~name:"adpcm" ~counted:(n + 1)
            (V.verify model events));
      expect ~accepts:false "access count off by one" (fun () ->
          Oracle.conservation ~name:"adpcm" ~counted:(n + 1)
            ~tstats:(Foray_trace.Tstats.total_accesses o.result.tstats)
            ~interp:n)

let recursion_controls () =
  let depth = 500 in
  let r = run_exn (Inputs.deep_rec depth).source in
  expect ~accepts:true "recursion prints its depth" (fun () ->
      Oracle.recursion ~name:"rec" ~depth r.sim.output);
  expect ~accepts:false "recursion against an off-by-one expectation" (fun () ->
      Oracle.recursion ~name:"rec" ~depth:(depth - 1) r.sim.output)

let planted_controls () =
  let p = Inputs.progen ~seed:5 0 in
  let planted = Option.get p.planted in
  let r = run_exn p.source in
  expect ~accepts:true "progen coefficients recovered" (fun () ->
      Oracle.planted ~name:p.name ~planted r.model);
  let altered =
    match planted with
    | (c :: cs) :: rest -> ((c + 1) :: cs) :: rest
    | _ -> failwith "progen planted no terms"
  in
  expect ~accepts:false "progen with one planted term altered" (fun () ->
      Oracle.planted ~name:p.name ~planted:altered r.model)

(* Flip one character of the response's model text. *)
let alter_model line =
  let key = "\"model\": \"" in
  let rec find i =
    if String.sub line i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let i = find 0 + 5 in
  String.mapi
    (fun j c -> if j = i then (if c = '1' then '2' else '1') else c)
    line

let wire_controls () =
  let dir = Prep.work_dir () in
  Fun.protect
    ~finally:(fun () -> Prep.remove_dir dir)
    (fun () ->
      let p = Inputs.with_nonce (Inputs.suite "adpcm") "selftest" in
      let exp = Forayd.expected p in
      let srv = Forayd.start ~dir in
      Fun.protect
        ~finally:(fun () -> Forayd.stop srv)
        (fun () ->
          let c = Foray_serve.Serve.Client.connect srv.socket in
          let line =
            Foray_serve.Serve.Client.request c
              (Forayd.request "extract" p.source)
          in
          Foray_serve.Serve.Client.close c;
          let check line () =
            ignore
              (Oracle.wire ~what:"extract" ~cold:true ~field:"model"
                 ~expected:exp.model line)
          in
          expect ~accepts:true "wire model equals the in-process one"
            (check line);
          expect ~accepts:false "wire payload with one character altered"
            (check (alter_model line));
          expect ~accepts:false "cold response taken for a cache hit" (fun () ->
              ignore
                (Oracle.wire ~what:"extract" ~cold:false ~field:"model"
                   ~expected:exp.model line));
          expect ~accepts:false "one cache hit too many" (fun () ->
              Oracle.cache_delta ~hits:2 ~warm:1 ~misses:1 ~cold:1)))

let run () =
  verify_controls ();
  recursion_controls ();
  planted_controls ();
  wire_controls ();
  if !failures = 0 then (print_endline "selftest: all controls behave"; 0)
  else (Printf.printf "selftest: %d control(s) misbehave\n" !failures; 1)

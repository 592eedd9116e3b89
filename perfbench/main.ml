(* perfbench: runs one workload and prints one JSON result line.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe selftest

   With --trace 0 the run is untraced and reports the end-to-end metrics;
   with --trace 1 it reports the per-layer metrics from spans taken around
   each layer call (see layers.ml). [selftest] runs the oracles' negative
   controls. perfbench/README.md describes the workloads and metrics. *)

type metric = string * float * string

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else "null"
  in
  let ms =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

(* The set-up is timed [setup_reps] times before the first round and once
   more before every round, so its samples spread over the whole run as
   the operations' do; the median is reported. The first set-up's product
   is what the run uses; the repetitions record into their own directory. *)
let setup_reps = 3

let run_in_process workload ~seed ~seconds ~dir =
  let times = ref [] in
  let setup dir =
    let pres, t = Prep.timed (fun () -> Work.setup workload ~seed ~dir) in
    times := t.secs :: !times;
    pres
  in
  let pres = setup dir in
  let again = Prep.sub_dir dir "setup" in
  for _ = 2 to setup_reps do
    ignore (setup again)
  done;
  let ops = Work.ops workload ~seed pres in
  let o =
    Work.measure ~each_round:(fun () -> ignore (setup again)) ~seconds ops
  in
  ( o.attempted,
    o.failed,
    [ ("setup_s", Stat.median !times, "s") ]
    @ Work.rates o
    @ [ ("peak_rss_mb", Prep.peak_rss_mb (), "MB") ] )

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "selftest" ] then exit (Selftest.run ())
  else
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
          parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let workload = get "workload" in
    let seed = int_of_string (get "seed") in
    let seconds = float_of_string (get "seconds") in
    let trace = get "trace" = "1" in
    if not (List.mem workload Inputs.workloads) then begin
      Printf.eprintf "perfbench: unknown workload %s (known: %s)\n" workload
        (String.concat ", " Inputs.workloads);
      exit 2
    end;
    let dir = Prep.work_dir () in
    let outcome =
      Fun.protect
        ~finally:(fun () -> Prep.remove_dir dir)
        (fun () ->
          try
            Ok
              (if trace then Layers.run workload ~seed ~seconds ~dir
               else run_in_process workload ~seed ~seconds ~dir)
          with Oracle.Wrong msg -> Error msg)
    in
    match outcome with
    | Ok (attempted, failed, metrics) ->
        print_result ~correct:true ~attempted ~failed metrics
    | Error msg ->
        Printf.eprintf "perfbench: wrong output: %s\n%!" msg;
        print_result ~correct:false ~attempted:1 ~failed:0 [];
        exit 1

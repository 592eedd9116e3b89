(* Set-up shared by every workload: parse, check and annotate each
   program, then run it once through the interpreter into the benchmark's
   own counting sink (optionally recording a FORAYTR2 trace on the way).
   That pass also warms the interpreter before anything is timed. *)

module Event = Foray_trace.Event
module TF = Foray_trace.Tracefile

type t = {
  prog : Inputs.prog;
  loop_kinds : (int * string) list;
  events : int;  (** accesses + checkpoints *)
  accesses : int;
  trace : string option;  (** recorded FORAYTR2 file *)
}

(* Wall-clock time: the run's length and the daemon's latencies, which
   wait on another process. *)
let now = Unix.gettimeofday

(* The clock of in-process work: this process's CPU time (user + system).
   The benchmark does its timed work on one domain, so on an idle machine
   it reads as wall-clock time does; on a shared host it leaves out the
   time the process waits for a CPU the hypervisor gave to another guest
   (steal time), which moved wall-clock rates by a fifth between runs. *)
let cpu = Sys.time

type timing = {
  secs : float;  (** CPU seconds *)
  minor : int;  (** minor collections [f] made *)
  major : int;  (** major collections [f] made *)
}

(* Times [f] alone: the heap is compacted first so that every pass starts
   from the same heap, as a fresh process would. The collection counts
   are read after the compaction, so they hold [f]'s own collections. *)
let timed f =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = cpu () in
  let r = f () in
  let secs = cpu () -. t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      secs;
      minor = g1.minor_collections - g0.minor_collections;
      major = g1.major_collections - g0.major_collections;
    } )

(* Scratch files live under the checkout, one directory per process. *)
let work_dir () =
  let d = Filename.concat ".perfbench_work" (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists ".perfbench_work") then
    Sys.mkdir ".perfbench_work" 0o755;
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let sub_dir d name =
  let s = Filename.concat d name in
  if not (Sys.file_exists s) then Sys.mkdir s 0o755;
  s

let rec remove_dir d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let f = Filename.concat d f in
        if Sys.is_directory f then remove_dir f else Sys.remove f)
      (Sys.readdir d);
    Sys.rmdir d
  end

let parse (p : Inputs.prog) =
  let ast = Minic.Parser.program p.source in
  (match Minic.Sema.check ast with
  | Ok () -> ()
  | Error _ -> Oracle.fail "%s: program does not pass semantic checks" p.name);
  ast

let prepare ~config ?record (p : Inputs.prog) =
  let ast = parse p in
  let inst = Foray_instrument.Annotate.program ast in
  let loop_kinds = Foray_instrument.Annotate.loop_table ast in
  let events = ref 0 and accesses = ref 0 in
  let count = function
    | Event.Access _ ->
        incr events;
        incr accesses
    | Event.Checkpoint _ -> incr events
  in
  let run sink = Minic_sim.Interp.run ~config inst ~sink in
  let sim, trace =
    match record with
    | None -> (run count, None)
    | Some dir ->
        let path = Filename.concat dir (p.name ^ ".tr2") in
        let sim =
          TF.with_sink ~format:TF.Binary2 path (fun sink ->
              run (fun e ->
                  count e;
                  sink e))
        in
        (sim, Some path)
  in
  if sim.Minic_sim.Interp.stopped <> Minic_sim.Interp.Completed then
    Oracle.fail "%s: interpreter stopped on a budget" p.name;
  (match p.depth with
  | Some depth -> Oracle.recursion ~name:p.name ~depth sim.output
  | None -> ());
  { prog = p; loop_kinds; events = !events; accesses = !accesses; trace }

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

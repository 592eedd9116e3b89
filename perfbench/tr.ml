(* Span recorder for the traced run. Spans are taken from the benchmark's
   own code around each call into a layer: name, start, end, the CPU time
   spent inside it, the parent span that was open when it began, and the
   words the calling domain allocated inside it. Start and end are
   wall-clock and place the span on the trace's timeline; its duration,
   from which the per-layer times are taken, is CPU time (see
   [Prep.cpu]). They stay in memory and are written out once, as
   Chrome trace-event JSON, when the run ends. Only the main thread opens
   spans. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  cpu_s : float;
  alloc_words : float;
}

let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 1

let allocated_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* [span name f] runs [f] inside a span and returns its result with the
   span record. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> 0 in
  open_ids := id :: !open_ids;
  let a0 = allocated_words () in
  let t0 = Prep.now () and c0 = Prep.cpu () in
  let finish () =
    let t1 = Prep.now () and c1 = Prep.cpu () in
    let a1 = allocated_words () in
    open_ids := List.tl !open_ids;
    let s =
      { id; parent; name; t0; t1; cpu_s = c1 -. c0; alloc_words = a1 -. a0 }
    in
    spans := s :: !spans;
    s
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let dur s = s.cpu_s

(* A span's self time: its duration minus what its child spans cover. *)
let self_time s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. dur c else acc)
    (dur s) !spans

let write path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
         %.1f, \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"cpu_us\": %.1f, \"self_cpu_us\": %.1f, \"alloc_words\": %.0f}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent (dur s *. 1e6)
        (self_time s *. 1e6)
        s.alloc_words)
    all;
  output_string oc "]}\n";
  close_out oc

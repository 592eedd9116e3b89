(* The traced run. Phase one repeats the workload's own operations with a
   span around each, for the traced end-to-end figures (their gap to the
   untraced run is the tracing overhead). Phase two times each layer's
   public entry point in isolation on the workload's programs, one span
   per layer call, and drives a short-lived daemon for the Serve layer.
   Spans are written to .perfbench_work/spans-<workload>-<seed>.json. *)

module P = Foray_core.Pipeline
module Model = Foray_core.Model
module Looptree = Foray_core.Looptree
module Affine = Foray_core.Affine
module V = Foray_verify.Verify
module TF = Foray_trace.Tracefile
module Tstats = Foray_trace.Tstats
module Event = Foray_trace.Event
module Interp = Minic_sim.Interp
module Annotate = Foray_instrument.Annotate
module BA = Bigarray.Array1

(* Per-reference observations for Algorithm 3, derived by the benchmark
   from the event stream with its own loop-stack walk: each access is
   keyed by (loop context, site), and its iteration vector lists the
   iteration numbers of the open loops, innermost first. Stored flat,
   off the OCaml heap: [ref; addr; iters...] per access. *)
module Obs_stream = struct
  type t = {
    buf : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t;
    len : int;
    sites : int array;
    depths : int array;
  }

  let derive (events : Event.event array) =
    let buf = ref (BA.create Bigarray.int Bigarray.c_layout (1 lsl 16)) in
    let len = ref 0 in
    let push v =
      if !len = BA.dim !buf then begin
        let b = BA.create Bigarray.int Bigarray.c_layout (2 * !len) in
        BA.blit !buf (BA.sub b 0 !len);
        buf := b
      end;
      BA.unsafe_set !buf !len v;
      incr len
    in
    let cap = ref 64 in
    let node = ref (Array.make !cap 0)
    and lid = ref (Array.make !cap 0)
    and iter = ref (Array.make !cap 0) in
    let sp = ref 0 in
    let nodes = Hashtbl.create 64 and refs = Hashtbl.create 256 in
    let sites = ref [] and depths = ref [] and n_refs = ref 0 in
    let enter l =
      if !sp + 1 = !cap then begin
        let grow a = Array.append a (Array.make !cap 0) in
        node := grow !node;
        lid := grow !lid;
        iter := grow !iter;
        cap := 2 * !cap
      end;
      let key = (!node.(!sp), l) in
      let id =
        match Hashtbl.find_opt nodes key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length nodes + 1 in
            Hashtbl.add nodes key id;
            id
      in
      incr sp;
      !node.(!sp) <- id;
      !lid.(!sp) <- l;
      !iter.(!sp) <- -1
    in
    let find l =
      let j = ref !sp in
      while !j > 0 && !lid.(!j) <> l do
        decr j
      done;
      !j
    in
    Array.iter
      (function
        | Event.Checkpoint { loop; kind } -> (
            let j = find loop in
            match kind with
            | Event.Loop_enter -> enter loop
            | Event.Body_enter ->
                if j > 0 then sp := j else enter loop;
                !iter.(!sp) <- !iter.(!sp) + 1
            | Event.Body_exit -> if j > 0 then sp := j
            | Event.Loop_exit -> if j > 0 then sp := j - 1)
        | Event.Access a ->
            let key = (!node.(!sp), a.site) in
            let r =
              match Hashtbl.find_opt refs key with
              | Some r -> r
              | None ->
                  let r = !n_refs in
                  incr n_refs;
                  Hashtbl.add refs key r;
                  sites := a.site :: !sites;
                  depths := !sp :: !depths;
                  r
            in
            push r;
            push a.addr;
            for i = 0 to !sp - 1 do
              push !iter.(!sp - i)
            done)
      events;
    {
      buf = !buf;
      len = !len;
      sites = Array.of_list (List.rev !sites);
      depths = Array.of_list (List.rev !depths);
    }

  (* Feeds every observation to a fresh solver per reference; returns the
     number of observations. *)
  let replay o =
    let affs =
      Array.init (Array.length o.sites) (fun r ->
          Affine.create ~site:o.sites.(r) ~depth:o.depths.(r))
    in
    let max_depth = Array.fold_left max 0 o.depths in
    let scratch = Array.init (max_depth + 1) (fun d -> Array.make d 0) in
    let i = ref 0 and n = ref 0 in
    while !i < o.len do
      let r = BA.get o.buf !i in
      let addr = BA.get o.buf (!i + 1) in
      let d = o.depths.(r) in
      let it = scratch.(d) in
      for k = 0 to d - 1 do
        it.(k) <- BA.get o.buf (!i + 2 + k)
      done;
      Affine.observe affs.(r) ~iters:it ~addr;
      incr n;
      i := !i + 2 + d
    done;
    !n
end

(* Per-layer figures of one round, summed over the workload's programs. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)

let get (acc : acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.0

let materialize ~config inst =
  let l = ref [] in
  let sim = Interp.run ~config inst ~sink:(fun e -> l := e :: !l) in
  (sim, Array.of_list (List.rev !l))

let layer_chain ~config ~dir acc (p : Inputs.prog) =
  let d = Tr.dur in
  let ast, s = Tr.span "minic.parse" (fun () -> Prep.parse p) in
  add acc "minic.parse_s" (d s);
  let (inst, loop_kinds), s =
    Tr.span "annotate" (fun () -> (Annotate.program ast, Annotate.loop_table ast))
  in
  add acc "annotate.s" (d s);
  let sim, s =
    Tr.span "interp" (fun () -> Interp.run ~config inst ~sink:Event.null_sink)
  in
  add acc "interp.s" (d s);
  add acc "interp.steps" (float_of_int sim.steps);
  add acc "interp.alloc_words" s.alloc_words;
  let _, events = materialize ~config inst in
  let n = Array.length events in
  let tree, s =
    Tr.span "looptree" (fun () ->
        let t = Looptree.create () in
        Array.iter (Looptree.sink t) events;
        t)
  in
  add acc "looptree.s" (d s);
  add acc "looptree.events" (float_of_int n);
  add acc "looptree.alloc_words" s.alloc_words;
  add acc "looptree.nodes" (float_of_int (Looptree.n_nodes tree));
  let looptree_s = d s in
  let obs = Obs_stream.derive events in
  let count, s = Tr.span "affine.observe" (fun () -> Obs_stream.replay obs) in
  add acc "affine.observe_s" (d s);
  add acc "affine.observations" (float_of_int count);
  add acc "looptree.self_s" (looptree_s -. d s);
  let tstats, s =
    Tr.span "tstats" (fun () ->
        let t = Tstats.create () in
        Array.iter (Tstats.sink t) events;
        t)
  in
  add acc "tstats.s" (d s);
  add acc "tstats.alloc_words" s.alloc_words;
  let accesses =
    Array.fold_left
      (fun c -> function Event.Access _ -> c + 1 | Event.Checkpoint _ -> c)
      0 events
  in
  Oracle.conservation ~name:p.name ~counted:accesses
    ~tstats:(Tstats.total_accesses tstats) ~interp:sim.accesses;
  let model, s =
    Tr.span "model.of_tree" (fun () -> Model.of_tree ~loop_kinds tree)
  in
  add acc "model.of_tree_s" (d s);
  add acc "model.refs" (float_of_int (Model.n_refs model));
  let rep, s =
    Tr.span "verify" (fun () ->
        let sink, finish = V.sink model in
        Array.iter sink events;
        finish ())
  in
  add acc "verify.replay_s" (d s);
  add acc "verify.alloc_words" s.alloc_words;
  Oracle.all_proved ~name:p.name rep;
  let path = Filename.concat dir (p.name ^ ".layers.tr2") in
  let (), s =
    Tr.span "tracefile.encode" (fun () ->
        TF.with_sink ~format:TF.Binary2 path (fun sink -> Array.iter sink events))
  in
  add acc "tracefile.encode_s" (d s);
  add acc "tracefile.v2_bytes" (float_of_int (Unix.stat path).st_size);
  let (m, decoded), s =
    Tr.span "tracefile.decode" (fun () ->
        let m = TF.map path in
        let c = ref 0 in
        TF.iter_mapped m (fun _ -> incr c);
        (m, !c))
  in
  add acc "tracefile.decode_s" (d s);
  Oracle.decoded ~name:p.name ~recorded:n ~decoded;
  (* The shard path of [Pipeline.analyze_mapped], one call at a time on
     this domain: the slowest walk is what two domains would wait for. *)
  let walks =
    List.map
      (fun (fs : TF.fshard) ->
        let r, s =
          Tr.span "shard.walk" (fun () ->
              let t = Looptree.create ~mergeable:true () in
              Looptree.restore_context t fs.fs_context;
              let st = Tstats.create () in
              TF.iter_fshard m fs (fun e ->
                  Looptree.sink t e;
                  Tstats.sink st e);
              if fs.fs_index = 0 then Looptree.finalize t;
              (t, st))
        in
        (r, d s))
      (TF.frame_shards ~n:2 m)
  in
  add acc "shard.walk_max_s" (List.fold_left (fun a (_, t) -> max a t) 0.0 walks);
  let (merged, _), s =
    Tr.span "shard.merge" (fun () ->
        let parts = List.map fst walks in
        ( Looptree.merge_all ~jobs:1 (List.map fst parts),
          match List.map snd parts with
          | [] -> Tstats.create ()
          | x :: r -> List.fold_left Tstats.merge x r ))
  in
  add acc "shard.merge_s" (d s);
  let (), s =
    Tr.span "shard.finalize" (fun () -> Looptree.finalize ~jobs:1 merged)
  in
  add acc "shard.finalize_s" (d s);
  let text = Model.to_c model in
  Oracle.same_text ~what:(p.name ^ " sharded model") text
    (Model.to_c (Model.of_tree ~loop_kinds merged));
  Sys.remove path;
  (* The composed online run, against the sum of its parts timed alone. *)
  let online, s = Tr.span "online" (fun () -> P.run_source ~config p.source) in
  (match online with
  | Ok o ->
      Oracle.same_text ~what:(p.name ^ " online model") text
        (Model.to_c o.result.model)
  | Error e -> Oracle.fail "%s: %s" p.name (Foray_core.Error.to_string e));
  add acc "event.compose_overhead_s" (d s)

(* [event.compose_overhead_s] holds the online runs until here; subtract
   the isolated parts it is made of. *)
let compose_overhead acc =
  get acc "event.compose_overhead_s"
  -. List.fold_left
       (fun a k -> a +. get acc k)
       0.0
       [ "minic.parse_s"; "annotate.s"; "interp.s"; "looptree.s"; "tstats.s";
         "model.of_tree_s" ]

(* The Serve layer: a daemon started for this phase, two cold pairs on
   fresh sources, then warm requests served from its cache. *)
let warm_extracts = 30
let warm_verifies = 10

let serve_phase ~dir ~exp ~round acc (p : Inputs.prog) =
  let srv = Forayd.start ~dir in
  Fun.protect
    ~finally:(fun () -> Forayd.stop srv)
    (fun () ->
      let before = Forayd.cache_counts srv in
      let conn = Foray_serve.Serve.Client.connect srv.socket in
      let lat, _ =
        Tr.span "serve" (fun () ->
            Fun.protect
              ~finally:(fun () -> Foray_serve.Serve.Client.close conn)
              (fun () ->
                let src i =
                  let nonce = Printf.sprintf "layers-%d-%d" round i in
                  (Inputs.with_nonce p nonce).source
                in
                let send k i = Forayd.send conn ~exp k (src i) in
                let cold =
                  List.concat_map
                    (fun i ->
                      [ send Forayd.Cold_extract i; send Forayd.Cold_verify i ])
                    [ 0; 1 ]
                in
                let warm =
                  List.init warm_extracts (fun _ -> send Forayd.Warm_extract 1)
                  @ List.init warm_verifies (fun _ -> send Forayd.Warm_verify 1)
                in
                cold @ warm))
      in
      let h0, m0 = before in
      Forayd.check_cache srv ~before lat;
      let h1, m1 = Forayd.cache_counts srv in
      add acc "serve.cache_hits" (float_of_int (h1 - h0));
      add acc "serve.cache_misses" (float_of_int (m1 - m0));
      add acc "serve.overhead_ms"
        (Stat.median (List.map (fun (_, ms, dms) -> ms -. dms) lat));
      add acc "serve.daemon_ms_p50"
        (Stat.median
           (List.filter_map
              (fun (k, _, dms) ->
                if k = Forayd.Cold_extract then Some dms else None)
              lat));
      add acc "serve.warm_p50_ms"
        (Stat.median (Forayd.of_kind Forayd.Warm_extract lat)))

(* The per-layer metrics: name, unit, and how to read it from a round. *)
let metrics =
  let g k acc = get acc k in
  let per a b acc = get acc a /. get acc b in
  [
    ("minic.parse_s", "s", g "minic.parse_s");
    ("annotate.s", "s", g "annotate.s");
    ("interp.s", "s", g "interp.s");
    ("interp.steps_per_s", "1/s", per "interp.steps" "interp.s");
    ("interp.alloc_words", "words", g "interp.alloc_words");
    ("event.compose_overhead_s", "s", g "event.compose_overhead_s");
    ("looptree.s", "s", g "looptree.s");
    ("looptree.self_s", "s", g "looptree.self_s");
    ("looptree.events_per_s", "1/s", per "looptree.events" "looptree.s");
    ("looptree.alloc_words", "words", g "looptree.alloc_words");
    ("looptree.nodes", "count", g "looptree.nodes");
    ("affine.observe_s", "s", g "affine.observe_s");
    ("affine.observations", "count", g "affine.observations");
    ("tstats.s", "s", g "tstats.s");
    ("tstats.alloc_words", "words", g "tstats.alloc_words");
    ("model.of_tree_s", "s", g "model.of_tree_s");
    ("model.refs", "count", g "model.refs");
    ("verify.replay_s", "s", g "verify.replay_s");
    ("verify.events_per_s", "1/s", per "looptree.events" "verify.replay_s");
    ("verify.alloc_words", "words", g "verify.alloc_words");
    ("tracefile.encode_s", "s", g "tracefile.encode_s");
    ( "tracefile.decode_events_per_s",
      "1/s",
      per "looptree.events" "tracefile.decode_s" );
    ("tracefile.v2_bytes", "bytes", g "tracefile.v2_bytes");
    ("shard.walk_max_s", "s", g "shard.walk_max_s");
    ("shard.merge_s", "s", g "shard.merge_s");
    ("shard.finalize_s", "s", g "shard.finalize_s");
    ("serve.overhead_ms", "ms", g "serve.overhead_ms");
    ("serve.daemon_ms_p50", "ms", g "serve.daemon_ms_p50");
    ("serve.warm_p50_ms", "ms", g "serve.warm_p50_ms");
    ("serve.cache_hits", "count", g "serve.cache_hits");
    ("serve.cache_misses", "count", g "serve.cache_misses");
    ("gc.minor_collections", "count", g "gc.minor_collections");
    ("gc.major_collections", "count", g "gc.major_collections");
    ("traced.extract_events_per_s", "1/s", g "traced.extract_events_per_s");
    ("traced.verify_events_per_s", "1/s", g "traced.verify_events_per_s");
    ("traced.ops_per_s", "1/s", g "traced.ops_per_s");
  ]

(* Phase one: the workload's operations, traced. Returns attempted and
   failed counts and fills the traced end-to-end figures and the GC
   counts per round into [acc]. The collections are those of the timed
   operations alone: set-up and the compaction before each operation are
   left out. *)
let traced_ops workload ~seed ~seconds ~dir acc =
  let pres = Work.setup workload ~seed ~dir in
  let ops = Work.ops workload ~seed pres in
  let o =
    Work.measure
      ~around:(fun op f ->
        fst (Tr.span (op.Work.label ^ ":" ^ op.pre.prog.name) f))
      ~seconds ops
  in
  List.iter (fun (n, v, _) -> add acc ("traced." ^ n) v) (Work.rates o);
  let per_round f =
    let n = List.fold_left (fun a (s : Work.sample) -> a + f s.t) 0 o.samples in
    float_of_int n /. float_of_int o.rounds
  in
  add acc "gc.minor_collections" (per_round (fun t -> t.Prep.minor));
  add acc "gc.major_collections" (per_round (fun t -> t.Prep.major));
  (o.attempted, o.failed)

let run workload ~seed ~seconds ~dir =
  let t_start = Prep.now () in
  let config = Inputs.config ~seed in
  let programs = Inputs.programs workload ~seed in
  let top = Hashtbl.create 64 in
  let attempted, failed =
    traced_ops workload ~seed ~seconds:(seconds /. 2.0) ~dir top
  in
  (* The daemon runs the smallest program of the workload. *)
  let probe =
    let sized =
      List.map (fun p -> ((Prep.prepare ~config p).events, p)) programs
    in
    snd (List.hd (List.sort (fun (a, _) (b, _) -> compare a b) sized))
  in
  let exp = Forayd.expected probe in
  let rounds = ref [] in
  let t_layers = Prep.now () in
  let go_on () =
    !rounds = []
    ||
    let n = float_of_int (List.length !rounds) in
    Prep.now () -. t_start +. (0.5 *. (Prep.now () -. t_layers) /. n) < seconds
  in
  while go_on () do
    let acc = Hashtbl.create 64 in
    let round = List.length !rounds in
    ignore
      (Tr.span "layers" (fun () ->
           List.iter
             (fun (p : Inputs.prog) ->
               ignore
                 (Tr.span ("program:" ^ p.name) (fun () ->
                      layer_chain ~config ~dir acc p)))
             programs;
           serve_phase ~dir ~exp ~round acc probe));
    Hashtbl.replace acc "event.compose_overhead_s" (compose_overhead acc);
    rounds := acc :: !rounds
  done;
  (* Phase one's figures are the same for every round. *)
  List.iter (fun acc -> Hashtbl.iter (Hashtbl.replace acc) top) !rounds;
  let out =
    List.map
      (fun (name, unit, f) -> (name, Stat.median (List.map f !rounds), unit))
      metrics
  in
  Tr.write
    (Printf.sprintf ".perfbench_work/spans-%s-%d.json" workload seed);
  (attempted, failed, out)

(* The programs each workload runs, all derived from the seed. The
   MiBench analogues are the three whose passes are short enough (under
   1.2 s) for a run to time each operation several times; jpeg, susan and
   fft would leave one or two passes per run. *)

type prog = {
  name : string;
  source : string;
  planted : int list list option;
      (** coefficients a generated program must yield (Progen) *)
  depth : int option;  (** recursion depth; the program prints it *)
}

let suite name =
  match Foray_suite.Suite.find name with
  | Some b -> { name; source = b.source; planted = None; depth = None }
  | None -> invalid_arg ("unknown suite program " ^ name)

(* Progen programs with four loop nests, each planted with the affine
   coefficients its accesses obey. *)
let progen ~seed i =
  let g = Foray_util.Progen.generate ~seed:((seed * 7919) + i) ~nests:4 in
  {
    name = Printf.sprintf "progen-%d" i;
    source = g.source;
    planted =
      Some (List.map (fun (p : Foray_util.Progen.planted) -> p.terms) g.planted);
    depth = None;
  }

(* [f(n) = 1 + f(n - 1)]: one frame per level and nothing for the loop
   analyzers to do. *)
let deep_rec depth =
  {
    name = "rec";
    source =
      Printf.sprintf
        "int f(int n) {\n\
        \  if (n == 0) {\n\
        \    return 0;\n\
        \  }\n\
        \  return 1 + f(n - 1);\n\
         }\n\n\
         int main() {\n\
        \  print_int(f(%d));\n\
        \  return 0;\n\
         }\n"
        depth;
    planted = None;
    depth = Some depth;
  }

(* The same recursion with a four-iteration loop in every frame, so each
   level enters a fresh loop-tree context under a deep stack. *)
let deep_loop depth =
  {
    name = "loop-rec";
    source =
      Printf.sprintf
        "int buf[8];\n\n\
         int g(int n) {\n\
        \  int i;\n\
        \  if (n == 0) {\n\
        \    return 0;\n\
        \  }\n\
        \  for (i = 0; i < 4; i++) {\n\
        \    buf[i] = buf[i] + n;\n\
        \  }\n\
        \  return 1 + g(n - 1);\n\
         }\n\n\
         int main() {\n\
        \  print_int(g(%d));\n\
        \  return 0;\n\
         }\n"
        depth;
    planted = None;
    depth = Some depth;
  }

(* A comment after the program makes a fresh source digest (a daemon cache
   miss) for identical work. *)
let with_nonce (p : prog) nonce =
  { p with source = Printf.sprintf "%s\n// nonce %s\n" p.source nonce }

let programs workload ~seed =
  let s = abs seed in
  match workload with
  | "suite-online" ->
      [ suite "lame"; suite "gsm"; suite "adpcm"; progen ~seed 0;
        progen ~seed 1; progen ~seed 2 ]
  | "trace-replay" -> [ suite "lame"; suite "gsm"; suite "adpcm" ]
  | "deep-calls" ->
      [ deep_rec (100_000 + (s mod 97)); deep_loop (10_000 + (s mod 97)) ]
  | w -> invalid_arg ("unknown workload " ^ w)

let workloads = [ "suite-online"; "trace-replay"; "deep-calls" ]

(* The interpreter's [mc_rand] input stream comes from the seed too. *)
let config ~seed = { Minic_sim.Interp.default_config with rand_seed = abs seed }

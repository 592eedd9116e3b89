(* Output oracles. Each expectation is computed by the benchmark from its
   own inputs -- a counting sink, the closed form of a generated program,
   the coefficients a generator planted, an in-process run compared with
   the wire -- never from a stored copy of an earlier output. A failed
   check raises [Wrong]; the run then reports [correct: false]. *)

module Model = Foray_core.Model
module V = Foray_verify.Verify
module Json = Foray_serve.Json

exception Wrong of string

let fail fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

(* Every count of the program's memory accesses must be the same: the
   benchmark's own counting sink, the trace statistics and the
   interpreter's counter. *)
let conservation ~name ~counted ~tstats ~interp =
  if tstats <> counted || interp <> counted then
    fail "%s: access counts differ: counted %d, tstats %d, interp %d" name
      counted tstats interp

let all_proved ~name (r : V.report) =
  if V.diverged r <> 0 || V.proved r <> List.length r.V.refs then
    fail "%s: %d of %d reference(s) diverge" name (V.diverged r)
      (List.length r.V.refs)

(* A verify report: every reference proves, and the verifier saw every
   access the counting sink did. *)
let verified ~name ~counted (r : V.report) =
  all_proved ~name r;
  if r.V.events <> counted then
    fail "%s: verify saw %d accesses, counted %d" name r.V.events counted

let term_multiset model =
  Model.all_refs model
  |> List.map (fun (_, (r : Model.mref)) -> List.map fst r.terms)
  |> List.sort compare

(* A generated program must yield exactly the coefficients planted in it. *)
let planted ~name ~(planted : int list list) model =
  if term_multiset model <> List.sort compare planted then
    fail "%s: recovered coefficients differ from the planted ones" name

(* [f(n) = 1 + f(n - 1)], [f(0) = 0]: the program prints [n]. *)
let closed_form depth = depth

let recursion ~name ~depth output =
  if output <> [ closed_form depth ] then
    fail "%s: printed %s, expected %d" name
      (String.concat "," (List.map string_of_int output))
      (closed_form depth)

let same_text ~what a b = if a <> b then fail "%s: outputs differ" what

let decoded ~name ~recorded ~decoded =
  if recorded <> decoded then
    fail "%s: recorded %d events, decoded %d" name recorded decoded

(* One daemon response: [ok], the cache flag the request kind implies, and
   the [field] payload equal to the in-process result for the same
   source. Returns the parsed response. *)
let wire ~what ~cold ~field ~expected line =
  match Json.parse line with
  | Error e -> fail "%s: response is not JSON (%s)" what e
  | Ok j ->
      if Json.member "status" j <> Some (Json.Str "ok") then
        fail "%s: status is not ok: %s" what line;
      if Json.member "cached" j <> Some (Json.Bool (not cold)) then
        fail "%s: expected cached=%b" what (not cold);
      if Json.member field j <> Some expected then
        fail "%s: %s differs from the in-process result" what field;
      j

let cache_delta ~hits ~warm ~misses ~cold =
  if hits <> warm || misses <> cold then
    fail "cache: %d hit(s) for %d warm request(s), %d miss(es) for %d cold"
      hits warm misses cold

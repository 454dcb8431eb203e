type manual = { mutable at_ms : float }

(* A variant rather than a closure: a read writes its float straight into
   the caller's array ({!write}), so a profiled span boxes nothing. *)
type t = Cpu | Manual of manual

(* The one blessed wall-clock read: everything else in the tree obtains
   time through a [t], so substituting [manual] makes a run deterministic. *)
let now_ms = function
  | Cpu -> Sys.time () *. 1000.0
  | Manual m -> m.at_ms
[@@lint.allow "determinism-clock"]

let write t a i =
  match t with
  | Cpu -> a.(i) <- Sys.time () *. 1000.0
  | Manual m -> a.(i) <- m.at_ms
[@@lint.allow "determinism-clock"]

let cpu = Cpu

let manual ?(start = 0.0) () =
  let m = { at_ms = start } in
  (Manual m, m)
[@@lint.allow "test fake: test/test_obs.ml"]

let advance m ms =
  if ms < 0.0 then invalid_arg "Clock.advance: negative step";
  m.at_ms <- m.at_ms +. ms
[@@lint.allow "test fake: test/test_obs.ml"]

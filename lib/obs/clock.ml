type t = { now_ms : unit -> float }

let now_ms t = t.now_ms ()

(* The one blessed wall-clock read: everything else in the tree obtains
   time through a [t], so substituting [manual] makes a run deterministic. *)
let cpu = { now_ms = (fun () -> Sys.time () *. 1000.0) } [@@lint.allow "determinism-clock"]

type manual = { mutable at_ms : float }

let manual ?(start = 0.0) () =
  let m = { at_ms = start } in
  ({ now_ms = (fun () -> m.at_ms) }, m)
[@@lint.allow "test fake: test/test_obs.ml"]

let advance m ms =
  if ms < 0.0 then invalid_arg "Clock.advance: negative step";
  m.at_ms <- m.at_ms +. ms
[@@lint.allow "test fake: test/test_obs.ml"]

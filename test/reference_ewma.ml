(* The EWMA filter the float columns replaced, kept as the differential
   oracle for the arithmetic they run in place: Dream_tasks.Task's smoothed
   accuracies and Dream_tasks.Monitor's CD means.  The average lives in a
   mutable record with a [seeded] flag standing in for [None]; [codec]
   writes Dream_util.Ewma's checkpoint lines.  Only the tests use it. *)

module Ewma = Dream_util.Ewma

type t = { history : float; mutable seeded : bool; mutable avg : float }

let create ~history =
  if history < 0.0 || history >= 1.0 then invalid_arg "Ewma.create: history must be in [0, 1)";
  { history; seeded = false; avg = 0.0 }

let update t x =
  let v =
    if t.seeded then (t.history *. t.avg) +. ((1.0 -. t.history) *. x) else x
  in
  t.avg <- v;
  t.seeded <- true;
  v

let value t = if t.seeded then Some t.avg else None

let value_or t default = if t.seeded then t.avg else default

let scale t k = if t.seeded then t.avg <- t.avg *. k

let restore ~history ~avg =
  if history < 0.0 || history >= 1.0 then invalid_arg "Ewma.restore: history must be in [0, 1)";
  match avg with
  | None -> { history; seeded = false; avg = 0.0 }
  | Some v -> { history; seeded = true; avg = v }

let codec ~history =
  Dream_util.Codec.conv
    (fun e -> restore ~history ~avg:(Ewma.value e))
    (fun t -> Ewma.restore ~history ~avg:(value t))
    (Ewma.codec ~history)

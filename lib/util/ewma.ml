(* The average lives unboxed in a mutable float field with a [seeded]
   flag standing in for [None]: [update]/[scale] run on the controller's
   per-task, per-switch hot path and must not allocate an option per
   call.  Only the [value]/[restore] edges of the API touch options. *)
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

let value t =
  if t.seeded then Some t.avg else None

let value_or t default = if t.seeded then t.avg else default

let scale t k = if t.seeded then t.avg <- t.avg *. k

let restore ~history ~avg =
  if history < 0.0 || history >= 1.0 then invalid_arg "Ewma.restore: history must be in [0, 1)";
  match avg with
  | None -> { history; seeded = false; avg = 0.0 }
  | Some v -> { history; seeded = true; avg = v }

let codec ~history =
  Codec.(
    record
      (let+ avg = field (option "avg" (float "avg")) value in
       restore ~history ~avg))

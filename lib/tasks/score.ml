let of_counter (spec : Task_spec.t) (c : Counter.t) =
  let threshold = spec.Task_spec.threshold in
  let wildcards = Counter.wildcards c ~leaf_length:spec.Task_spec.leaf_length in
  let denominator = float_of_int (wildcards + 1) in
  (* A prefix whose volume does not exceed the threshold cannot contain a
     heavy hitter or HHH, so drilling under it buys no accuracy: score it
     zero rather than waste TCAM entries on it.  Change detection floors at
     an eighth of the threshold instead: sub-threshold deviations still
     guide the drill toward volatile regions (so leaf-level history exists
     when a change erupts), but dead-calm regions attract no entries.
     A change's deviation persists for several epochs under the EWMA mean,
     which is what lets a post-change drill still catch it. *)
  match spec.Task_spec.kind with
  | Task_spec.Heavy_hitter ->
    if c.Counter.total <= threshold then 0.0 else c.Counter.total /. denominator
  | Task_spec.Hierarchical_heavy_hitter ->
    if c.Counter.total <= threshold then 0.0 else c.Counter.total
  | Task_spec.Change_detection ->
    let deviation = Counter.cd_deviation c in
    if deviation <= threshold /. 8.0 then 0.0 else deviation /. denominator

(* Fresh counters keep their inherited half-of-parent score: their volumes
   have not been measured yet. *)
let rescore spec (c : Counter.t) = if not c.fresh then c.score <- of_counter spec c

let apply monitor = Monitor.iter (rescore (Monitor.spec monitor)) monitor

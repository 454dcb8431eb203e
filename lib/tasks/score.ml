let of_slot monitor i =
  let spec = Monitor.spec monitor in
  let threshold = spec.Task_spec.threshold in
  let wildcards = Monitor.wildcards monitor i in
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
    let total = Monitor.total monitor i in
    if total <= threshold then 0.0 else total /. denominator
  | Task_spec.Hierarchical_heavy_hitter ->
    let total = Monitor.total monitor i in
    if total <= threshold then 0.0 else total
  | Task_spec.Change_detection ->
    let deviation = Monitor.cd_deviation monitor i in
    if deviation <= threshold /. 8.0 then 0.0 else deviation /. denominator

(* Fresh counters keep their inherited half-of-parent score: their volumes
   have not been measured yet. *)
let apply monitor =
  for i = 0 to Monitor.num_counters monitor - 1 do
    if not (Monitor.fresh monitor i) then Monitor.set_score monitor i (of_slot monitor i)
  done

(* The per-slot definition of a counter's score (Table 1), read through
   Monitor's accessors: the oracle of Score.apply, which writes the whole
   score column in one pass.  Only the tests use it. *)

module Monitor = Monitor_views
module Task_spec = Dream_tasks.Task_spec

let of_slot monitor i =
  let spec = Monitor.spec monitor in
  let threshold = spec.Task_spec.threshold in
  let wildcards = Monitor.wildcards monitor i in
  let denominator = float_of_int (wildcards + 1) in
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

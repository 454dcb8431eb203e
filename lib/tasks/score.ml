(* Every counter that is not fresh, scored straight into the score column
   from the [totals] and [means] columns, with nothing boxed on the way.
   Fresh counters keep their inherited half-of-parent score: their volumes
   have not been measured yet.

   A prefix whose volume does not exceed the threshold cannot contain a
   heavy hitter or HHH, so drilling under it buys no accuracy: score it
   zero rather than waste TCAM entries on it.  Change detection floors at
   an eighth of the threshold instead: sub-threshold deviations still
   guide the drill toward volatile regions (so leaf-level history exists
   when a change erupts), but dead-calm regions attract no entries.  A
   change's deviation persists for several epochs under the EWMA mean,
   which is what lets a post-change drill still catch it. *)
let apply (monitor : Monitor.t) =
  let spec = monitor.spec in
  let threshold = spec.Task_spec.threshold in
  let totals = monitor.totals and means = monitor.means and scores = monitor.scores in
  for i = 0 to Monitor.num_counters monitor - 1 do
    if not (Monitor.fresh monitor i) then begin
      let denominator =
        (float_of_int (Monitor.wildcards monitor i + 1)
        [@alloc.allow "an operand of the division below, which ocamlopt keeps unboxed"])
      in
      let total = totals.(i) in
      scores.(i) <-
        (match spec.Task_spec.kind with
        | Task_spec.Heavy_hitter -> if total <= threshold then 0.0 else total /. denominator
        | Task_spec.Hierarchical_heavy_hitter -> if total <= threshold then 0.0 else total
        | Task_spec.Change_detection ->
          let deviation =
            Float.abs (total -. if Monitor.seeded monitor i then means.(i) else total)
          in
          if deviation <= threshold /. 8.0 then 0.0 else deviation /. denominator)
    end
  done

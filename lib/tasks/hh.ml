(* An exact counter over the threshold is a heavy hitter. *)
let add_detection (spec : Task_spec.t) (c : Counter.t) items =
  if Counter.is_exact c ~leaf_length:spec.leaf_length && c.total > spec.threshold then
    { Report.prefix = c.prefix; magnitude = c.total } :: items
  else items

let report monitor ~epoch =
  let spec = Monitor.spec monitor in
  { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection spec) monitor [] }

let total (c : Counter.t) = c.total

let estimate monitor ~allocations =
  Recall_estimator.estimate monitor ~allocations ~magnitude_total:total
    ~magnitude_on:Counter.volume_on

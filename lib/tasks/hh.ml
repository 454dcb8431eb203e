(* An exact counter over the threshold is a heavy hitter. *)
let add_detection monitor i items =
  let total = Monitor.total monitor i in
  if Monitor.is_exact monitor i && total > (Monitor.spec monitor).Task_spec.threshold then
    { Report.prefix = Monitor.prefix monitor i; magnitude = total } :: items
  else items

let report monitor ~epoch =
  let spec = Monitor.spec monitor in
  { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection monitor) monitor [] }

let estimate monitor ~allocations =
  Recall_estimator.estimate monitor ~allocations ~magnitude_total:Monitor.total
    ~magnitude_on:Monitor.volume_on

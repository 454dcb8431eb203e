(* An exact counter deviating from its mean by more than the threshold is a
   significant change. *)
let add_detection monitor i items =
  let deviation = Monitor.cd_deviation monitor i in
  if Monitor.is_exact monitor i && deviation > (Monitor.spec monitor).Task_spec.threshold then
    { Report.prefix = Monitor.prefix monitor i; magnitude = deviation } :: items
  else items

let report monitor ~epoch =
  let spec = Monitor.spec monitor in
  { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection monitor) monitor [] }

(* Per-switch means are not tracked; apportion the total deviation by the
   switch's share of the counter's volume. *)
let deviation_on monitor i b =
  let deviation = Monitor.cd_deviation monitor i in
  let total = Monitor.total monitor i in
  if total <= 0.0 then begin
    let n = Monitor.switch_count monitor i in
    if n = 0 then 0.0 else deviation /. float_of_int n
  end
  else deviation *. (Monitor.volume_on monitor i b /. total)

let estimate monitor ~allocations =
  Recall_estimator.estimate monitor ~allocations ~magnitude_total:Monitor.cd_deviation
    ~magnitude_on:deviation_on

let finish_epoch monitor = Monitor.update_means monitor

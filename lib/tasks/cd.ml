(* An exact counter deviating from its mean by more than the threshold is a
   significant change. *)
let add_detection (spec : Task_spec.t) (c : Counter.t) items =
  let deviation = Counter.cd_deviation c in
  if Counter.is_exact c ~leaf_length:spec.leaf_length && deviation > spec.threshold then
    { Report.prefix = c.prefix; magnitude = deviation } :: items
  else items

let report monitor ~epoch =
  let spec = Monitor.spec monitor in
  { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection spec) monitor [] }

(* Per-switch means are not tracked; apportion the total deviation by the
   switch's share of the counter's volume. *)
let deviation_on (c : Counter.t) sw =
  let deviation = Counter.cd_deviation c in
  if c.total <= 0.0 then begin
    let n = Dream_traffic.Switch_id.Set.cardinal c.switches in
    if n = 0 then 0.0 else deviation /. float_of_int n
  end
  else deviation *. (Counter.volume_on c sw /. c.total)

let estimate monitor ~allocations =
  Recall_estimator.estimate monitor ~allocations ~magnitude_total:Counter.cd_deviation
    ~magnitude_on:deviation_on

let finish_epoch monitor = Monitor.iter Counter.update_mean monitor

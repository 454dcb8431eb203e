module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate
module Flow = Dream_traffic.Flow
module Task_spec = Dream_tasks.Task_spec
module Ground_truth = Dream_tasks.Ground_truth
module Items = Dream_tasks.Items

type t = {
  spec : Task_spec.t;
  sketch : Count_min.t;
  candidates : (int, unit) Hashtbl.t; (* keys seen this epoch *)
}

let create ~spec ~cells ?(depth = 4) ~seed () =
  if cells < depth then invalid_arg "Sketch_hh.create: fewer cells than rows";
  let width = max 1 (cells / depth) in
  { spec; sketch = Count_min.create ~width ~depth ~seed; candidates = Hashtbl.create 256 }

let key_of t addr =
  Prefix.bits (Prefix.ancestor_at (Prefix.of_address addr) t.spec.Task_spec.leaf_length)

let observe_epoch t aggregate =
  Count_min.reset t.sketch;
  Hashtbl.reset t.candidates;
  let filter = t.spec.Task_spec.filter in
  List.iter
    (fun (f : Flow.t) ->
      let key = key_of t f.Flow.addr in
      Count_min.update t.sketch ~key f.Flow.volume;
      Hashtbl.replace t.candidates key ())
    (Aggregate.flows_in aggregate filter)

let detections t =
  let threshold = t.spec.Task_spec.threshold in
  Hashtbl.fold
    (fun key () acc ->
      let estimate = Count_min.estimate t.sketch ~key in
      if estimate > threshold then (key, estimate) :: acc else acc)
    t.candidates []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let real_accuracy t aggregate ~precision =
  let truth = Ground_truth.true_heavy_hitters t.spec aggregate in
  let reported =
    Items.of_keys
      (List.map
         (fun (key, _) ->
           Prefix.key (Prefix.make ~bits:key ~length:t.spec.Task_spec.leaf_length))
         (detections t))
  in
  let hits = Items.common reported truth in
  let denominator = if precision then Items.length reported else Items.length truth in
  if denominator = 0 then 1.0 else float_of_int hits /. float_of_int denominator

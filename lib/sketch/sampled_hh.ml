module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate
module Flow = Dream_traffic.Flow
module Task_spec = Dream_tasks.Task_spec
module Ground_truth = Dream_tasks.Ground_truth
module Items = Dream_tasks.Items

type t = {
  spec : Task_spec.t;
  budget : int;
  rng : Rng.t;
  mutable sampled : (int * float) list; (* (leaf key, sampled volume) *)
  mutable rate : float; (* sampling rate used this epoch *)
}

let create ~spec ~budget ~seed () =
  if budget <= 0 then invalid_arg "Sampled_hh.create: budget must be positive";
  { spec; budget; rng = Rng.create seed; sampled = []; rate = 1.0 }

let key_of t addr =
  Prefix.bits (Prefix.ancestor_at (Prefix.of_address addr) t.spec.Task_spec.leaf_length)

let observe_epoch t aggregate =
  let flows = Aggregate.flows_in aggregate t.spec.Task_spec.filter in
  let total = List.length flows in
  (* Uniform flow sampling at the rate that fits the record budget. *)
  let rate = if total <= t.budget then 1.0 else float_of_int t.budget /. float_of_int total in
  t.rate <- rate;
  let table = Hashtbl.create 256 in
  List.iter
    (fun (f : Flow.t) ->
      if rate >= 1.0 || Rng.bernoulli t.rng rate then begin
        let key = key_of t f.Flow.addr in
        let existing = match Hashtbl.find_opt table key with Some v -> v | None -> 0.0 in
        Hashtbl.replace table key (existing +. f.Flow.volume)
      end)
    flows;
  t.sampled <- Hashtbl.fold (fun key v acc -> (key, v) :: acc) table []

let detections t =
  let threshold = t.spec.Task_spec.threshold in
  List.filter_map
    (fun (key, sampled_volume) ->
      let scaled = sampled_volume /. t.rate in
      if scaled > threshold then Some (key, scaled) else None)
    t.sampled
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

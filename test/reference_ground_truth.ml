(* The set-based ground truth the key-column one replaced, kept as the
   differential oracle for Dream_tasks.Ground_truth: leaf volumes in a hash
   table, the HHH truth walk over Prefix.children, CD means in a second
   hash table, hits as a Prefix.Set intersection.  Only the tests use it. *)

module Task_spec = Dream_tasks.Task_spec
module Report = Dream_tasks.Report
module Prefix = Prefix_ops
module Aggregate = Dream_traffic.Aggregate
module Epoch_data = Dream_traffic.Epoch_data

type t = {
  spec : Task_spec.t;
  cd_means : (Prefix.t, float) Hashtbl.t; (* leaf prefix -> EWMA mean volume *)
}

let create spec = { spec; cd_means = Hashtbl.create 256 }

type truth = { true_items : Prefix.Set.t; real_accuracy : float }

(* The oracle's checkpoint text, field by field. *)
let emit t =
  let module C = Dream_util.Codec in
  let means =
    Hashtbl.fold (fun p m acc -> (p, m) :: acc) t.cd_means []
    |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
  in
  String.concat ""
    ("[ground_truth]\n"
    :: C.encode (C.int "cd_means") (List.length means)
    :: List.map
         (fun (p, m) ->
           C.encode (C.string "prefix") (Prefix.to_string p) ^ C.encode (C.float "mean") m)
         means)

let leaf_of (spec : Task_spec.t) addr =
  Prefix.ancestor_at (Prefix.of_address addr) spec.Task_spec.leaf_length

(* Volumes per leaf prefix under the filter, each leaf's float sum
   accumulated in ascending address order. *)
let leaf_volumes (spec : Task_spec.t) aggregate =
  let volumes = Hashtbl.create 256 in
  List.iter
    (fun (f : Dream_traffic.Flow.t) ->
      let leaf = leaf_of spec f.Dream_traffic.Flow.addr in
      let existing = match Hashtbl.find_opt volumes leaf with Some v -> v | None -> 0.0 in
      Hashtbl.replace volumes leaf (existing +. f.Dream_traffic.Flow.volume))
    (Aggregate.flows_in aggregate spec.Task_spec.filter);
  volumes

let true_heavy_hitters spec aggregate =
  let volumes = leaf_volumes spec aggregate in
  Hashtbl.fold
    (fun leaf v acc -> if v > spec.Task_spec.threshold then Prefix.Set.add leaf acc else acc)
    volumes Prefix.Set.empty

let true_hierarchical_heavy_hitters (spec : Task_spec.t) aggregate =
  let threshold = spec.Task_spec.threshold in
  let leaf_length = spec.Task_spec.leaf_length in
  let result = ref Prefix.Set.empty in
  (* Returns the volume under [p] not claimed by detected descendant HHHs;
     prunes subtrees whose total volume cannot contain an HHH. *)
  let rec walk p =
    let volume = Aggregate.volume aggregate p in
    if volume <= threshold then volume
    else if Prefix.length p >= leaf_length then begin
      result := Prefix.Set.add p !result;
      0.0
    end
    else begin
      match Prefix.children p with
      | None ->
        result := Prefix.Set.add p !result;
        0.0
      | Some (l, r) ->
        let unclaimed = walk l +. walk r in
        if unclaimed > threshold then begin
          result := Prefix.Set.add p !result;
          0.0
        end
        else unclaimed
    end
  in
  ignore (walk spec.Task_spec.filter);
  !result

let true_changes t aggregate =
  let spec = t.spec in
  let threshold = spec.Task_spec.threshold in
  let history = Task_spec.cd_history in
  let volumes = leaf_volumes spec aggregate in
  (* A change can also be a leaf with history that sent nothing this epoch. *)
  let keys = Hashtbl.create 256 in
  Hashtbl.iter (fun leaf _ -> Hashtbl.replace keys leaf ()) volumes;
  Hashtbl.iter (fun leaf _ -> Hashtbl.replace keys leaf ()) t.cd_means;
  let changes = ref Prefix.Set.empty in
  Hashtbl.iter
    (fun leaf () ->
      let volume = match Hashtbl.find_opt volumes leaf with Some v -> v | None -> 0.0 in
      let mean = match Hashtbl.find_opt t.cd_means leaf with Some m -> m | None -> volume in
      if Float.abs (volume -. mean) > threshold then changes := Prefix.Set.add leaf !changes;
      let mean' = (history *. mean) +. ((1.0 -. history) *. volume) in
      (* volumes are non-negative, so <= 0.0 is "sent nothing" without
         testing floats for exact equality *)
      if mean' < 0.001 && volume <= 0.0 then Hashtbl.remove t.cd_means leaf
      else Hashtbl.replace t.cd_means leaf mean')
    keys;
  !changes

let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let evaluate t epoch_data report =
  let aggregate = epoch_data.Epoch_data.combined in
  let reported = Fixtures.report_prefixes report in
  let true_items =
    match t.spec.Task_spec.kind with
    | Task_spec.Heavy_hitter -> true_heavy_hitters t.spec aggregate
    | Task_spec.Hierarchical_heavy_hitter -> true_hierarchical_heavy_hitters t.spec aggregate
    | Task_spec.Change_detection -> true_changes t aggregate
  in
  let hits = Prefix.Set.cardinal (Prefix.Set.inter reported true_items) in
  let real_accuracy =
    match Task_spec.accuracy_metric t.spec with
    | `Recall -> ratio hits (Prefix.Set.cardinal true_items)
    | `Precision -> ratio hits (Prefix.Set.cardinal reported)
  in
  { true_items; real_accuracy }

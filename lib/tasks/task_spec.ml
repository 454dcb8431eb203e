module Prefix = Dream_prefix.Prefix

type kind = Heavy_hitter | Hierarchical_heavy_hitter | Change_detection

let kind_to_string = function
  | Heavy_hitter -> "HH"
  | Hierarchical_heavy_hitter -> "HHH"
  | Change_detection -> "CD"

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

let all_kinds = [ Heavy_hitter; Hierarchical_heavy_hitter; Change_detection ]

type t = {
  kind : kind;
  filter : Prefix.t;
  leaf_length : int;
  threshold : float;
  accuracy_bound : float;
}

let cd_history = 0.8

let make ~kind ~filter ?(leaf_length = Prefix.address_bits) ~threshold ?(accuracy_bound = 0.8) () =
  if threshold <= 0.0 then invalid_arg "Task_spec.make: threshold must be positive";
  if accuracy_bound < 0.0 || accuracy_bound > 1.0 then
    invalid_arg "Task_spec.make: accuracy_bound must be in [0, 1]";
  if leaf_length <= Prefix.length filter || leaf_length > Prefix.address_bits then
    invalid_arg "Task_spec.make: leaf_length must lie in (filter length, 32]";
  { kind; filter; leaf_length; threshold; accuracy_bound }

let kind_codec =
  Dream_util.Codec.enum ~what:"task kind" "kind"
    (List.map (fun k -> (k, kind_to_string k)) all_kinds)

(* The spec's drop priority line holds 0: tasks drop in arrival order. *)
let codec =
  let open Dream_util.Codec in
  section "spec"
    (record
       (let+ kind = field kind_codec (fun t -> t.kind)
        and+ filter = field (Prefix.codec "filter") (fun t -> t.filter)
        and+ leaf_length = field (int "leaf_length") (fun t -> t.leaf_length)
        and+ threshold = field (float "threshold") (fun t -> t.threshold)
        and+ accuracy_bound = field (float "accuracy_bound") (fun t -> t.accuracy_bound)
        and+ () = field (constant (int "drop_priority") 0) ignore
        and+ () = field (constant (float "cd_history") cd_history) ignore in
        make ~kind ~filter ~leaf_length ~threshold ~accuracy_bound ()))

let accuracy_metric t =
  match t.kind with
  | Heavy_hitter | Change_detection -> `Recall
  | Hierarchical_heavy_hitter -> `Precision


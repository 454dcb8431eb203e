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
  drop_priority : int;
  cd_history : float;
}

let make ~kind ~filter ?(leaf_length = Prefix.address_bits) ~threshold ?(accuracy_bound = 0.8)
    ?(drop_priority = 0) ?(cd_history = 0.8) () =
  if threshold <= 0.0 then invalid_arg "Task_spec.make: threshold must be positive";
  if accuracy_bound < 0.0 || accuracy_bound > 1.0 then
    invalid_arg "Task_spec.make: accuracy_bound must be in [0, 1]";
  if leaf_length <= Prefix.length filter || leaf_length > Prefix.address_bits then
    invalid_arg "Task_spec.make: leaf_length must lie in (filter length, 32]";
  if cd_history < 0.0 || cd_history >= 1.0 then
    invalid_arg "Task_spec.make: cd_history must be in [0, 1)";
  { kind; filter; leaf_length; threshold; accuracy_bound; drop_priority; cd_history }

let kind_of_string = function
  | "HH" -> Some Heavy_hitter
  | "HHH" -> Some Hierarchical_heavy_hitter
  | "CD" -> Some Change_detection
  | _ -> None

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "spec";
  C.string w "kind" (kind_to_string t.kind);
  C.string w "filter" (Prefix.to_string t.filter);
  C.int w "leaf_length" t.leaf_length;
  C.float w "threshold" t.threshold;
  C.float w "accuracy_bound" t.accuracy_bound;
  C.int w "drop_priority" t.drop_priority;
  C.float w "cd_history" t.cd_history

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "spec";
  let kind =
    let s = C.string_field r "kind" in
    match kind_of_string s with
    | Some k -> k
    | None -> C.parse_error 0 (Printf.sprintf "unknown task kind %S" s)
  in
  let filter = Prefix.of_string (C.string_field r "filter") in
  let leaf_length = C.int_field r "leaf_length" in
  let threshold = C.float_field r "threshold" in
  let accuracy_bound = C.float_field r "accuracy_bound" in
  let drop_priority = C.int_field r "drop_priority" in
  let cd_history = C.float_field r "cd_history" in
  make ~kind ~filter ~leaf_length ~threshold ~accuracy_bound ~drop_priority ~cd_history ()

let accuracy_metric t =
  match t.kind with
  | Heavy_hitter | Change_detection -> `Recall
  | Hierarchical_heavy_hitter -> `Precision

